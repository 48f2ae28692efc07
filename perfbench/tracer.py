"""Launcher for one traced op process.

    python perfbench/tracer.py TRACE_OUT -- <heisharm.cli arguments>
    python perfbench/tracer.py TRACE_OUT --calibrate OUT_DIR

It imports heisharm, wraps the public functions named in layers.TARGETS
from outside, runs the op, and writes the recorded spans and counters to
TRACE_OUT as JSON when the op exits.  Each wrapper is bound in every
heisharm module that holds the original, so calls made through a
``from ... import`` binding are recorded too.  A target the program no
longer has is listed as absent instead of failing the op.
"""

import functools
import importlib
import inspect
import json
import sys
import time

import layers


class Tracer:
    """Spans and counters of one op, kept in memory until the op exits."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.absent = []
        self.factor_keys = set()

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, fn, name):
        hook = layers.COUNTERS.get(name)
        keyed = name == "ingham.factor_coeff_table"
        sig = inspect.signature(fn) if hook or keyed else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if hook:
                    self.count(*hook(bound.arguments, result))
                if keyed:
                    self.factor_keys.add(layers.factor_key(bound.arguments))
            return result

        return wrapper

    def install(self, targets=layers.TARGETS):
        """Wrap each target and rebind it wherever heisharm imported it."""
        wrapped = {}
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = (original, self.wrap(original, name))
            setattr(module, attr, wrapped[id(original)][1])
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("heisharm") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def record(self):
        counters = dict(self.counters)
        if self.factor_keys:
            counters["ingham.factor_coeff_table_distinct"] = len(self.factor_keys)
        return {"spans": self.spans, "counters": counters, "absent": self.absent}


def main(argv):
    out_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.open(layers.IMPORT_SPAN)
    import heisharm.cli
    import heisharm.calibrate
    tracer.close()
    tracer.install()
    code = 0
    tracer.open(layers.DISPATCH_SPAN)
    try:
        if mode == "--calibrate":
            heisharm.calibrate.run_all(out_dir=rest[0])
        else:
            code = heisharm.cli.main(rest)
    finally:
        tracer.close()
        with open(out_path, "w") as fh:
            json.dump(tracer.record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
