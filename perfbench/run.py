#!/usr/bin/env python3
"""heisharm benchmark: closed-loop CLI workloads with optional tracing.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-bytes
    python3 perfbench/run.py --record

A timed run builds one pass of ops from the workload's menus and the seed.
It runs the workload's once-ops (the ball calibration, into a temporary
directory, by a fresh process calling ``heisharm.calibrate.run_all``), then
whole passes, one op at a time, each op a fresh ``python -m heisharm.cli``
process: at least three passes, then more while the next one is expected
to end within S seconds of the start.  Every op's exit status and headline
report values are checked against references.json.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
each op untraced and then traced (one pass is enough) and prints its
per-layer metrics.  The last stdout line is the JSON result; the lines
before it are the full table, which --trace 1 extends with every per-layer
metric of layers.py.

--check-bytes runs every menu entry once and lists each report whose bytes
differ from the recorded digests (exit 1 if any moved or failed).
--record rewrites references.json from one run of every menu entry;
re-recording is a change to the benchmark, not to the program.

Run from anywhere; everything is written under .perfbench/ in the
checkout and the run's own scratch directory is removed at exit.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import outcome
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
PROBE = HERE / "probe.py"

# op processes get fixed BLAS/OpenMP thread counts, at most nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OP_THREADS = "1"
MIN_PASSES = 3
# fresh imports and probe runs timed before each pass
SAMPLES_PER_PASS = 2
OP_TIMEOUT_S = 150.0
# directories the tree check skips: VCS data, caches, build and bench output
SKIP_DIRS = {".git", ".perfbench", "__pycache__", ".bench_build",
             ".pytest_cache", ".hypothesis"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def op_env():
    # bytecode caching stays on, as in an installed package, whatever the
    # caller's PYTHONDONTWRITEBYTECODE; the thread-pool variable stays off
    env = {k: v for k, v in os.environ.items()
           if k not in ("HEISHARM_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = OP_THREADS
    return env


def tree_snapshot():
    """sha256 of every file of the checkout outside SKIP_DIRS."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, ROOT)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_process(cmd, env, cwd, log_path):
    """Run one op process to completion: (wall s, exit code, max RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=log)
        deadline = t0 + OP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(env, cwd, repeats):
    """Fresh interpreter until ``import heisharm.cli`` returns, timed
    ``repeats`` times."""
    cmd = [sys.executable, "-c",
           "import sys, heisharm.cli; sys.stdout.write('ready'); sys.stdout.flush()"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        ready = proc.stdout.read(5)
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        proc.wait()
        if ready != b"ready" or proc.returncode != 0:
            raise BenchError("import heisharm.cli failed in a fresh interpreter")
    return times


def measure_probe(env, cwd):
    """Wall time of one run of probe.py in a fresh interpreter."""
    t0 = time.perf_counter()
    code = subprocess.run([sys.executable, str(PROBE)], env=env, cwd=cwd,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    elapsed = time.perf_counter() - t0
    if code:
        raise BenchError("the speed probe failed")
    return elapsed


def op_command(entry, out_dir, fixtures_dir, profile_dir, trace_path):
    if entry["calibrate"]:
        if trace_path:
            return [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                    "--calibrate", str(out_dir)]
        return [sys.executable, "-c",
                "import sys; from heisharm.calibrate import run_all; "
                "run_all(out_dir=sys.argv[1])", str(out_dir)]
    argv = workloads.op_argv(entry, str(out_dir / "report.json"), str(profile_dir),
                             str(fixtures_dir))
    if trace_path:
        return [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *argv]
    return [sys.executable, "-m", "heisharm.cli", *argv]


def run_op(entry, out_dir, fixtures_dir, profile_dir, env, refs, traced):
    """Run one op, writing into the new directory out_dir (the calibration
    writes its fixtures there), and check it against refs (None: record,
    do not check).  Its stderr and trace go beside out_dir."""
    out_dir.mkdir(parents=True)
    trace_path = out_dir.with_name(out_dir.name + ".trace.json") if traced else None
    cmd = op_command(entry, out_dir, fixtures_dir, profile_dir, trace_path)
    log_path = out_dir.with_name(out_dir.name + ".stderr.txt")
    wall, code, rss = run_process(cmd, env, out_dir.parent, log_path)
    ref = None if refs is None else refs.get(entry["id"])
    try:
        got = outcome.outcome(entry, code, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        got = None
        problems = [f"unreadable output: {exc!r}"]
    else:
        problems = [] if refs is None else outcome.check(got, ref)
    result = {"id": entry["id"], "kind": entry["kind"], "wall": wall, "rss_mb": rss,
              "problems": problems, "outcome": got,
              "moved": outcome.moved_files(got, ref) if got and ref else None}
    if problems:
        tail = log_path.read_bytes()[-600:].decode("utf-8", "replace")
        print(f"op failed: {entry['id']}: {'; '.join(problems)}\n{tail}",
              file=sys.stderr)
    if traced:
        try:
            with open(trace_path) as fh:
                result["trace"] = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"no trace from {entry['id']}: {exc}") from exc
    return result


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def print_row(name, unit, s):
    print(f"{name:44s} {unit:6s} median={s['median']:.6g} q1={s['q1']:.6g} "
          f"q3={s['q3']:.6g} n={s['n']}")


def pass_wall(results):
    return sum(r["wall"] for r in results)


def pass_figures(results):
    """End-to-end figures of one pass: its wall time, the largest max-RSS
    of its ops, and the summed wall time of each op kind it ran."""
    fig = {"wall_s": pass_wall(results),
           "peak_rss_mb": max(r["rss_mb"] for r in results)}
    for kind in workloads.KINDS:
        walls = [r["wall"] for r in results if r["kind"] == kind]
        if walls:
            fig[f"{kind}_s"] = sum(walls)
    return fig


def run_workload(workload, ops, seconds, traced_too, co, env, refs):
    """The workload's once-ops, then whole passes of ops: at least
    MIN_PASSES (one with traced_too), then more while the next pass is
    expected to end within ``seconds`` of the start.  SAMPLES_PER_PASS
    fresh imports and probe runs are timed before each pass, so that their
    samples span the run as the passes do.  With traced_too each op runs
    untraced and then traced, so that both copies see the same machine
    state and their difference is the tracing overhead.

    Returns a dict: the untraced and the traced once-op results ("once",
    "once_traced"), the untraced and the traced passes ("passes",
    "traced"), and the set-up and probe times ("setup", "probe")."""
    sorts = (False, True) if traced_too else (False,)
    min_rounds = 1 if traced_too else MIN_PASSES
    start = time.perf_counter()
    # one untimed import writes the bytecode caches
    measure_setup(env, co.scratch, 1)
    once = [[] for _ in sorts]
    for i, entry in enumerate(workloads.once_ops(workload)):
        for k, traced in enumerate(sorts):
            out_dir = co.scratch / f"once-{'traced' if traced else 'plain'}" / f"op{i:02d}"
            once[k].append(run_op(entry, out_dir, co.fixtures, co.profile_dir, env,
                                  refs, traced))
            if entry["calibrate"] and not traced:
                co.fixtures = out_dir
    setup, probe, rounds, round_walls = [], [], [], []
    while (len(rounds) < min_rounds
           or time.perf_counter() - start + statistics.median(round_walls) <= seconds):
        t0 = time.perf_counter()
        for _ in range(SAMPLES_PER_PASS):
            setup += measure_setup(env, co.scratch, 1)
            probe.append(measure_probe(env, co.scratch))
        dirs = [co.scratch / f"pass{len(rounds):02d}-{'traced' if t else 'plain'}"
                for t in sorts]
        results = [[] for _ in sorts]
        for i, entry in enumerate(ops):
            for k, traced in enumerate(sorts):
                results[k].append(run_op(entry, dirs[k] / f"op{i:02d}", co.fixtures,
                                         co.profile_dir, env, refs, traced))
        for d in dirs:
            shutil.rmtree(d)
        rounds.append(results)
        round_walls.append(time.perf_counter() - t0)
    return {"once": once[0], "once_traced": once[1] if traced_too else [],
            "passes": [r[0] for r in rounds],
            "traced": [r[1] for r in rounds if traced_too],
            "setup": setup, "probe": probe}


def layer_table(once_plain, once_traced, untraced, traced):
    """Per-layer metrics with their units: the once-ops plus one pass,
    median over the traced passes."""
    units = {k: v[0] for k, v in layers.METRICS.items()}
    per_pass = []
    for p in traced:
        m = layers.pass_metrics([r["trace"] for r in once_traced + p])
        m["cli.reports_byte_identical"] = sum(r["moved"] == [] for r in once_traced + p)
        per_pass.append(m)
    units["cli.reports_byte_identical"] = "count"
    table = {name: (units[name], value)
             for name, value in layers.median_metrics(per_pass).items()}
    overhead = (statistics.median(pass_wall(once_traced + p) for p in traced)
                - statistics.median(pass_wall(once_plain + p) for p in untraced))
    table["trace.overhead_s"] = ("s", overhead)
    return table


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class GuardedScratch:
    """The run's scratch directory, plus the check that the files of the
    checkout (packaged fixtures included) are unchanged afterwards."""

    def __enter__(self):
        self.before = tree_snapshot()
        self.scratch = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        self.profile_dir = self.scratch / "profiles"
        self.profile_dir.mkdir()
        workloads.write_profiles(self.profile_dir)
        # set by the run's calibration op, whose fixtures later ops read
        self.fixtures = None
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.scratch, ignore_errors=True)
        after = tree_snapshot()
        self.changed = sorted(p for p in set(self.before) | set(after)
                              if self.before.get(p) != after.get(p))
        for path in self.changed:
            print(f"checkout file changed during the run: {path}", file=sys.stderr)
        return False


def bench_main(args):
    bench = load_json(ROOT / "BENCHMARK.json")
    refs = load_json(REFERENCES)
    env = op_env()
    ops = workloads.pass_ops(args.workload, args.seed)
    with GuardedScratch() as co:
        run = run_workload(args.workload, ops, args.seconds, bool(args.trace), co,
                           env, refs)
    once_plain, once_traced = run["once"], run["once_traced"]
    untraced, traced = run["passes"], run["traced"]
    results = once_plain + once_traced + [r for p in untraced + traced for r in p]
    attempted = len(results)
    failed = sum(1 for r in results if r["problems"])

    figures = [pass_figures(p) for p in untraced]
    probe = statistics.median(run["probe"])
    table = {"setup_s": ("s", summary(run["setup"])),
             "probe_s": ("s", summary(run["probe"])),
             "wall_rel_probe": ("ratio", summary([f["wall_s"] / probe for f in figures]))}
    for name in figures[0]:
        table[name] = ("MB" if name == "peak_rss_mb" else "s",
                       summary([f[name] for f in figures]))
    # a once-op is one sample per run
    for r in once_plain:
        table[f"{r['kind']}_s"] = ("s", summary([r["wall"]]))
    table["failed_op_share"] = ("ratio", summary([failed / attempted]))
    layer = (layer_table(once_plain, once_traced, untraced, traced)
             if args.trace else {})

    threads = " ".join(f"{v}={OP_THREADS}" for v in THREAD_VARS)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} {threads}")
    print("# once: " + " | ".join(r["id"] for r in once_plain))
    print(f"# pass ({len(ops)} ops): " + " | ".join(e["id"] for e in ops))
    print(f"# passes: untraced={len(untraced)} traced={len(traced)} "
          f"attempted={attempted} failed={failed} tree_clean={not co.changed}")
    for name, (unit, s) in table.items():
        print_row(name, unit, s)
    for name, (unit, value) in sorted(layer.items()):
        print(f"{name:44s} {unit:6s} {value:.6g}")
    for target in sorted({a for r in once_traced + [r for p in traced for r in p]
                          for a in r["trace"]["absent"]}):
        print(f"# absent wrap target: {target}")

    if args.trace:
        wanted = bench["per_layer"]
        values = {name: value for name, (_, value) in layer.items()}
    else:
        wanted = bench["end_to_end"]
        values = {name: s["median"] for name, (_, s) in table.items()}
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            print(f"# {m['name']}: not measured on this workload, reported as 0",
                  file=sys.stderr)
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": bool(not co.changed and failed == 0),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    save = WORK / "results"
    save.mkdir(parents=True, exist_ok=True)
    with open(save / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "nproc": os.cpu_count(),
                   "threads": {v: OP_THREADS for v in THREAD_VARS},
                   "ops": [[[r["id"], r["wall"], r["rss_mb"], "trace" in r]
                            for r in p]
                           for p in [once_plain, once_traced] + untraced + traced],
                   "end_to_end": {k: v[1] for k, v in table.items()},
                   "per_layer": {k: v[1] for k, v in layer.items()}},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def entries_main(record):
    """Run every menu entry once; record references or compare bytes."""
    # the calibration runs first: the read-back entries use its fixtures
    ordered = sorted(workloads.all_entries(), key=lambda e: not e["calibrate"])
    refs = None if record else load_json(REFERENCES)
    env = op_env()
    results = []
    with GuardedScratch() as co:
        for i, entry in enumerate(ordered):
            out_dir = co.scratch / f"op{i:02d}"
            results.append(run_op(entry, out_dir, co.fixtures, co.profile_dir, env,
                                  refs, traced=False))
            if entry["calibrate"]:
                co.fixtures = out_dir
    if record:
        if co.changed or any(r["outcome"] is None for r in results):
            raise BenchError("not recording: an op left no readable output")
        with open(REFERENCES, "w") as fh:
            json.dump({r["id"]: r["outcome"] for r in results}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(results)} references in {REFERENCES.relative_to(ROOT)}")
        return 0
    moved = [(r["id"], f) for r in results for f in (r["moved"] or [])]
    failed = [r["id"] for r in results if r["problems"]]
    for entry_id, name in moved:
        print(f"MOVED {entry_id} :: {name}")
    for entry_id in failed:
        print(f"FAILED {entry_id}")
    print(f"{len(results)} entries, {len(moved)} files moved, {len(failed)} failed, "
          f"tree_clean={not co.changed}")
    return 1 if moved or failed or co.changed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check-bytes", action="store_true",
                      help="run every menu entry once and compare report bytes")
    mode.add_argument("--record", action="store_true",
                      help="rewrite references.json from one run of every entry")
    args = ap.parse_args(argv)
    timed = (args.workload, args.seed, args.seconds)
    if args.check_bytes or args.record:
        if timed != (None, None, None):
            ap.error("--check-bytes and --record run every menu entry; "
                     "they take no --workload, --seed or --seconds")
    elif None in timed:
        ap.error("a timed run needs --workload, --seed and --seconds")
    if not (SRC / "heisharm" / "cli.py").is_file():
        print(f"perfbench: no heisharm sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.check_bytes or args.record:
            return entries_main(record=args.record)
        return bench_main(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
