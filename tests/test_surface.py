"""The public surface is what production reaches: every name a production
module exports is used somewhere in production code, every parameter with a
default is passed by some call and left to its default by another, and every
field of a production record is read by production code.  Read from the
source with ast, so nothing is imported.  Every census reads the whole
package.  The parameter censuses count, for a function of the package, only
the calls of the shipped code, the package and perfbench, so a test's call
keeps no setting or default of the package alive.  They also count the
defaults of the tests' oracles (tests/oracles.py), over the calls of the
tests, which alone call them.

The settings census reads the package's parameters without a default:
one that every call passes the same literal is a setting with only one
value, which belongs in a constant.  It counts the calls of the package,
perfbench and the tests' oracles, which are reference paths whose inputs
count; the other tests' calls count for nothing.  A call that passes a
name, an expression, a *sequence or a **mapping passes no literal.

The parameter censuses count a call of a function only where the calling
file's own imports and definitions resolve the callee to it, scope by
scope as Python looks names up: a same-named local function, pytest
argument or foreign module's function does not count, nor does a call
through an instance or a parameter.  Each file is parsed once per session."""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "heisharm").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


@functools.cache
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _trees(paths):
    return {path.name: _tree(path) for path in paths}


def _listed(body, name):
    """The strings of the assignment name = (...) among the statements of
    body, as __all__ of a module or __slots__ of a class."""
    for node in body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _used(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_is_reached_by_production_code():
    trees = _trees(PACKAGE)
    used = _used(trees)
    unreached = sorted(f"{module}:{name}" for module, tree in trees.items()
                       for name in _listed(tree.body, "__all__") if name not in used)
    assert unreached == []


def _defaulted(fn, is_method):
    """(name, position) of each parameter of fn with a default; position is
    the index among a call's positional arguments (self and cls excluded),
    None for a keyword-only one."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    shift = 1 if is_method else 0
    out = [(arg.arg, i - shift) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _module_path(path):
    """The dotted name a file is imported by, as a tuple: heisharm.X for a
    module of the package, the bare stem for tests/ and perfbench/, whose
    directories are on sys.path when their files run."""
    if path.parent.name == "heisharm":
        return ("heisharm",) if path.stem == "__init__" else ("heisharm", path.stem)
    return (path.stem,)


def _required(fn, is_method):
    """(name, position) of each parameter of fn without a default, as
    _defaulted gives them."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    shift = 1 if is_method else 0
    out = [(arg.arg, i - shift) for i, arg in enumerate(positional)
           if shift <= i < first]
    out += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is None]
    return out


def _knobs(tree, path, params=_defaulted, in_class=False):
    """(dotted path of the function, dotted path a call reaches it by,
    parameter, position) for every parameter params picks of every
    function in tree, nested ones included, path being tree's own.  A
    constructor is reached through its class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _knobs(node, path + (node.name,), params, True)
        elif isinstance(node, ast.FunctionDef):
            own = path + (node.name,)
            ctor = in_class and node.name in ("__init__", "__new__")
            for param, pos in params(node, in_class):
                yield own, path if ctor else own, param, pos
            yield from _knobs(node, own, params)


def _bindings(body, module, path):
    """{name: dotted path or None} of the names the statements body of one
    scope bind, path being the scope's own: an import binds the path it
    names and a def or class its own path; any other binding (an
    assignment, a loop or except variable) binds None, since a call
    through it cannot be resolved.  Nested scopes bind only their name."""
    paths, other = {}, set()
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            paths[node.name] = path + (node.name,)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    paths[alias.asname] = tuple(alias.name.split("."))
                else:
                    head = alias.name.split(".")[0]
                    paths[head] = (head,)
        elif isinstance(node, ast.ImportFrom):
            base = module[:len(module) - node.level] if node.level else ()
            base += tuple(node.module.split(".")) if node.module else ()
            for alias in node.names:
                paths[alias.asname or alias.name] = base + (alias.name,)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            other.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            other.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return {**paths, **dict.fromkeys(other)}


def _resolve(expr, scopes):
    """Dotted path of expr, a name or an attribute chain, looked up in
    scopes innermost first; None where it does not resolve."""
    if isinstance(expr, ast.Attribute):
        base = _resolve(expr.value, scopes)
        return None if base is None else base + (expr.attr,)
    if isinstance(expr, ast.Name):
        for scope in scopes:
            if expr.id in scope:
                return scope[expr.id]
    return None


def _calls(nodes, module, scopes, path, cls=None):
    """(call, dotted path of its callee or None) for every call among nodes
    and below them, in a file of module: each name resolves through the
    scopes enclosing it, the innermost first, as Python looks it up.
    scopes are the enclosing function and module bindings, path the
    innermost scope's own dotted path and cls the bindings of the class
    body the nodes are in, which no nested function sees.  A method's
    first parameter resolves to its class, so cls(...) calls the
    constructor; a call through an instance or a parameter is
    unresolved."""
    visible = scopes if cls is None else [cls, *scopes]
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            yield from _calls([*node.decorator_list, *node.bases, *node.keywords],
                              module, scopes, path, cls)
            own = path + (node.name,)
            yield from _calls(node.body, module, scopes, own,
                              _bindings(node.body, module, own))
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            is_def, a = isinstance(node, ast.FunctionDef), node.args
            decorators = node.decorator_list if is_def else []
            yield from _calls([*decorators, *a.defaults, *filter(None, a.kw_defaults)],
                              module, scopes, path, cls)
            head = [*a.posonlyargs, *a.args]
            local = dict.fromkeys(arg.arg for arg in
                                  [*head, *a.kwonlyargs, a.vararg, a.kwarg] if arg)
            body, own = (node.body, path + (node.name,)) if is_def else ([node.body], path)
            local.update(_bindings(body, module, own))
            if is_def and cls is not None and head:
                # a method's first parameter, self or cls, is its class
                local[head[0].arg] = path
            yield from _calls(body, module, [local, *scopes], own)
        else:
            if isinstance(node, ast.Call):
                yield node, _resolve(node.func, visible)
            yield from _calls(ast.iter_child_nodes(node), module, scopes, path, cls)


def _file_calls(tree, module):
    """(call, dotted path of its callee or None) for every call in tree, the
    parsed file of module."""
    return _calls(tree.body, module, [_bindings(tree.body, module, module)],
                  module)


def _passes(call, param, pos):
    """Whether call sets param: by keyword, by **mapping, or by position
    (a *sequence at or before it counts)."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    if pos is None:
        return False
    return len(call.args) > pos or any(
        isinstance(arg, ast.Starred) for arg in call.args[:pos + 1])


# what _argument gives for an argument that is not a literal
_NOT_LITERAL = object()


def _argument(call, param, pos):
    """The literal value call passes for param, a parameter without a
    default, by keyword or by position; _NOT_LITERAL where it passes a
    name or an expression, or where a *sequence or **mapping may hold it."""
    if any(kw.arg is None for kw in call.keywords) or pos is not None and any(
            isinstance(arg, ast.Starred) for arg in call.args[:pos + 1]):
        return _NOT_LITERAL
    node = next((kw.value for kw in call.keywords if kw.arg == param), None)
    if node is None and pos is not None and len(call.args) > pos:
        node = call.args[pos]
    try:
        return _NOT_LITERAL if node is None else ast.literal_eval(node)
    except (ValueError, TypeError):
        return _NOT_LITERAL


def _census(defining, calling, params=_defaulted, of_call=_passes):
    """{module.qualname:param: [of_call(call, param, position) for each
    call]} for every parameter params picks of the functions of the files
    defining, over the calls in the files calling that resolve to the
    function itself through their file's imports and definitions."""
    calls = {}
    for path in calling:
        for call, callee in _file_calls(_tree(path), _module_path(path)):
            calls.setdefault(callee, []).append(call)
    found = {}
    for path in defining:
        for own, target, param, pos in _knobs(_tree(path), _module_path(path),
                                              params):
            name = ".".join(own[1:] if own[0] == "heisharm" else own)
            found[f"{name}:{param}"] = [of_call(call, param, pos)
                                        for call in calls.get(target, ())]
    return found


@functools.cache
def _knob_calls(root):
    """The census of the repository at root: the package's defaults counted
    over the calls of the shipped code, the package and perfbench, and the
    defaults of the tests' oracles over the calls of the tests."""
    package = sorted((root / "src" / "heisharm").glob("*.py"))
    tests = sorted((root / "tests").glob("*.py"))
    return {**_census(package, [*package, *sorted((root / "perfbench").glob("*.py"))]),
            **_census([root / "tests" / "oracles.py"], tests)}


def _fixed_settings(root):
    """The parameters without a default of the package at root that every
    call of the shipped code and the tests' oracles passes one literal:
    settings with only one value.  The oracles are reference paths, whose
    inputs count; the other test files count for nothing."""
    package = sorted((root / "src" / "heisharm").glob("*.py"))
    calling = [*package, *sorted((root / "perfbench").glob("*.py")),
               root / "tests" / "oracles.py"]
    found = _census(package, calling, _required, _argument)
    return sorted(knob for knob, values in found.items()
                  if values and _NOT_LITERAL not in values
                  and all(value == values[0] for value in values))


def test_calls_resolve_through_the_callers_own_bindings():
    # a same-named local function, argument or foreign module's function
    # is not the package's function
    source = """
import unittest
from .grids import QuadratureGrid
from heisharm import cli
import heisharm.ingham

def make():
    pass

def test_records(make, main):
    make()
    main()
    QuadratureGrid.make(k_max=1)
    cli.main([])
    heisharm.ingham.support_radius(plan)
    unittest.main()

class Grid:
    make = QuadratureGrid.make

    @classmethod
    def build(cls):
        return cls(make())
"""
    module = ("heisharm", "records")
    got = [(call.lineno, callee)
           for call, callee in _file_calls(ast.parse(source), module)]
    assert got == [
        (11, None), (12, None),
        (13, ("heisharm", "grids", "QuadratureGrid", "make")),
        (14, ("heisharm", "cli", "main")),
        (15, ("heisharm", "ingham", "support_radius")),
        (16, ("unittest", "main")),
        (23, ("heisharm", "records", "Grid")),
        (23, ("heisharm", "records", "make")),
    ]


def _write_repository(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")


def test_census_counts_test_calls_only_for_the_oracles(tmp_path):
    # f's default is passed only by a test, so the census reports it;
    # perfbench's calls count for the package, the tests' for the oracles
    files = {
        "src/heisharm/m.py": ("def f(x=1):\n    return x\n\n\ndef h(z=1):\n"
                              "    return z\n\n\ndef g():\n    return f() + h()\n"),
        "perfbench/bench.py": "from heisharm.m import h\n\nh(z=3)\n",
        "tests/oracles.py": "def o(y=1):\n    return y\n",
        "tests/test_m.py": ("from heisharm.m import f\nfrom oracles import o\n\n\n"
                            "def test_f():\n    assert f(x=2) == o(y=2) == o()\n"),
    }
    _write_repository(tmp_path, files)
    found = _knob_calls(tmp_path)
    assert found == {"m.f:x": [False], "m.h:z": [False, True],
                     "oracles.o:y": [True, False]}
    assert [knob for knob, passes in found.items() if not any(passes)] == ["m.f:x"]


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert [knob for knob, passes in _knob_calls(ROOT).items() if not any(passes)] == []


def test_every_default_is_relied_on_by_some_call():
    # a default that every call overrides states a value nothing uses
    assert [knob for knob, passes in _knob_calls(ROOT).items() if all(passes)] == []


def test_settings_census_counts_shipped_calls_and_the_oracles(tmp_path):
    # f's x takes 1 from the package and 2 only from a plain test, so it is
    # listed; an oracle's second literal keeps g's y, a name h's z and a
    # *sequence u's w, each off the list
    package = ("def f(x):\n    return x\n\n\ndef g(y):\n    return y\n\n\n"
               "def h(z):\n    return z\n\n\ndef u(w):\n    return w\n\n\n"
               "def run(a):\n    return f(1) + g(y=2) + h(3) + h(a) + u(4)\n")
    _write_repository(tmp_path, {
        "src/heisharm/m.py": package,
        "perfbench/bench.py": "from heisharm.m import f, u\n\nf(x=1)\nu(*[5])\n",
        "tests/oracles.py": ("from heisharm.m import g\n\n\n"
                             "def o():\n    return g(3)\n"),
        "tests/test_m.py": "from heisharm.m import f\n\n\ndef test_f():\n    f(2)\n",
    })
    assert _fixed_settings(tmp_path) == ["m.f:x"]


def test_every_setting_takes_more_than_one_value():
    # a parameter every shipped call passes the same literal is a constant
    # with a call-site spelling
    assert _fixed_settings(ROOT) == []


def _attribute_loads(nodes):
    """How often each attribute name is loaded in and below nodes."""
    return Counter(node.attr for top in nodes for node in ast.walk(top)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def test_every_record_field_is_read_by_production_code():
    # a field counts as read where production code loads it, except in its
    # own class's __init__ and same_as, which only set and compare it
    trees = _trees(PACKAGE)
    loads = _attribute_loads(trees.values())
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            own = _attribute_loads(fn for fn in cls.body if isinstance(
                fn, ast.FunctionDef) and fn.name in ("__init__", "same_as"))
            unread += [f"{module}:{cls.name}.{field}"
                       for field in _listed(cls.body, "__slots__")
                       if loads[field] == own[field]]
    assert unread == []


# the tests that start a fresh interpreter, each with why the process itself
# is what it tests; every other test runs main(argv) in this process, where
# capsys, monkeypatch.chdir and warnings.catch_warnings see the same exit
# code, streams, files and warnings
_PROCESS_TESTS = {
    "test_acceptance.py:test_reports_byte_identical_across_processes":
        "report bytes must not depend on the process that writes them",
    "test_calibrate.py:test_package_import_leaves_calibrate_unloaded":
        "the import set of a fresh `import heisharm`",
    "test_calibrate.py:test_calibrate_module_refuses_arguments":
        "`python -m heisharm.calibrate`, an entry point of its own",
    "test_cli.py:test_malformed_command_lines_exit_2_with_one_line":
        "the import set: a malformed command line never loads numpy",
    "test_cli.py:test_width_refusals_load_no_numpy":
        "the import set: a width or dilation refusal never loads numpy",
    "test_cli.py:no_simd_oracle":
        "numpy with its SIMD dispatch off, which it reads once, at import",
    "test_exit.py:test_process_exit_matches_in_process_dispatch":
        "the exit path, console_main's flush and os._exit, against main",
    "test_exit.py:test_flush_into_closed_pipe_exits_120":
        "the final flush into a pipe whose reader is gone",
    "test_exit.py:test_closed_stdout_keeps_the_exit_code":
        "a process started with its standard output closed",
    "test_special.py:test_runtime_import_path_never_loads_scipy":
        "the import set, with scipy blocked from the start",
    "test_special.py:test_front_end_and_declared_refusals_skip_numpy":
        "the import set of the front end and the declared refusals",
    "test_special.py:test_spectral_checks_skip_gauss_rules_and_plans_still_hash":
        "the import set: no Gauss rule module and no OpenSSL",
    "test_special.py:test_light_checks_load_only_what_they_run":
        "the import set of symmdiff-check and laguerre-check",
    "test_special.py:test_convolve_check_loads_only_what_it_runs":
        "the import set of convolve-check",
}


def _starts_a_process(fn):
    """Whether fn names the subprocess module or reads sys.executable."""
    return any(isinstance(node, ast.Name) and node.id == "subprocess"
               or isinstance(node, ast.Attribute) and node.attr == "executable"
               and isinstance(node.value, ast.Name) and node.value.id == "sys"
               for node in ast.walk(fn))


def test_fresh_interpreters_only_where_the_process_is_tested():
    found = [f"{path.name}:{fn.name}" for path in TESTS
             for fn in ast.walk(_tree(path))
             if isinstance(fn, ast.FunctionDef) and _starts_a_process(fn)]
    assert sorted(found) == sorted(_PROCESS_TESTS)


def test_cli_evaluates_no_closed_form():
    # each closed form states its domain beside its formula, in _ball and
    # _gaussian, and cli.py parses, dispatches and reports: it imports no
    # math and names none of the constants the forms are stated with
    tree = _tree(ROOT / "src" / "heisharm" / "cli.py")
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "math" not in modules
    assert names & {"POWER_CAP", "MAX_N", "ball_normalizer", "_LOG_HUGE",
                    "_LOG_TINY"} == set()
