"""The public surface is what production reaches: every name a production
module exports is used somewhere in production code, every parameter with a
default is passed by some call and left to its default by another, and every
field of a production record is read by production code.  Read from the
source with ast, so nothing is imported.  Every census reads the whole
package; the parameter censuses also count the defaults of the tests'
oracles (tests/oracles.py), which the tests alone call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "heisharm").glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"


def _trees(paths):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in paths}


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


def _knobs(tree, cls=None):
    """(names a call reaches it by, qualified name, parameter, position) for
    every defaulted parameter of every function in tree, nested ones
    included.  A constructor is reached through its class name and
    through cls(...)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _knobs(node, node.name)
        elif isinstance(node, ast.FunctionDef):
            names = {node.name}
            if cls is not None and node.name in ("__init__", "__new__"):
                names = {cls, "cls"}
            qualname = f"{cls}.{node.name}" if cls else node.name
            for param, pos in _defaulted(node, cls is not None):
                yield names, qualname, param, pos
            yield from _knobs(node)


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _passes(call, param, pos):
    """Whether call sets param: by keyword, by **mapping, or by position
    (a *sequence at or before it counts)."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    if pos is None:
        return False
    return len(call.args) > pos or any(
        isinstance(arg, ast.Starred) for arg in call.args[:pos + 1])


def _census(keep):
    """module.qualname:param of every defaulted parameter of the package and
    the tests' oracles whose calls in the package, the tests and perfbench
    do not satisfy keep(passes), passes holding one bool per call: whether
    that call sets the parameter."""
    callers = [*PACKAGE, *sorted((ROOT / "tests").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py"))]
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    return sorted(
        f"{module[:-3]}.{qualname}:{param}"
        for module, tree in _trees([*PACKAGE, ORACLES]).items()
        for names, qualname, param, pos in _knobs(tree)
        if not keep([_passes(call, param, pos)
                     for name in names for call in calls.get(name, ())]))


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert _census(any) == []


def test_every_default_is_relied_on_by_some_call():
    # a default that every call overrides states a value nothing uses
    assert _census(lambda passes: not all(passes)) == []


def _attribute_loads(trees, skip):
    """Names of the attributes loaded in trees, outside the nodes in skip."""
    loads = set()
    stack = list(trees.values())
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return loads


def test_every_record_field_is_read_by_production_code():
    # a field counts as read where production code loads it, except in its
    # own class's __init__ and same_as, which only set and compare it
    trees = _trees(PACKAGE)
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            own = {fn for fn in cls.body if isinstance(fn, ast.FunctionDef)
                   and fn.name in ("__init__", "same_as")}
            loads = _attribute_loads(trees, own)
            unread += [f"{module}:{cls.name}.{field}"
                       for field in _listed(cls.body, "__slots__")
                       if field not in loads]
    assert unread == []
