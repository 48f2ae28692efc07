"""The numpy-only special functions and Gauss rules against scipy.special,
over the argument ranges the package passes them, and a runtime import
path that never loads scipy or the quadrature oracles."""

import ast
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import heisharm
from heisharm._special import betainc_half, gammainc_int, gammaln, logsumexp
from heisharm.grids import _unit_rule
from heisharm.laguerre import roots_genlaguerre

# below this both sides are subnormal and carry few significant bits
_TINY = 1e-300


@seed(21)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3]),
       st.one_of(st.floats(min_value=0.0, max_value=1e3),
                 st.sampled_from([0.0, 1e200])))
def test_gammainc_matches_scipy(n, y):
    ours = gammainc_int(n, np.array([y]))[0]
    ref = sc.gammainc(n, y)
    assert abs(ours - ref) <= 1e-13 * abs(ref) + _TINY
    assert gammainc_int(n, y) == ours


def test_gammainc_ends_and_refusal():
    y = np.array([0.0, 1e200, 1e300])
    for n in (1, 2, 3):
        assert gammainc_int(n, y).tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        gammainc_int(1.5, 1.0)


@seed(22)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1.5, 2.5, 3.5]),
       st.one_of(st.floats(min_value=0.0, max_value=1.0),
                 st.floats(min_value=0.999, max_value=1.0),
                 st.sampled_from([0.0, 1.0, float(np.nextafter(1.0, 0.0))])))
def test_betainc_matches_scipy(a, x):
    ours = betainc_half(a, x)
    assert abs(ours - sc.betainc(a, 0.5, x)) <= 2e-15
    assert betainc_half(a, np.array([x]))[0] == ours


def test_betainc_refuses_other_a():
    for a in (0.0, 1.0, 1.25):
        with pytest.raises(ValueError):
            betainc_half(a, 0.5)


@pytest.mark.parametrize("p", [16, 64, 192])
def test_legendre_rule_matches_scipy(p):
    x, w = _unit_rule(p)
    xr, wr = sc.roots_legendre(p)
    assert np.max(np.abs(x - xr) / np.abs(xr)) <= 1e-13
    assert np.max(np.abs(w - wr) / wr) <= 1e-10


@pytest.mark.parametrize("delta", [0, 1, 2, 3])
def test_laguerre_rule_matches_scipy(delta):
    x, w = roots_genlaguerre(60, delta)
    xr, wr = sc.roots_genlaguerre(60, delta)
    assert np.max(np.abs(x - xr) / xr) <= 1e-13
    assert np.max(np.abs(w - wr) / wr) <= 1e-10


@seed(23)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20000), min_size=1, max_size=40),
       st.sampled_from([1.0, 0.5, 2.0, 3.0]))
def test_gammaln_matches_scipy(k, shift):
    # the shapes the package passes: k + 1, k + n, half-integers 0.5 dim + 1
    x = np.asarray(k, dtype=float) + shift
    ours = gammaln(x.reshape(-1, 1))
    assert ours.shape == (x.size, 1)
    ref = sc.gammaln(x)
    assert np.all(np.abs(ours[:, 0] - ref) <= 1e-13 * np.abs(ref) + _TINY)
    assert gammaln(x[0]) == ours[0, 0]


@seed(24)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                          st.just(-np.inf)), min_size=1, max_size=30))
def test_logsumexp_matches_scipy(a):
    a = np.asarray(a)
    ref = float(sc.logsumexp(a))
    if np.isneginf(ref):
        assert logsumexp(a) == -np.inf
    else:
        assert logsumexp(a) == pytest.approx(ref, rel=1e-13, abs=1e-13)
    assert logsumexp(a.reshape(1, -1)) == logsumexp(a)


def test_logsumexp_all_minus_inf():
    assert logsumexp(np.full((3, 2), -np.inf)) == -np.inf


def _fresh_env():
    """Environment of a fresh interpreter that imports the package tree this
    test process imported."""
    pkg_root = os.path.dirname(
        os.path.dirname(os.path.abspath(heisharm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_runtime_import_path_never_loads_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported: the CLI and the
    # calibration must still import, and the two subcommands that use the
    # Gauss-Laguerre rule and the incomplete beta must still run
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import heisharm.cli, heisharm.calibrate\n"
        "out = sys.argv[1]\n"
        "for name in ('laguerre-check', 'symmdiff-check'):\n"
        "    code = heisharm.cli.main([name, '--out', f'{out}/{name}.json'])\n"
        "    assert code == 0, (name, code)\n"
        "assert 'scipy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "laguerre-check.json").exists()
    assert (tmp_path / "symmdiff-check.json").exists()


# the head of each fresh-interpreter script below: the package imports
# nothing, and the CLI module loads only errors and jsonio of it, neither
# hashlib (OpenSSL) nor numpy; modules the environment loaded before the
# package do not count
_FOOTPRINT = (
    "import sys\n"
    "import heisharm\n"
    "sub = [m for m in sys.modules if m.startswith('heisharm.')]\n"
    "assert not sub, sub\n"
    "before = set(sys.modules)\n"
    "def added():\n"
    "    return set(sys.modules) - before\n"
    "import heisharm.cli\n"
    "pkg = sorted(m for m in added() if m.startswith('heisharm.'))\n"
    "assert pkg == ['heisharm.cli', 'heisharm.errors', 'heisharm.jsonio'], pkg\n"
    "for name in ('hashlib', '_hashlib', 'numpy', 'dataclasses', 'inspect'):\n"
    "    assert name not in added(), name\n"
    "out = sys.argv[1]\n"
)


_DIVERGENT = ("heisharm {}: refused: profile {!r} is declared divergent: no "
              "compactly supported function can have this spectral decay\n")


# what the numpy-free paths never load: numpy imports inspect, so only the
# paths that skip numpy can be held to leaving inspect out
_LEAN = ("numpy", "dataclasses", "inspect")


@pytest.mark.parametrize("argv, code, stderr, unloaded", [
    (["--help"], 0, "", (*_LEAN, "heisharm.theta")),
    (["dilate-check", "--dilation", "inf"], 2,
     "heisharm dilate-check: refused: dilation must be a finite number, "
     "got inf\n", (*_LEAN, "heisharm.transform")),
    (["ingham-plan", "--theta", "inv-log"], 2,
     _DIVERGENT.format("ingham-plan", "inv-log"), (*_LEAN, "heisharm.ingham")),
    (["ingham-verify", "--theta", "inv-log"], 2,
     _DIVERGENT.format("ingham-verify", "inv-log"),
     (*_LEAN, "heisharm.ingham")),
    # a table is validated as a numpy array, but the planner never loads
    (["ingham-plan", "--theta", "{dir}/slowlog.json"], 2,
     _DIVERGENT.format("ingham-plan", "slowlog"),
     ("heisharm.ingham", "heisharm.transform", "heisharm.fixtures",
      "dataclasses")),
], ids=["help", "config-refusal", "plan-inv-log", "verify-inv-log",
        "plan-divergent-table"])
def test_front_end_and_declared_refusals_skip_numpy(tmp_path, argv, code,
                                                     stderr, unloaded):
    (tmp_path / "slowlog.json").write_text(
        '{"name": "slowlog", "kind": "table", "declared_class": "divergent",'
        ' "y": [0.0, 1.0, 2.0], "theta": [1.0, 0.5, 0.2]}')
    never = tmp_path / "never.json"
    argv = [a.format(dir=tmp_path) for a in argv] + ["--out", str(never)]
    script = _FOOTPRINT + (
        f"code = heisharm.cli.main({argv!r})\n"
        f"for name in {unloaded!r}:\n"
        "    assert name not in added(), name\n"
        "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=_fresh_env())
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert not never.exists()
    if code == 0:
        assert proc.stdout.startswith("usage: heisharm")


def test_spectral_checks_skip_gauss_rules_and_plans_still_hash(tmp_path):
    # the Gaussian closed form builds no Gauss-Legendre rule; ingham-plan
    # still reads the packaged fixtures through their grid-hash gate
    code = _FOOTPRINT + (
        "assert heisharm.cli.main(['plancherel-check', '--family',\n"
        "    'gaussian', '--out', out + '/plancherel.json']) == 0\n"
        "assert 'numpy.polynomial' not in added()\n"
        "assert heisharm.cli.main(\n"
        "    ['ingham-plan', '--out', out + '/ingham-plan.json']) == 0\n"
        "assert {'heisharm.fixtures', 'hashlib'} <= set(sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ingham-plan.json").exists()


@pytest.mark.parametrize("command, unloaded", [
    # three closed-form geometry formulas over _special: no planner, no
    # transform and no fixture, so no OpenSSL either
    ("symmdiff-check", ("heisharm.ingham", "heisharm.transform",
                        "heisharm.laguerre", "heisharm.grids",
                        "heisharm.fixtures", "_hashlib")),
    # the envelope replay reads its fixture but plans and transforms nothing
    ("laguerre-check", ("heisharm.calibrate", "heisharm.ingham",
                        "heisharm.theta", "heisharm.transform",
                        "heisharm.grids")),
])
def test_light_checks_load_only_what_they_run(tmp_path, command, unloaded):
    code = _FOOTPRINT + (
        f"assert heisharm.cli.main([{command!r}, '--out',\n"
        f"    out + '/{command}.json']) == 0\n"
        f"for name in {unloaded!r}:\n"
        "    assert name not in added(), name\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"{command}.json").exists()


def test_runtime_import_path_never_loads_oracles(tmp_path):
    # a convolve-check loads neither the quadrature oracles nor the group
    # law, which only tests use, nor the fixtures, the calibration, the
    # planners or the decay profiles, which it does not run
    code = _FOOTPRINT + (
        "assert heisharm.cli.main(\n"
        "    ['convolve-check', '--out', out + '/convolve-check.json']) == 0\n"
        "for name in ('oracles', 'group', 'calibrate', 'chernoff', 'ingham',\n"
        "             'theta', 'fixtures'):\n"
        "    assert 'heisharm.' + name not in added(), name\n"
        "assert '_hashlib' not in added()\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "convolve-check.json").exists()
    # and no production module imports the oracles at all
    for name, lineno, mod in _package_imports():
        if name != "oracles.py":
            assert "oracles" not in mod.split("."), (name, lineno)


def _package_imports():
    """(file, line, module) for each module named by an import statement in
    the package's sources, relative imports included."""
    pkg_dir = os.path.dirname(os.path.abspath(heisharm.__file__))
    for name in sorted(os.listdir(pkg_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg_dir, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    mods.append(node.module or "")
                for mod in mods:
                    yield name, node.lineno, mod


def test_no_module_imports_dataclasses():
    # generated record classes load inspect, ast and tokenize at start-up;
    # the records are plain __slots__ classes and namedtuples instead
    assert not [(name, lineno) for name, lineno, mod in _package_imports()
                if mod.split(".")[0] == "dataclasses"]
