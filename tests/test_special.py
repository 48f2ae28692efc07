"""The numpy-only special functions and Gauss rules against scipy.special
(and the Gauss-Legendre rule against a 40-digit decimal reference), over
the argument ranges the package passes them, and a runtime import path
that never loads scipy or numpy.polynomial."""

import ast
import json
import os
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import heisharm
from heisharm._special import betainc_half, gammainc_int, gammaln, logsumexp
from heisharm.errors import DomainError
from heisharm.fixtures import packaged_fixtures_dir
from heisharm.grids import _unit_rule, roots_legendre
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


@pytest.mark.parametrize("p", [16, 64])
def test_legendre_rule_matches_scipy(p):
    x, w = _unit_rule(p)
    xr, wr = sc.roots_legendre(p)
    assert np.max(np.abs(x - xr) / np.abs(xr)) <= 1e-13
    assert np.max(np.abs(w - wr) / wr) <= 1e-10


def _decimal_legendre_rule(p, start):
    """Gauss-Legendre nodes and weights to 40 digits for the nonnegative
    float nodes start: three Newton steps on the three-term recurrence in
    decimal arithmetic, then 2 / ((1 - x^2) P_p'(x)^2)."""
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for x0 in start:
            x = Decimal(float(x0))
            for step in range(4):
                prev, cur = Decimal(1), x
                for j in range(1, p):
                    prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
                dp = p * (prev - x * cur) / (1 - x * x)
                if step < 3:
                    x -= cur / dp
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("p", [13, 104, 192, 200])
def test_legendre_rule_matches_decimal_reference(p):
    # numpy's leggauss weights are 4.2e-11 and scipy's 1.2e-10 off at
    # p = 192, so only an exact reference can hold the rule to 1e-12
    x, w = _unit_rule(p)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    half = slice(p // 2, None)  # the nonnegative nodes
    nodes, weights = _decimal_legendre_rule(p, x[half])
    for xi, wi, xe, we in zip(x[half], w[half], nodes, weights):
        assert abs(Decimal(float(xi)) - xe) <= Decimal("2.5e-16")
        assert abs((Decimal(float(wi)) - we) / we) <= Decimal("1e-12")
    # numpy's rule stays a second, independent oracle at its own accuracy
    xl, wl = leggauss(p)
    assert np.all(np.abs(x - xl) <= 1e-13 * np.abs(xl))
    assert np.max(np.abs(w - wl) / wl) <= 1e-10


def full_matrix_roots_legendre(p):
    """Oracle of roots_legendre's half-size eigenproblem: the same Newton
    step, weights and symmetrization after eigvalsh of the full p-square
    Jacobi matrix (zero diagonal, off-diagonal k / sqrt(4k^2 - 1))."""
    k = np.arange(1.0, p)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    prev, cur = np.ones_like(x), x
    for j in range(1, p):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    up, down = 1.0 + x, 1.0 - x
    dp = p * (prev - x * cur) / (up * down)
    d2p = (2.0 * x * dp - p * (p + 1.0) * cur) / (up * down)
    h = -cur / dp
    dp += h * d2p
    w = 2.0 / ((up + h) * (down - h) * dp * dp)
    x = x + h
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


@pytest.mark.parametrize("p", [1, 2, 3, 12, 13, 56, 72, 104, 192, 200])
def test_half_size_rule_matches_full_matrix(p):
    # small odd and even orders, and the orders of the convolution's r, t
    # and u rules
    x, w = roots_legendre(p)
    xf, wf = full_matrix_roots_legendre(p)
    assert x.shape == w.shape == (p,)
    assert np.max(np.abs(x - xf)) <= 2.5e-16
    assert np.max(np.abs(w - wf) / wf) <= 1e-12


def test_legendre_rule_small_orders_and_refusal():
    assert roots_legendre(1)[0].tolist() == [0.0]
    assert roots_legendre(1)[1].tolist() == [2.0]
    x, w = roots_legendre(2)
    np.testing.assert_allclose(x, [-3 ** -0.5, 3 ** -0.5], rtol=1e-15)
    np.testing.assert_allclose(w, [1.0, 1.0], rtol=1e-15)
    for p in (0, -1, 2.5):
        with pytest.raises(DomainError):
            roots_legendre(p)


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


def test_runtime_import_path_never_loads_scipy(tmp_path, fresh_env):
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
                          capture_output=True, text=True, env=fresh_env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "laguerre-check.json").exists()
    assert (tmp_path / "symmdiff-check.json").exists()


# the head of each fresh-interpreter script below: the package imports
# nothing, and the CLI module loads only errors and jsonio of it, and
# neither numpy, argparse (with gettext) nor hashlib (OpenSSL); modules the
# environment loaded before the package do not count
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
    "for name in ('hashlib', '_hashlib', 'argparse', 'gettext', 'numpy',\n"
    "             'dataclasses', 'inspect'):\n"
    "    assert name not in added(), name\n"
    "out = sys.argv[1]\n"
)


_DIVERGENT = ("heisharm {}: refused: profile {!r} is declared divergent: no "
              "compactly supported function can have this spectral decay\n")


# what the numpy-free paths never load: numpy imports inspect, so only the
# paths that skip numpy can be held to leaving inspect out
_LEAN = ("numpy", "dataclasses", "inspect")


# ingham-plan with each convergent builtin plans, bounds and replays on
# Python floats
_PLANS = [["ingham-plan", "--theta", name, "--n", str(n)]
          for name in ("inv-sqrt", "inv-sqrt-strong", "inv-log-sq", "zero")
          for n in (1, 2, 3)]
_PLANS.append(["ingham-plan", "--theta", "inv-sqrt", "--chain-length", "64"])
# the longest plan a chain can have
_PLANS.append(["ingham-plan", "--theta", "inv-sqrt-strong", "--n", "3",
               "--chain-length", "1074"])


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
    *[(argv, 0, "", (*_LEAN, "heisharm.ingham", "heisharm.transform"))
      for argv in _PLANS],
], ids=["help", "config-refusal", "plan-inv-log", "verify-inv-log",
        "plan-divergent-table",
        *("plan-" + "-".join(v.lstrip("-") for v in a[2:]) for a in _PLANS)])
def test_front_end_and_declared_refusals_skip_numpy(tmp_path, fresh_env, argv,
                                                     code, stderr, unloaded):
    (tmp_path / "slowlog.json").write_text(
        '{"name": "slowlog", "kind": "table", "declared_class": "divergent",'
        ' "y": [0.0, 1.0, 2.0], "theta": [1.0, 0.5, 0.2]}')
    report = tmp_path / "report.json"
    argv = [a.format(dir=tmp_path) for a in argv] + ["--out", str(report)]
    script = _FOOTPRINT + (
        f"code = heisharm.cli.main({argv!r})\n"
        f"for name in {unloaded!r}:\n"
        "    assert name not in added(), name\n"
        "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=fresh_env)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    # --help and the refusals write nothing; a command that ran writes its
    # report and prints its summary line
    ran = code == 0 and argv[0] != "--help"
    assert report.exists() == ran
    if code == 0:
        assert proc.stdout.startswith(f"{argv[0]}: " if ran else "usage: heisharm")


def test_spectral_checks_skip_gauss_rules_and_plans_still_hash(tmp_path,
                                                              fresh_env):
    # the Gaussian closed form builds no Gauss-Legendre rule; ingham-plan
    # still reads its fixtures through their grid gate, which compares the
    # recorded grid fields and so loads no OpenSSL
    path = tmp_path / "fx" / "box_factor_envelope.json"
    shutil.copytree(packaged_fixtures_dir(), path.parent)
    fixture = json.loads(path.read_text())
    fixture["s_nodes"] = 121
    path.write_text(json.dumps(fixture))
    code = _FOOTPRINT + (
        "assert heisharm.cli.main(['plancherel-check', '--family',\n"
        "    'gaussian', '--out', out + '/plancherel.json']) == 0\n"
        "assert 'numpy.polynomial' not in added()\n"
        "assert heisharm.cli.main(\n"
        "    ['ingham-plan', '--out', out + '/ingham-plan.json']) == 0\n"
        "assert heisharm.cli.main(['ingham-plan', '--fixtures', out + '/fx',\n"
        "    '--out', out + '/never.json']) == 2\n"
        "assert 'heisharm.fixtures' in added()\n"
        "assert '_hashlib' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=fresh_env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ingham-plan.json").exists()
    assert not (tmp_path / "never.json").exists()
    assert proc.stderr == (
        f"heisharm ingham-plan: refused: calibration fixture {str(path)!r} "
        "records s_nodes = 121, not 120 of this package's calibration grid; "
        "run 'python -m heisharm.calibrate' to regenerate\n")


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
def test_light_checks_load_only_what_they_run(tmp_path, fresh_env, command,
                                              unloaded):
    code = _FOOTPRINT + (
        f"assert heisharm.cli.main([{command!r}, '--out',\n"
        f"    out + '/{command}.json']) == 0\n"
        f"for name in {unloaded!r}:\n"
        "    assert name not in added(), name\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=fresh_env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"{command}.json").exists()


def test_convolve_check_loads_only_what_it_runs(tmp_path, fresh_env):
    # a convolve-check loads neither the group law, which only tests use,
    # nor the fixtures, the calibration, the planners or the decay
    # profiles, which it does not run; its Gauss-Legendre rules are
    # grids.roots_legendre, not numpy.polynomial
    code = _FOOTPRINT + (
        "assert heisharm.cli.main(\n"
        "    ['convolve-check', '--out', out + '/convolve-check.json']) == 0\n"
        "for name in ('group', 'calibrate', 'chernoff', 'ingham', 'theta',\n"
        "             'fixtures'):\n"
        "    assert 'heisharm.' + name not in added(), name\n"
        "assert '_hashlib' not in added()\n"
        "assert 'numpy.polynomial' not in added()\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=fresh_env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "convolve-check.json").exists()
    # and no production module imports numpy.polynomial
    for name, lineno, mod in _package_imports():
        assert "polynomial" not in mod.split("."), (name, lineno)


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


def test_no_module_imports_argparse_or_hashlib():
    # the command line is parsed from the option table, the grid hashes
    # are recorded constants and the writer creates its temporary file with
    # os.open, so no production module needs argparse, hashlib or tempfile
    assert not [(name, lineno, mod) for name, lineno, mod in _package_imports()
                if mod.split(".")[0] in ("argparse", "hashlib", "tempfile")]


def test_no_module_imports_dataclasses():
    # generated record classes load inspect, ast and tokenize at start-up;
    # the records are plain __slots__ classes and namedtuples instead
    assert not [(name, lineno) for name, lineno, mod in _package_imports()
                if mod.split(".")[0] == "dataclasses"]
