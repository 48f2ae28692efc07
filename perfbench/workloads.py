"""Workload menus and the seeded op lists built from them.

A workload is a list of ops run once at the start of a run, followed by a
pass template: a list of slots, each holding a menu of interchangeable
entries of similar cost.  The seed picks one entry per slot and the order
of the pass, so every seed gives a pass of about the same cost while
exercising a different mix of inputs.  Because the menus are finite, every
entry has a recorded reference outcome (references.json).

An entry is a dict:

    id        unique name; the key of its reference
    kind      the op kind that the per-kind timings sum over
    argv      CLI arguments after ``python -m heisharm.cli``; the report
              path, profile paths and fixture dirs are filled in at run time
    profile   exponent of a generated table profile passed as --theta
    fixtures  True when the op reads back the run's calibrated fixtures
    calibrate True for the calibration op (heisharm.calibrate.run_all)
"""

import json
import random

import numpy as np

# the op kinds, in the order the per-kind timings are printed
KINDS = (
    "plancherel_gaussian",
    "plancherel_box",
    "dilate",
    "convolve",
    "ingham_plan",
    "ingham_verify",
    "calibrate",
    "light_checks",
)

# exponents p of the generated convergent table profiles (1 + y)^(-p)
PROFILE_EXPONENTS = (0.5, 0.75)


def _entry(kind, argv, entry_id=None, profile=None, fixtures=False,
           calibrate=False):
    return {"id": entry_id or " ".join(argv), "kind": kind, "argv": list(argv),
            "profile": profile, "fixtures": fixtures, "calibrate": calibrate}


def _verify(theta, n, chain):
    if isinstance(theta, float):
        name, profile = f"table-p{theta}", theta
    else:
        name, profile = theta, None
    argv = ["ingham-verify", "--theta", name, "--n", str(n),
            "--chain-length", str(chain)]
    return _entry("ingham_verify", argv, profile=profile, fixtures=True)


def _spectral():
    plancherel = [_entry("plancherel_gaussian",
                         ["plancherel-check", "--family", "gaussian",
                          "--n", str(n)]) for n in (1, 2)]
    dilate = [_entry("dilate", ["dilate-check", "--dilation", d, "--n", str(n)])
              for d in ("1.2", "1.4", "1.8") for n in (1, 2)]
    # light checks, each about 0.6 s and mostly import time
    light = ([_entry("light_checks", argv) for argv in (
                 ["laguerre-check"],
                 ["carleman", "--family", "box"],
                 ["carleman", "--family", "envelope", "--theta", "inv-sqrt"],
                 ["carleman", "--family", "envelope", "--theta", "inv-sqrt-strong"],
                 ["gamma-bound-check", "--theta", "inv-sqrt-strong", "--max-power", "8"],
                 ["gamma-bound-check", "--theta", "inv-sqrt-strong", "--max-power", "10"],
                 ["symmdiff-check"],
                 # refusal: inv-sqrt fails the gamma hypothesis, exit 2
                 ["gamma-bound-check", "--theta", "inv-sqrt"])])
    return [], [plancherel, dilate, light]


def _ball():
    # one calibration per run; every pass reads its fixtures back
    calibrate = _entry("calibrate", [], entry_id="calibrate", calibrate=True)
    plan = [_entry("ingham_plan", ["ingham-plan", "--n", str(n)],
                   fixtures=True) for n in (1, 2)]
    # profiles of about the same cost and memory, so that every seed gives
    # a pass of about the same cost and peak RSS; the chain length does not
    # change the work (the adaptive chain stays shorter than 16 here)
    verify = [_verify(theta, 2, c) for theta in ("inv-log-sq", PROFILE_EXPONENTS[1])
              for c in (16, 24)]
    box = [_entry("plancherel_box", ["plancherel-check", "--family", "box"])]
    # refusal: a declared-divergent profile, exit 2
    refusal = [_entry("light_checks", ["ingham-verify", "--theta", "inv-log"])]
    return [calibrate], [plan, verify, box, refusal]


def _convolve(width_sets):
    # the lambda grid only sizes the cheap spectral side of the check
    return [_entry("convolve", ["convolve-check", "--factors", f,
                                "--lambda-nodes", nodes])
            for f in width_sets for nodes in ("16", "24")]


def _convolution():
    # the default width set and one of about the same cost
    return [], [_convolve(("0.9,0.8,0.7,0.6", "0.9,0.6,0.6,0.8"))]


# workload -> () -> (ops run once at the start of a run, pass slots)
WORKLOADS = {
    "spectral": _spectral,
    "ball": _ball,
    "convolution": _convolution,
}

# Entries that --check-bytes and --record run but no timed pass draws: they
# have no partner of about the same cost in a slot, and a timed run has no
# room for a slot of their own.
CHECK_ONLY = (
    [_verify(theta, n, c) for theta, n in (("inv-sqrt", 1), (PROFILE_EXPONENTS[0], 1),
                                           ("inv-sqrt-strong", 1), ("inv-sqrt", 2))
     for c in (16, 24)]
    + _convolve(("0.7,0.9,0.8,0.5", "0.8,0.7,0.9,0.6", "0.6,0.6,0.9,0.9"))
)


def menu(workload):
    """Every distinct entry a workload can run, in a fixed order."""
    once, slots = WORKLOADS[workload]()
    seen = {}
    for e in once + [e for slot in slots for e in slot]:
        seen.setdefault(e["id"], e)
    return list(seen.values())


def all_entries():
    """Every entry with a reference: the workload menus and CHECK_ONLY."""
    out = {}
    for e in [e for w in WORKLOADS for e in menu(w)] + CHECK_ONLY:
        out.setdefault(e["id"], e)
    return list(out.values())


def once_ops(workload):
    """The ops a run of the workload runs once, before its passes."""
    return WORKLOADS[workload]()[0]


def pass_ops(workload, seed):
    """The op list of one pass: one entry per slot, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [rng.choice(slot) for slot in WORKLOADS[workload]()[1]]
    rng.shuffle(ops)
    return ops


def profile_config(exponent):
    """A convergent table profile Theta(y) = (1 + y)^(-p), as the JSON object
    that ``--theta PATH`` reads."""
    y = np.concatenate(([0.0], np.geomspace(1e-3, 1e12, 76)))
    return {"name": f"table-p{exponent}", "kind": "table",
            "declared_class": "convergent",
            "y": [float(v) for v in y],
            "theta": [float((1.0 + v) ** -exponent) for v in y]}


def op_argv(entry, out_path, profile_dir, fixtures_dir):
    """Concrete CLI arguments of a non-calibration entry."""
    argv = list(entry["argv"])
    if entry["profile"] is not None:
        argv[argv.index("--theta") + 1] = f"{profile_dir}/table-p{entry['profile']}.json"
    if entry["fixtures"]:
        argv += ["--fixtures", fixtures_dir]
    return argv + ["--out", out_path]


def write_profiles(profile_dir):
    for p in PROFILE_EXPONENTS:
        with open(f"{profile_dir}/table-p{p}.json", "w") as fh:
            json.dump(profile_config(p), fh, sort_keys=True)
