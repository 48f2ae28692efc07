"""Op outcomes and their check against the recorded references.

An outcome is the exit status, the headline values of the op's report and
the sha256 of every file the op wrote.  An op fails when its exit status
or any headline value disagrees with the reference of its menu entry.
Byte digests are compared separately: they are informational in a timed
run and the whole point of ``run.py --check-bytes``.

Headline floats must agree within ``ATOL + RTOL * |reference|``.  The
tightest tolerance the program itself checks a headline value against is
the Plancherel 1e-4, so this is at least ten thousand times tighter than
any check.
"""

import hashlib
import json
import os

ATOL = 1e-8
RTOL = 1e-6


def digests(directory):
    """sha256 of every regular file in a directory, by file name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _load(directory, name):
    with open(os.path.join(directory, name)) as fh:
        return json.load(fh)


def _report_headline(report):
    cmd = report.get("command")
    head = {"pass": report.get("pass")}
    if cmd == "plancherel-check":
        head["rel_error"] = {r["family"]: r["rel_error"] for r in report["rows"]}
    elif cmd in ("dilate-check", "convolve-check"):
        head["max_rel_error"] = report["max_rel_error"]
    elif cmd == "ingham-plan":
        head["violations"] = report["factor_bound"]["violations"]
        head["max_ratio"] = report["factor_bound"]["max_ratio"]
    elif cmd == "carleman":
        head["rows"] = [[r["m"], r["log_norm"], r["carleman_term"],
                         r["partial_sum"], r["bound_ratio"]]
                        for r in report["rows"]]
    elif cmd == "laguerre-check":
        head["envelope_violations"] = report["envelope"]["violations"]
        head["envelope_max_ratio"] = report["envelope"]["max_ratio"]
    elif cmd == "gamma-bound-check":
        head["ratios"] = [r["ratio"] for r in report["rows"]]
    elif cmd == "symmdiff-check":
        head["bound_violations"] = [r["bound_violations"] for r in report["rows"]]
        head["max_bound_ratio"] = [r["max_bound_ratio"] for r in report["rows"]]
    elif "max_log_q" in report:
        # ingham-verify writes the verify_decay report, which has no command
        head["max_log_q"] = report["max_log_q"]
        head["C"] = report["C"]
    return head


def headline(entry, directory):
    """Headline values of what an op left in its output directory."""
    if entry["calibrate"]:
        env = _load(directory, "lemma21_constants.json")
        fac = _load(directory, "box_factor_envelope.json")
        gap = _load(directory, "chain_gap_constants.json")
        return {"C_fit": env["C_fit"], "gamma_fit": env["gamma_fit"],
                "c_n": fac["c_n"], "C": gap["C"]}
    if not os.path.exists(os.path.join(directory, "report.json")):
        return {}
    return _report_headline(_load(directory, "report.json"))


def outcome(entry, exit_code, directory):
    return {"exit": exit_code, "headline": headline(entry, directory),
            "files": digests(directory)}


def value_diffs(got, ref, path=""):
    """Places where got differs from ref beyond the headline tolerance."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref and type(got) is type(ref) else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} != {ref!r}"]
        if isinstance(ref, int) and isinstance(got, int):
            return [] if got == ref else [f"{path}: {got} != {ref}"]
        if abs(got - ref) <= ATOL + RTOL * abs(ref):
            return []
        return [f"{path}: {got!r} moved from {ref!r}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(ref)}"]
        return [d for k in sorted(ref) for d in value_diffs(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: {got!r} != {ref!r}"]
        return [d for i, (g, r) in enumerate(zip(got, ref))
                for d in value_diffs(g, r, f"{path}[{i}]")]
    raise TypeError(f"unexpected reference value at {path}: {ref!r}")


def check(got, ref):
    """Reasons an outcome fails its reference; empty when it passes."""
    if ref is None:
        return ["no reference recorded"]
    problems = []
    if got["exit"] != ref["exit"]:
        problems.append(f"exit {got['exit']} != {ref['exit']}")
    if sorted(got["files"]) != sorted(ref["files"]):
        problems.append(f"files {sorted(got['files'])} != {sorted(ref['files'])}")
    problems += value_diffs(got["headline"], ref["headline"], "headline")
    return problems


def moved_files(got, ref):
    """Files whose bytes differ from the reference digests."""
    names = sorted(set(got["files"]) | set(ref["files"]))
    return [n for n in names if got["files"].get(n) != ref["files"].get(n)]
