"""Per-layer metrics: the wrap targets, their counters, and the arithmetic
that turns recorded spans into busy and self times.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span in the same op, or -1.  Times are ``time.perf_counter``
seconds inside one op process.
"""

import statistics

# (module, attribute, span name).  Several targets may share one span name.
TARGETS = (
    ("heisharm.laguerre", "normalized_laguerre_table", "laguerre.table"),
    ("heisharm.laguerre", "orthonormality_defect", "laguerre.orthonormality_defect"),
    ("heisharm.laguerre", "envelope_values", "laguerre.envelope_values"),
    ("heisharm.grids", "radial_rule", "grids.radial_rule"),
    ("heisharm.grids", "roots_legendre", "grids.gauss_rule"),
    ("heisharm.laguerre", "roots_genlaguerre", "grids.gauss_rule"),
    ("numpy.polynomial.legendre", "leggauss", "grids.gauss_rule"),
    ("heisharm.transform", "forward_radial", "transform.forward_radial"),
    ("heisharm.transform", "transform_at_lambda", "transform.transform_at_lambda"),
    ("heisharm.transform", "box_pair_convolution", "transform.box_pair_convolution"),
    ("heisharm.transform", "box_convolution_coefficients",
     "transform.box_convolution_coefficients"),
    ("heisharm.transform", "dilate_coeffs", "transform.dilate_coeffs"),
    ("heisharm.ingham", "factor_coeff_table", "ingham.factor_coeff_table"),
    ("heisharm.ingham", "verify_decay", "ingham.verify_decay"),
    ("heisharm.ingham", "factor_bound_check", "ingham.factor_bound_check"),
    ("heisharm.ingham", "calibrate_cn", "ingham.calibrate_cn"),
    ("heisharm.ingham", "cauchy_gap", "ingham.cauchy_gap"),
    ("heisharm.chernoff", "sublaplacian_norms", "chernoff.sublaplacian_norms"),
    ("heisharm.chernoff", "ingham_norm_bound_check", "chernoff.ingham_norm_bound_check"),
    ("heisharm.calibrate", "calibrate_envelope", "calibrate.calibrate_envelope"),
    ("heisharm.calibrate", "calibrate_factor_bound", "calibrate.calibrate_factor_bound"),
    ("heisharm.calibrate", "calibrate_chain_gap", "calibrate.calibrate_chain_gap"),
    ("heisharm.calibrate", "envelope_check", "calibrate.envelope_check"),
    ("heisharm.parallel", "deterministic_map", "parallel.map"),
    ("heisharm.fixtures", "load_fixture", "fixtures.load_fixture"),
    ("heisharm.jsonio", "write_json", "jsonio.write_json"),
)

# spans the launcher itself opens around the import and the op body
IMPORT_SPAN = "cli.import"
DISPATCH_SPAN = "cli.dispatch"


def _size(x):
    try:
        return int(x.size)
    except AttributeError:
        return len(x) if hasattr(x, "__len__") else 1


def _table_cells(a, result):
    return "laguerre.table_cells", (int(a["kmax"]) + 1) * _size(a["r"])


def _radial_nodes(a, result):
    return "grids.radial_nodes", _size(result[0])


def _forward_columns(a, result):
    passes = 2 if a.get("check", True) else 1
    return "transform.forward_columns", passes * _size(a["grid"].lam)


def _box_points(a, result):
    return "transform.box_pair_convolution_points", _size(result)


def _map_items(a, result):
    return "parallel.map_items", len(result)


def _bytes_written(a, result):
    return "jsonio.bytes_written", len(result.encode("utf-8"))


def factor_key(a):
    """The argument tuple that decides a factor_coeff_table result."""
    return (float(a["s"]), int(a["k_max"]), int(a["n"]),
            int(a.get("nodes_per_panel", 64)))


# counter hooks: span name -> fn(bound arguments, result) -> (counter, amount)
COUNTERS = {
    "laguerre.table": _table_cells,
    "grids.radial_rule": _radial_nodes,
    "transform.forward_radial": _forward_columns,
    "transform.box_pair_convolution": _box_points,
    "parallel.map": _map_items,
    "jsonio.write_json": _bytes_written,
}

# every per-layer metric: name -> (unit, source, span name[, counter])
#   calls:   number of spans of that name
#   busy:    union of the spans' intervals, seconds
#   self:    busy time minus the part covered by direct child spans
#   counter: a counter the tracer accumulated under that span
#   ratio:   counter / calls
METRICS = {
    "laguerre.table_calls": ("count", "calls", "laguerre.table"),
    "laguerre.table_cells": ("count", "counter", "laguerre.table", "laguerre.table_cells"),
    "laguerre.table_s": ("s", "busy", "laguerre.table"),
    "laguerre.orthonormality_defect_s": ("s", "busy", "laguerre.orthonormality_defect"),
    "laguerre.envelope_values_calls": ("count", "calls", "laguerre.envelope_values"),
    "laguerre.envelope_values_s": ("s", "busy", "laguerre.envelope_values"),
    "grids.radial_rule_calls": ("count", "calls", "grids.radial_rule"),
    "grids.radial_nodes": ("count", "counter", "grids.radial_rule", "grids.radial_nodes"),
    "grids.radial_rule_s": ("s", "busy", "grids.radial_rule"),
    "grids.gauss_rule_builds": ("count", "calls", "grids.gauss_rule"),
    "grids.gauss_rule_s": ("s", "busy", "grids.gauss_rule"),
    "transform.forward_radial_calls": ("count", "calls", "transform.forward_radial"),
    "transform.forward_columns": ("count", "counter", "transform.forward_radial",
                                  "transform.forward_columns"),
    "transform.forward_radial_s": ("s", "busy", "transform.forward_radial"),
    "transform.transform_at_lambda_calls": ("count", "calls", "transform.transform_at_lambda"),
    "transform.transform_at_lambda_self_s": ("s", "self", "transform.transform_at_lambda"),
    "transform.box_pair_convolution_points": ("count", "counter",
                                              "transform.box_pair_convolution",
                                              "transform.box_pair_convolution_points"),
    "transform.box_pair_convolution_s": ("s", "busy", "transform.box_pair_convolution"),
    "transform.box_convolution_coefficients_s": ("s", "busy",
                                                 "transform.box_convolution_coefficients"),
    "transform.dilate_coeffs_s": ("s", "busy", "transform.dilate_coeffs"),
    "ingham.factor_coeff_table_calls": ("count", "calls", "ingham.factor_coeff_table"),
    "ingham.factor_coeff_table_distinct": ("count", "counter", "ingham.factor_coeff_table",
                                           "ingham.factor_coeff_table_distinct"),
    "ingham.factor_table_useful_ratio": ("ratio", "ratio", "ingham.factor_coeff_table",
                                         "ingham.factor_coeff_table_distinct"),
    "ingham.factor_coeff_table_s": ("s", "busy", "ingham.factor_coeff_table"),
    "ingham.verify_decay_s": ("s", "busy", "ingham.verify_decay"),
    "ingham.factor_bound_check_s": ("s", "busy", "ingham.factor_bound_check"),
    "ingham.calibrate_cn_s": ("s", "busy", "ingham.calibrate_cn"),
    "ingham.cauchy_gap_s": ("s", "busy", "ingham.cauchy_gap"),
    "chernoff.sublaplacian_norms_s": ("s", "busy", "chernoff.sublaplacian_norms"),
    "chernoff.ingham_norm_bound_check_s": ("s", "busy", "chernoff.ingham_norm_bound_check"),
    "calibrate.calibrate_envelope_s": ("s", "busy", "calibrate.calibrate_envelope"),
    "calibrate.calibrate_factor_bound_s": ("s", "busy", "calibrate.calibrate_factor_bound"),
    "calibrate.calibrate_chain_gap_s": ("s", "busy", "calibrate.calibrate_chain_gap"),
    "calibrate.envelope_check_s": ("s", "busy", "calibrate.envelope_check"),
    "parallel.map_calls": ("count", "calls", "parallel.map"),
    "parallel.map_items": ("count", "counter", "parallel.map", "parallel.map_items"),
    "cli.import_s": ("s", "busy", IMPORT_SPAN),
    "cli.dispatch_s": ("s", "busy", DISPATCH_SPAN),
    "fixtures.load_fixture_calls": ("count", "calls", "fixtures.load_fixture"),
    "fixtures.load_fixture_s": ("s", "busy", "fixtures.load_fixture"),
    "jsonio.write_json_calls": ("count", "calls", "jsonio.write_json"),
    "jsonio.bytes_written": ("bytes", "counter", "jsonio.write_json", "jsonio.bytes_written"),
    "jsonio.write_json_s": ("s", "busy", "jsonio.write_json"),
}


def union_length(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_totals(spans):
    """Per span name: (calls, busy seconds, self seconds)."""
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    by_name = {}
    for i, (name, lo, hi, _) in enumerate(spans):
        covered = union_length(children.get(i, ()))
        entry = by_name.setdefault(name, [0, [], 0.0])
        entry[0] += 1
        entry[1].append((lo, hi))
        entry[2] += max(0.0, (hi - lo) - covered)
    return {name: (calls, union_length(iv), self_s)
            for name, (calls, iv, self_s) in by_name.items()}


def span_targets():
    """Span name -> the wrap targets that feed it."""
    out = {}
    for module, attr, name in TARGETS:
        out.setdefault(name, []).append(f"{module}.{attr}")
    return out


def op_metrics(trace):
    """Per-layer metrics of one op from its trace record
    ({"spans", "counters", "absent"}).  A metric whose every wrap target
    was absent from the program is left out; a ratio is returned as its
    (numerator, denominator) pair so that passes can sum it."""
    totals = span_totals(trace["spans"])
    counters = trace["counters"]
    absent = set(trace["absent"])
    feeds = span_targets()
    out = {}
    for metric, (_, source, span, *counter) in METRICS.items():
        targets = feeds.get(span, ())
        if targets and set(targets) <= absent:
            continue
        calls, busy, self_s = totals.get(span, (0, 0.0, 0.0))
        if source == "calls":
            out[metric] = calls
        elif source == "busy":
            out[metric] = busy
        elif source == "self":
            out[metric] = self_s
        elif source == "counter":
            out[metric] = counters.get(counter[0], 0)
        else:
            out[metric] = (counters.get(counter[0], 0), calls)
    return out


def pass_metrics(op_traces):
    """Sum the per-op metrics of one pass.  Ratios are summed as
    (numerator, denominator) and divided at the end; a ratio whose
    denominator is 0 is left out."""
    summed = {}
    for trace in op_traces:
        for metric, value in op_metrics(trace).items():
            if isinstance(value, tuple):
                num, den = summed.get(metric, (0, 0))
                summed[metric] = (num + value[0], den + value[1])
            else:
                summed[metric] = summed.get(metric, 0) + value
    out = {}
    for metric, value in summed.items():
        if isinstance(value, tuple):
            if value[1]:
                out[metric] = value[0] / value[1]
        else:
            out[metric] = value
    return out


def median_metrics(per_pass):
    """Median over passes of each metric present in every pass; a count
    stays a whole number (the lower median)."""
    if not per_pass:
        return {}
    names = set(per_pass[0]).intersection(*per_pass[1:])
    out = {}
    for m in sorted(names):
        values = [p[m] for p in per_pass]
        whole = all(isinstance(v, int) for v in values)
        out[m] = (statistics.median_low if whole else statistics.median)(values)
    return out
