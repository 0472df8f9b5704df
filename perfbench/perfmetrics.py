"""Metric arithmetic for the end-to-end benchmark.

The driver (driver.cpp) reports raw solve records and, in a traced run,
spans. Everything computed from them lives here, so that
test_perfmetrics.py can check it without building the solver.
"""

import math
import statistics

GM_SHIFT_S = 0.1  # shift of solve_gm_s, fixed by the benchmark
TAIL_MIN_BEYOND = 10  # samples a reported percentile needs above it

STEP_SPANS = ("cip.step", "ugcip.step")

END_TO_END_UNITS = {
    "solve_s": "s",
    "solve_gm_s": "s",
    "makespan_vs": "vs",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "lp.iterations": "count",
    "lp.node_iters_max": "count",
    "lp.iters_per_node": "count",
    "lp.factorizations": "count",
    "lp.hyper_frac": "ratio",
    "cip.nodes": "count",
    "cip.root_s": "s",
    "cip.node_s.p50": "s",
    "cip.node_s.p95": "s",
    "cip.node_drops": "count",
    "cip.redcost_fixings": "count",
    "cip.cuts_added": "count",
    "cip.work_units": "count",
    "steiner.presolve_s": "s",
    "steiner.edges_deleted": "count",
    "steiner.sepa_s": "s",
    "steiner.sepa_frac": "ratio",
    "steiner.flow_solves": "count",
    "steiner.cuts_per_flow": "ratio",
    "steiner.pool_reject_frac": "ratio",
    "steiner.redprop_arcs_fixed": "count",
    "steiner.da_warm_frac": "ratio",
    "sdp.step_s.p50": "s",
    "sdp.step_s.p95": "s",
    "sdp.nodes": "count",
    "misdp.lp_step_s.p50": "s",
    "misdp.lp_iterations": "count",
    "misdp.raced_winner_frac": "ratio",
    "misdp.winner_sdp_frac": "ratio",
    "ug.self_s": "s",
    "ug.idle_ratio": "ratio",
    "ug.max_active": "count",
    "ug.ramp_up_vs": "vs",
    "ug.eff_16v4": "ratio",
    "ug.transferred_nodes": "count",
    "ug.collected_nodes": "count",
    "ug.share_admit_frac": "ratio",
    "ug.busy_vs": "vs",
    "ugcip.load_s": "s",
    "ugcip.step_s.p50": "s",
    "ugcip.step_s.p95": "s",
    "ugcip.share_s": "s",
    "ugcip.extract_s": "s",
    "trace.overhead_s": "s",
}


def ratio(num, den):
    """num / den, or 0.0 when den is 0 (no attempts means no share)."""
    return num / den if den else 0.0


def shifted_geomean(values, shift=GM_SHIFT_S):
    """exp(mean(log(v + shift))) - shift; 0.0 for no values."""
    if not values:
        return 0.0
    logs = [math.log(max(v, 0.0) + shift) for v in values]
    return math.exp(sum(logs) / len(logs)) - shift


def tail_ok(n, pct):
    """Whether percentile `pct` of n samples has at least ten beyond it."""
    return n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND


def percentile(values, pct):
    """Linear-interpolated percentile (numpy's default); 0.0 for none."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_time(span, children):
    """Span duration minus the part of it covered by its children.

    Spans are (start, end) pairs; children may overlap each other and are
    clipped to the parent, so concurrent children are not counted twice.
    """
    start, end = span
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(s, start), min(e, end)) for s, e in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def eff_16v4(makespans_at_4, makespans_at_16):
    """Parallel efficiency of 16 vs 4 solvers on equal instance sets:
    sum(makespan@4) * 4 / (sum(makespan@16) * 16); 1.0 means linear."""
    return ratio(sum(makespans_at_4) * 4, sum(makespans_at_16) * 16)


# ---------------------------------------------------------------------------
# Run-level aggregation.


def by_name(records):
    groups = {}
    for r in records:
        groups.setdefault(r["name"], []).append(r)
    return groups


def end_to_end(doc):
    """End-to-end metrics from the untraced records of one run."""
    groups = by_name(r for r in doc["records"] if not r["traced"])
    walls = [statistics.median(r["wall_s"] for r in g) for g in groups.values()]
    makespans = [statistics.median(r["makespan_vs"] for r in g)
                 for g in groups.values()]
    return {
        "solve_s": sum(walls),
        "solve_gm_s": shifted_geomean(walls),
        "makespan_vs": sum(makespans),
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def nondeterminism(records):
    """Names whose exact counters differ between any two of their solves."""
    bad = []
    for name, group in by_name(records).items():
        if any(r["exact"] != group[0]["exact"] for r in group[1:]):
            bad.append(name)
    return bad


def per_layer(doc, spans):
    """Per-layer metrics from the traced pass of a run.

    `spans` is the driver's span list: [name, start, end, parent,
    instance, lp_iters, tag]. Layers a workload bypasses report 0.
    """
    traced = [r for r in doc["records"] if r["traced"]]
    untraced = [r for r in doc["records"] if not r["traced"]]

    def total(key):
        return sum(r["layer"].get(key, 0.0) for r in traced)

    def layer(key):  # base-solver totals where the engine has none
        return total("base." + key) + total(key)

    def durations(name, tag=None):
        return [s[2] - s[1] for s in spans
                if s[0] == name and (tag is None or s[6] == tag)]

    steps = [s for s in spans if s[0] in STEP_SPANS]
    step_s = [s[2] - s[1] for s in steps]

    # Root time: set-up plus the first node of each solve.
    root_s = sum(durations("cip.init"))
    first_step = {}
    for s in steps:
        first_step.setdefault(s[4], s[2] - s[1])
    root_s += sum(first_step.values())

    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append((s[1], s[2]))
    ug_self = sum(self_time((s[1], s[2]), children.get(i, []))
                  for i, s in enumerate(spans) if s[0] == "ug.run")

    ug_recs = [r for r in traced if "ug.max_active" in r["layer"]]
    mk4 = [r["makespan_vs"] for r in traced if r["name"].endswith("@4")]
    mk16 = [r["makespan_vs"] for r in traced if r["name"].endswith("@16")]
    misdp = traced if doc["workload"] == "misdp-racing" else []
    winners = [r["layer"]["misdp.racing_winner"] for r in misdp
               if r["layer"].get("misdp.racing_winner", -1) >= 0]

    hyper, dense = total("lp.hyper_solves"), total("lp.dense_solves")
    sepa_s = layer("steiner.sepa_s")
    sepa_cuts = layer("steiner.sepa_cuts")
    rejects = layer("steiner.pool_rejects")
    traced_solve = sum(r["wall_s"] for r in traced)
    untraced_solve = sum(r["wall_s"] for r in untraced)

    m = {
        "lp.iterations": total("lp.iterations"),
        "lp.node_iters_max": max((s[5] for s in steps), default=0),
        "lp.iters_per_node": ratio(total("lp.iterations"), total("cip.nodes")),
        "lp.factorizations": total("lp.factorizations"),
        "lp.hyper_frac": ratio(hyper, hyper + dense),
        "cip.nodes": total("cip.nodes"),
        "cip.root_s": root_s,
        "cip.node_s.p50": percentile(step_s, 50),
        "cip.node_s.p95": percentile(step_s, 95),
        "cip.node_drops": layer("cip.node_drops"),
        "cip.redcost_fixings": total("cip.redcost_fixings"),
        "cip.cuts_added": layer("cip.cuts_added"),
        "cip.work_units": total("cip.work_units"),
        "steiner.presolve_s": sum(durations("steiner.presolve")),
        "steiner.edges_deleted": total("steiner.edges_deleted"),
        "steiner.sepa_s": sepa_s,
        "steiner.sepa_frac": ratio(sepa_s, sum(step_s)),
        "steiner.flow_solves": total("steiner.flow_solves"),
        "steiner.cuts_per_flow": ratio(sepa_cuts,
                                       total("steiner.flow_solves")),
        "steiner.pool_reject_frac": ratio(rejects, rejects + sepa_cuts),
        "steiner.redprop_arcs_fixed": total("steiner.redprop_arcs_fixed"),
        "steiner.da_warm_frac": ratio(layer("steiner.da_warm_starts"),
                                      layer("steiner.redprop_runs")),
        "sdp.step_s.p50": percentile(durations("ugcip.step", "sdp"), 50),
        "sdp.step_s.p95": percentile(durations("ugcip.step", "sdp"), 95),
        "sdp.nodes": total("base.sdp.cip.nodes"),
        "misdp.lp_step_s.p50": percentile(durations("ugcip.step", "lp"), 50),
        "misdp.lp_iterations": total("base.lp.lp.iterations"),
        "misdp.raced_winner_frac": ratio(len(winners), len(misdp)),
        "misdp.winner_sdp_frac": ratio(sum(1 for w in winners if w % 2 == 0),
                                       len(winners)),
        "ug.self_s": ug_self,
        "ug.idle_ratio": ratio(sum(r["layer"]["ug.idle_ratio"]
                                   for r in ug_recs), len(ug_recs)),
        "ug.max_active": ratio(sum(r["layer"]["ug.max_active"]
                                   for r in ug_recs), len(ug_recs)),
        "ug.ramp_up_vs": sum(max(r["layer"].get("ug.ramp_up_vs", 0.0), 0.0)
                             for r in ug_recs),
        "ug.eff_16v4": eff_16v4(mk4, mk16),
        "ug.transferred_nodes": total("ug.transferred_nodes"),
        "ug.collected_nodes": total("ug.collected_nodes"),
        "ug.share_admit_frac": ratio(total("ug.share_admitted"),
                                     total("ug.share_received")),
        "ug.busy_vs": total("ug.busy_vs"),
        "ugcip.load_s": sum(durations("ugcip.load")),
        "ugcip.step_s.p50": percentile(durations("ugcip.step"), 50),
        "ugcip.step_s.p95": percentile(durations("ugcip.step"), 95),
        "ugcip.share_s": sum(durations("ugcip.share")),
        "ugcip.extract_s": sum(durations("ugcip.extract")),
        "trace.overhead_s": traced_solve - untraced_solve,
    }
    tails = {
        "cip.node_s.p95": len(step_s),
        "sdp.step_s.p95": len(durations("ugcip.step", "sdp")),
        "ugcip.step_s.p95": len(durations("ugcip.step")),
    }
    return m, tails
