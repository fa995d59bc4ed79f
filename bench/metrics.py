"""Metric definitions: end-to-end from the timed pass, per-layer from spans.

The names and units here are the ones `BENCHMARK.json` declares.  Every
workload reports every metric; a per-layer metric of a layer the workload
never calls reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from tracing import LAYERS

#: (name, unit) of the end-to-end metrics, all lower-is-better.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("long_op_s", "s"),
)

#: per-call medians: metric -> (span name, scale, unit)
PER_CALL = {
    "core_model.eval_coupling_vec_us": ("core_model.eval_coupling.vec", 1e6, "us"),
    "core_model.eval_coupling_grid_us": ("core_model.eval_coupling.grid", 1e6, "us"),
    "core_model.series_vstar_us": ("core_model.series_vstar", 1e6, "us"),
    "existence.gamma0_roots_ms": ("existence.gamma0_roots", 1e3, "ms"),
    "existence.gamma0_taylor_us": ("existence.gamma0_taylor", 1e6, "us"),
    "existence.front_profile_ms": ("existence.front_profile", 1e3, "ms"),
    "evans.evans_roots_ms": ("evans.evans_roots", 1e3, "ms"),
    "evans.evans_eval_us": ("evans.evans_eval", 1e6, "us"),
    "evans.evans_taylor_c0_us": ("evans.evans_taylor_c0", 1e6, "us"),
    "designer.design_evans_degeneracy_us": ("designer.design_evans_degeneracy", 1e6, "us"),
    "designer.design_gamma_degeneracy_us": ("designer.design_gamma_degeneracy", 1e6, "us"),
    "designer.linear_unfolding_map_us": ("designer.linear_unfolding_map", 1e6, "us"),
    "designer.imprint_scalar_singularity_us": ("designer.imprint_scalar_singularity",
                                               1e6, "us"),
    "designer.vandermonde_solve_us": ("designer.vandermonde_solve", 1e6, "us"),
    "jordan_chain.chain_profile_us": ("jordan_chain.chain_profile", 1e6, "us"),
    "jordan_chain.verify_chain_ode_ms": ("jordan_chain.verify_chain_ode", 1e3, "ms"),
    "jordan_chain.eigenfunction_c0_us": ("jordan_chain.eigenfunction_c0", 1e6, "us"),
    "speed_ode.shilnikov_shoot_s": ("speed_ode.shilnikov_shoot", 1.0, "s"),
    "speed_ode.integrate_ms": ("speed_ode.integrate", 1e3, "ms"),
    "speed_ode.lyapunov_max_s": ("speed_ode.lyapunov_max", 1.0, "s"),
    "speed_ode.equilibria_us": ("speed_ode.equilibria_and_classification", 1e6, "us"),
    "pde_sim.spectrum_ms": ("pde_sim.linearization_spectrum", 1e3, "ms"),
}

#: calls per traced round: metric -> span name
PER_ROUND_CALLS = {
    "existence.gamma0_roots_calls": "existence.gamma0_roots",
    "evans.evans_roots_calls": "evans.evans_roots",
}

#: (N, n_x) grids the simulations use
STEP_GRIDS = ((1, 401), (1, 901), (3, 2001))

#: counts read off returned objects, reported by the workloads' checks
COUNTERS = (
    ("existence.planted_root_recall", "ratio"),
    ("evans.winding_resolved_ratio", "ratio"),
    ("speed_ode.shoot_ok_ratio", "ratio"),
    ("speed_ode.rhs_evals_per_integrate", "count"),
    ("pde_sim.newton_iterations", "count"),
    ("pde_sim.branch_points", "count"),
    ("pde_sim.continue_truncations", "count"),
)

#: derived from spans and counters together, or about the trace itself
DERIVED = (
    ("pde_sim.simulate_s", "s"),
    ("pde_sim.newton_ms", "ms"),
    ("pde_sim.continue_point_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_time_share", "ratio"),
    ("bench.self_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [(name, unit) for name, (_s, _k, unit) in PER_CALL.items()]
    names += [(name, "count") for name in PER_ROUND_CALLS]
    names += [(f"pde_sim.step_us.n{n}_nx{nx}", "us") for n, nx in STEP_GRIDS]
    names += list(COUNTERS) + list(DERIVED)
    return names


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class Timings:
    """(role, start, end) of each item of one round's work list, in order.

    An item's role names what it belongs to: "op" (the workload's unit
    operations), "long" (its long operation), both ("op+long") or neither
    ("other").  Rounds repeat the same list, so item i of every round is the
    same call on the same inputs.
    """

    def __init__(self):
        self.items = []

    @contextmanager
    def time(self, role: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.items.append((role, t0, time.perf_counter()))


def _has(role, part):
    return part in role.split("+")


def item_repeats(rounds):
    """(roles, repeats): each work-list item's role and its repeats.

    `rounds` holds, per round, the work list's items as (role, seconds of
    work, probe kernel times sampled during it; see probe.py); an item's
    repeats are its (seconds, kernel times) over the rounds.
    """
    roles = [role for role, _w, _ds in rounds[0]]
    return roles, [[(r[i][1], r[i][2]) for r in rounds] for i in range(len(roles))]


def end_to_end(values, long_count, setup_s, peak_rss_mib):
    """End-to-end values of one run from its items' (role, seconds): the sum,
    and the median and 90th percentile over the operations."""
    ops = [v for role, v in values if _has(role, "op")]
    return {
        "wall_s": sum(v for _role, v in values),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_p90_ms": 1e3 * percentile(ops, 90.0),
        "long_op_s": sum(v for role, v in values if _has(role, "long")) / long_count,
    }


def per_layer(tracer, traced_walls, span_cost, counters):
    """Per-layer values from the spans of the traced rounds and set-up.

    The tracing overhead is the spans of a round times the measured cost of
    one span: a round's wall time varies by more than that between rounds.
    The self-time share is the part of the traced wall time spent inside
    frontlab's layers rather than in the benchmark's own code between calls.
    """
    spans_self = tracer.self_times()
    durations = defaultdict(list)
    self_by_layer = defaultdict(float)
    steps = defaultdict(lambda: [0.0, 0])
    round_traces = set()
    for span, self_s in spans_self:
        name = span["name"]
        durations[name].append(span["end"] - span["start"])
        if name == "bench.round":
            round_traces.add(span["trace"])
        if span["trace"] in round_traces or name == "bench.round":
            prefix = name.split(".")[0]
            self_by_layer[prefix] += self_s
        if name == "pde_sim.simulate":
            acc = steps[(span["n"], span["nx"])]
            acc[0] += span["end"] - span["start"]
            acc[1] += span["steps"]
    rounds = max(len(traced_walls), 1)
    out = {}
    for metric, (span_name, scale, _unit) in PER_CALL.items():
        vals = durations.get(span_name)
        out[metric] = scale * statistics.median(vals) if vals else 0.0
    for metric, span_name in PER_ROUND_CALLS.items():
        out[metric] = _count_in_rounds(spans_self, span_name, round_traces) / rounds
    for n, nx in STEP_GRIDS:
        seconds, count = steps[(n, nx)]
        out[f"pde_sim.step_us.n{n}_nx{nx}"] = 1e6 * seconds / count if count else 0.0
    for name, _unit in COUNTERS:
        out[name] = float(counters.get(name, 0.0))
    simulate = [s for s, _ in spans_self
                if s["name"] == "pde_sim.simulate" and s["trace"] in round_traces]
    out["pde_sim.simulate_s"] = sum(s["end"] - s["start"] for s in simulate) / rounds
    newton = durations.get("pde_sim.solve_stationary_front", []) + \
        durations.get("pde_sim.solve_travelling_front", [])
    out["pde_sim.newton_ms"] = 1e3 * statistics.median(newton) if newton else 0.0
    cont = durations.get("pde_sim.continue_branch")
    points = counters.get("pde_sim.branch_points", 0.0)
    out["pde_sim.continue_point_s"] = (statistics.median(cont) / points
                                       if cont and points else 0.0)
    traced = statistics.median(traced_walls)
    out["trace.wall_s"] = traced
    spans = sum(1 for s, _ in spans_self if s["trace"] in round_traces)
    out["trace.overhead_s"] = span_cost * spans / rounds
    out["trace.self_time_share"] = (sum(self_by_layer[layer] for layer in LAYERS)
                                    / sum(traced_walls))
    for layer in ("bench",) + LAYERS:
        out[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0) / rounds
    return out


def _count_in_rounds(spans_self, name, traces):
    return sum(1 for s, _ in spans_self if s["name"] == name and s["trace"] in traces)
