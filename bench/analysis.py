"""`analysis` workload: the scalar singular-limit path.

One round is a fixed list: a batch of studies (one parameter set taken
through Gamma0 roots and Taylor series, E0 roots, designer solves and chain
profiles), two Shil'nikov sweeps that bisect to a homoclinic candidate, one
sweep without a sign change, one long `integrate` and one `lyapunov_max` on a
periodic orbit.  It never reaches `pde_sim`.

Study kinds, with inputs drawn from the seed unless stated:

* `n3`: N = 3 couplings off the designed fourfold point, |delta| in
  [1e-3, 1e-2] (criterion-11 style);
* `ref`: the three reference sets of `frontlab.verify` (fixed);
* `planted`: N = 1 quartic couplings with five planted speeds on (-3, 3),
  pairwise at least 0.25 apart and no other root of Gamma0 nearer;
* `imprint`: N = 1 imprinting round trips, each with a criterion-1
  Vandermonde node set;
* `fault`: four fixed N = 1 planted sets on which `gamma0_roots` is wrong
  today: two with a pair of speeds 0.02 and 0.03 apart that the scan
  resolves as one root, one with a simple root that comes back twice, and
  one with a planted double root that comes back once, off and simple.  Each
  counts as a failed operation while the fault it shows is there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks as ck
import reference as ref
from metrics import Timings

N3_TAU = (1.0, 2.25, 2.89)
N3_D = (1.0, 1.5, 1.7)
#: criterion 12's tau/d; at tau/d = 0.5 gamma0_roots reports a simple root
#: twice on some draws, which FAULTS shows on a fixed set instead
PLANTED_TAU, PLANTED_D = 1.6, 1.0
#: Fixed planted sets (speeds, planted double speed or None) that
#: gamma0_roots gets wrong at tau/d = 0.5: 0.32 and 0.13 are lost next to
#: 0.30 and 0.10 (one scan cell holds both), -0.38 comes back twice about
#: 1e-9 apart (the polish stops where Gamma0 is flat), and the double root
#: at -1.22 comes back 1e-5 off with multiplicity 1.
FAULT_TAU, FAULT_D = 0.5, 1.0
FAULTS = (((-1.5, 0.30, 0.32, 1.2, 2.0), None),
          ((-1.0, 0.10, 0.13, 0.9, 1.7), None),
          ((-0.64, -0.38, -0.06, 1.49, 2.57), None),
          ((-2.66, -1.22, -0.15, 0.79), -1.22))
SPEED_WINDOW = (-3.0, 3.0)
#: Criterion 10: a sweep with a sign change, its fixed neighbour, and a sweep
#: without one.  Bisection cost depends on where the root falls, so the swept
#: coefficients are fixed rather than drawn from the seed.
SWEEPS = (((-1.0, -1.0, -0.6), (-1.0, -0.25)),
          ((-1.0, -0.97, -0.6), (-1.0, -0.25)))
FLAT_SWEEP = ((-1.0, -0.5, -1.6), (-2.0, -1.25))
SHOOT_TOL = 1e-6
ORBIT = (-1.0, -0.5, -3.9)


@dataclass(frozen=True)
class Sizes:
    n3: int = 30
    planted: int = 30
    imprint: int = 35
    settle_t: float = 300.0
    lyapunov_t: float = 100.0


SMOKE = Sizes(n3=2, planted=2, imprint=2, settle_t=100.0, lyapunov_t=40.0)


class CountingODE:
    """Delegates to a speed ODE and counts right-hand-side evaluations."""

    def __init__(self, ode):
        self.ode = ode
        self.rhs_evals = 0

    def field_at(self, c):
        self.rhs_evals += 1
        return self.ode.field_at(c)

    def __getattr__(self, name):
        return getattr(self.ode, name)


@dataclass
class Inputs:
    seed: int
    sizes: Sizes
    fl: object
    n3: list = field(default_factory=list)          # deltas
    planted: list = field(default_factory=list)     # (speeds, Model)
    faults: list = field(default_factory=list)      # (speeds, double, Model)
    imprint: list = field(default_factory=list)     # (targets, nodes, b)
    refs: list = field(default_factory=list)


def _planted_speeds(rng):
    """Five speeds on (-2.7, 2.7), gaps >= 0.25, no unplanted root nearby."""
    while True:
        speeds = np.sort(rng.uniform(-2.7, 2.7, 5))
        if np.min(np.diff(speeds)) < 0.25:
            continue
        model = ref.planted_coupling(PLANTED_TAU, PLANTED_D, speeds)
        roots = ref.scan_roots(model, *SPEED_WINDOW, step=5e-3)
        if len(roots) > 1 and np.min(np.diff(roots)) < 0.25:
            continue
        return [float(c) for c in speeds], model


def _node_set(rng):
    """Criterion-1 draw: jittered lattice on [0.5, 5], gaps >= 0.05."""
    while True:
        n = int(rng.integers(2, 9))
        slot = 4.5 / (n - 1)
        nodes = np.clip(np.sort(np.linspace(0.5, 5.0, n)
                                + rng.uniform(-0.35, 0.35, n) * slot), 0.5, 5.0)
        if np.min(np.diff(nodes)) < 0.05:
            continue
        b = float(rng.uniform(-4.0, 4.0))
        if abs(b) >= 0.1:
            return nodes, b


def setup(seed, lib, fl, smoke=False) -> Inputs:
    sizes = SMOKE if smoke else Sizes()
    rng = np.random.default_rng(seed)
    inputs = Inputs(seed=seed, sizes=sizes, fl=fl)
    # log-stratified magnitudes keep the batch's cost spread the same on
    # every seed; directions and positions within strata are drawn
    for i in range(sizes.n3):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        exponent = -3.0 + (i + rng.uniform()) / sizes.n3
        inputs.n3.append(10.0 ** exponent * direction)
    for _ in range(sizes.planted):
        inputs.planted.append(_planted_speeds(rng))
    for speeds, double in FAULTS:
        inputs.faults.append((list(speeds), double,
                              ref.planted_coupling(FAULT_TAU, FAULT_D, speeds, double)))
    for _ in range(sizes.imprint):
        order = int(rng.integers(1, 7))
        targets = rng.uniform(-1.0, 1.0, order + 1)
        inputs.imprint.append((targets, *_node_set(rng)))
    inputs.refs = fl.verify.reference_parameter_sets()
    return inputs


# -- studies --------------------------------------------------------------------

def _study_n3(lib, fl, delta):
    params = fl.SystemParams(epsilon=0.03, tau=N3_TAU, d=N3_D)
    base = lib.designer.design_evans_degeneracy(params)
    coupling = fl.Coupling(0.0, tuple(base + delta), (0.0,) * 3)
    base_coupling = fl.Coupling(0.0, tuple(base), (0.0,) * 3)
    out = {"kind": "n3", "params": params, "coupling": coupling, "delta": delta,
           "base": base}
    out["roots"] = lib.existence.gamma0_roots(params, coupling)
    out["taylor"] = lib.existence.gamma0_taylor(params, coupling, 7)
    out["vstar_series"] = [lib.core_model.series_vstar(params, j, 7) for j in (1, 2, 3)]
    out["plateau_values"] = [
        (r, lib.core_model.eval_coupling(coupling, lib.existence.v_star(params, r)))
        for r, _m in out["roots"]]
    abar = lib.designer.linear_unfolding_map(params, delta)
    out["predicted"] = lib.designer.unfolding_polynomial_roots(abar)
    radius = 4.0 * float(np.max(np.abs(out["predicted"])))
    ctx = lib.evans.evans_context(params, coupling, 0.0)
    out["evans"] = lib.evans.evans_roots(ctx, (-radius, radius, -radius, radius))
    out["evans_values"] = [lib.evans.evans_eval(ctx, z) for z, _m in out["evans"].roots]
    out["evans_taylor"] = lib.evans.evans_taylor_c0(params, base_coupling, 4)
    out["chains"] = [lib.jordan_chain.chain_profile(params, base_coupling, k, 3)
                     for k in (1, 2, 3)]
    out["jordan"] = [lib.jordan_chain.jordan_poly(k, params.tau[2], params.d[2])
                     for k in (0, 1, 2, 3)]
    out["chain_ode"] = lib.jordan_chain.verify_chain_ode(out["jordan"][3], out["jordan"][2])
    return out


def _study_ref(lib, fl, item):
    name, params, coupling, (order, mult) = item
    out = {"kind": "ref", "name": name, "params": params, "coupling": coupling,
           "order": order, "mult": mult}
    out["roots"] = lib.existence.gamma0_roots(params, coupling)
    out["taylor"] = lib.existence.gamma0_taylor(params, coupling, order)
    out["design"] = lib.designer.design_gamma_degeneracy(params, order)
    out["evans_taylor"] = lib.evans.evans_taylor_c0(params, coupling, mult)
    ctx = lib.evans.evans_context(params, coupling, 0.0)
    out["evans"] = lib.evans.evans_roots(ctx, (-0.05, 0.05, -0.05, 0.05))
    out["chains"] = [lib.jordan_chain.chain_profile(params, coupling, k, mult - 1)
                     for k in range(1, mult)]
    return out


def _study_planted(lib, fl, speeds, model, kind="planted", double=None):
    params = fl.SystemParams(epsilon=0.05, tau=model.tau, d=model.d)
    coupling = fl.Coupling(model.gamma, model.alpha, model.beta, model.higher)
    out = {"kind": kind, "params": params, "coupling": coupling, "speeds": speeds,
           "double": double, "model": model}
    out["roots"] = lib.existence.gamma0_roots(params, coupling, interval=SPEED_WINDOW)
    out["taylor"] = lib.existence.gamma0_taylor(params, coupling, 6)
    out["plateau_values"] = [
        (r, lib.core_model.eval_coupling(coupling, lib.existence.v_star(params, r)))
        for r, _m in out["roots"]]
    c = speeds[-1]
    out["evans_c"] = c
    ctx = lib.evans.evans_context(params, coupling, c)
    out["evans"] = lib.evans.evans_roots(ctx, (-0.5, 2.5, -1.5, 1.5))
    out["evans_values"] = [lib.evans.evans_eval(ctx, z) for z, _m in out["evans"].roots]
    return out


def _study_imprint(lib, fl, targets, nodes, b):
    params = fl.SystemParams(epsilon=0.05, tau=(PLANTED_TAU,), d=(PLANTED_D,))
    out = {"kind": "imprint", "params": params, "targets": targets, "nodes": nodes, "b": b}
    out["coupling"] = lib.designer.imprint_scalar_singularity(params, targets)
    out["taylor"] = lib.existence.gamma0_taylor(params, out["coupling"], len(targets) - 1)
    out["x"] = lib.designer.vandermonde_solve(nodes, b)
    return out


def _sweep(lib, fl, coeffs, span, kind):
    lam, mu, nu = coeffs
    nf = fl.speed_ode.ScaledNF.shilnikov(lam, mu, nu, a11=1.0)
    sweep = np.linspace(span[0], span[1], 7)
    out = {"kind": kind, "nf": nf}
    out["result"] = lib.speed_ode.shilnikov_shoot(nf, sweep, tol=SHOOT_TOL, t_max=300.0)
    out["equilibria"] = lib.speed_ode.equilibria_and_classification(nf)
    return out


def run_round(inputs: Inputs, lib):
    """One pass over the fixed work list; returns outputs and timings."""
    fl = inputs.fl
    timings = Timings()
    studies = []

    def study(kind, fn, *args):
        with lib.span(f"bench.study.{kind}"), timings.time("op"):
            studies.append(fn(lib, fl, *args))

    for item in inputs.refs:
        study("ref", _study_ref, item)
    for delta in inputs.n3:
        study("n3", _study_n3, delta)
    for speeds, model in inputs.planted:
        study("planted", _study_planted, speeds, model)
    for speeds, double, model in inputs.faults:
        study("fault", _study_planted, speeds, model, "fault", double)
    for targets, nodes, b in inputs.imprint:
        study("imprint", _study_imprint, targets, nodes, b)

    sweeps = []
    for coeffs, span in SWEEPS:
        with lib.span("bench.sweep"), timings.time("long"):
            sweeps.append(_sweep(lib, fl, coeffs, span, "bisect"))
    with lib.span("bench.sweep"), timings.time("other"):
        sweeps.append(_sweep(lib, fl, *FLAT_SWEEP, "flat"))

    with lib.span("bench.orbit"), timings.time("other"):
        nf = fl.speed_ode.ScaledNF.shilnikov(*ORBIT, a11=1.0)
        counting = CountingODE(nf)
        settle = lib.speed_ode.integrate(counting, np.array([-0.98, 0.0, 0.0]),
                                         inputs.sizes.settle_t, tol=1e-9)
        lam = lib.speed_ode.lyapunov_max(nf, settle.y[:, -1], inputs.sizes.lyapunov_t,
                                         5.0, seed=inputs.seed)
        orbit_eq = lib.speed_ode.equilibria_and_classification(nf)
    orbit = {"nf": nf, "trajectory": settle, "rhs_evals": counting.rhs_evals,
             "lyapunov": lam, "equilibria": orbit_eq}
    return {"studies": studies, "sweeps": sweeps, "orbit": orbit,
            "timings": timings.items, "long_count": len(SWEEPS),
            "attempted": len(studies) + len(sweeps) + 2}


# -- checks ---------------------------------------------------------------------

def _check_study(out, checks):
    kind = out["kind"]
    model = ref.model_of(out["params"], out["coupling"]) if kind != "imprint" else None
    if kind in ("n3", "ref", "planted", "fault"):
        c = out.get("evans_c", 0.0)
        pairs = list(out["roots"])
        checks.append(ck.gamma0_roots_zero(f"{kind}: Gamma0 roots zero the closed form",
                                           model, [r for r, _m in pairs]))
        order = len(out["taylor"].coeffs) - 1
        checks.append(ck.series_equal(f"{kind}: Gamma0 Taylor series",
                                      out["taylor"].coeffs,
                                      ref.gamma0_series(model, order), 1e-10))
        if "evans" in out:
            checks.append(ck.evans_roots_zero(f"{kind}: E0 roots zero the closed form",
                                              model, c, out["evans"].roots))
            checks.append(ck.winding_resolved(f"{kind}: E0 winding resolved", out["evans"]))
        for r, value in out.get("plateau_values", []):
            want = ref.coupling_value(model, ref.plateau(model, r))
            if abs(value - want) > 1e-12 * max(1.0, abs(want)):
                checks.append(ck.Check(f"{kind}: F(V*) at roots", False,
                                       f"{value} vs {want} at c = {r}"))
        for (z, _m), value in zip(out["evans"].roots, out.get("evans_values", ())):
            want = ref.evans(model, c, z)
            if abs(value - want) > 1e-12 * ref.evans_scale(model, c, z):
                checks.append(ck.Check(f"{kind}: evans_eval", False, f"{value} vs {want}"))
    if kind == "n3":
        delta = out["delta"]
        predicted = ref.unfolding_roots(N3_TAU, N3_D, ref.fourfold_alpha(N3_TAU, N3_D), delta)
        checks.append(ck.series_equal("n3: designer fourfold point", out["base"],
                                      ref.fourfold_alpha(N3_TAU, N3_D), 1e-12))
        checks.append(ck.series_equal("n3: predicted unfolded roots",
                                      np.sort_complex(out["predicted"]),
                                      np.sort_complex(predicted), 1e-12))
        # E0(0) = 0 always (translation); near the fourfold point E0'(0) is
        # O(|delta|), so Newton leaves that root up to ~1e-7 off the origin
        located = [z for z, m in out["evans"].roots for _ in range(m)]
        translation = min(located, key=abs)
        located.remove(translation)
        checks.append(ck.Check("n3: translation root at 0", abs(translation) <= 1e-6,
                               f"|lambda| = {abs(translation):.1e} (<= 1e-6)"))
        checks.append(ck.unfolding_accuracy("n3: unfolded E0 roots within 10|delta|^2",
                                            predicted, located, delta))
        base_model = model._replace(alpha=tuple(out["base"]))
        ev = ref.evans_series_c0(base_model, 4)
        checks.append(ck.series_equal("n3: E0 Taylor series at the base point",
                                      out["evans_taylor"].coeffs, ev, 1e-10))
        for k, prof in enumerate(out["chains"], start=1):
            checks.append(ck.chain_plateau("n3: chain profile plateaus", prof, k,
                                           N3_TAU, N3_D))
        for k, poly in enumerate(out["jordan"]):
            checks.append(ck.jordan_exact("n3: Jordan closed form", k, poly.coeffs))
        report = out["chain_ode"]
        checks.append(ck.Check("n3: chain ODE residual", report.max_residual <= 1e-6,
                               f"{report.max_residual:.1e} (<= 1e-6)"))
        vs_ok = all(np.allclose(s.coeffs, ref.plateau_series(t, d, 7), rtol=0, atol=1e-14)
                    for s, t, d in zip(out["vstar_series"], N3_TAU, N3_D))
        checks.append(ck.Check("n3: plateau series", vs_ok, f"agree: {vs_ok}"))
    elif kind == "ref":
        order, mult = out["order"], out["mult"]
        own = ref.gamma0_series(model, order)
        checks.append(ck.series_has_order(f"ref {out['name']}: existence order {order}",
                                          own, order))
        checks.append(ck.root_multiplicity(f"ref {out['name']}: root at 0",
                                           list(out["roots"]), 0.0, order))
        ev = ref.evans_series_c0(model, mult)
        checks.append(ck.series_has_order(f"ref {out['name']}: Evans multiplicity {mult}",
                                          ev, mult))
        checks.append(ck.series_equal(f"ref {out['name']}: E0 Taylor series",
                                      out["evans_taylor"].coeffs, ev, 1e-10))
        alpha, beta, gamma = out["design"]
        got = np.concatenate([alpha, beta, [gamma]])
        want = np.concatenate([model.alpha, model.beta, [model.gamma]])
        checks.append(ck.series_equal(f"ref {out['name']}: designer reproduces the set",
                                      got, want, 1e-10))
        checks.append(ck.Check(f"ref {out['name']}: fourfold winding",
                               out["evans"].winding_total == 4,
                               f"winding {out['evans'].winding_total} (= 4)"))
        for k, prof in enumerate(out["chains"], start=1):
            checks.append(ck.chain_plateau(f"ref {out['name']}: chain plateaus", prof, k,
                                           model.tau, model.d))
    elif kind == "imprint":
        targets = np.asarray(out["targets"])
        own = ref.gamma0_series(ref.model_of(out["params"], out["coupling"]),
                                len(targets) - 1)
        checks.append(ck.series_equal("imprint: round trip (closed-form series)",
                                      own, targets, 1e-10))
        checks.append(ck.series_equal("imprint: round trip (gamma0_taylor)",
                                      out["taylor"].coeffs, targets, 1e-10))
        checks.append(ck.vandermonde_residual("imprint: Vandermonde solve",
                                              out["nodes"], out["b"], out["x"]))


def check_round(inputs: Inputs, out):
    """(checks, failed, counters) for one round's outputs."""
    checks = []
    failed = 0
    planted_total = planted_found = 0
    located = winding = 0
    for study in out["studies"]:
        _check_study(study, checks)
        if study["kind"] in ("planted", "fault"):
            found, missing = ck.planted_recall(study["speeds"], list(study["roots"]),
                                               study["double"])
            planted_total += len(study["speeds"])
            planted_found += found
            if study["kind"] == "fault":
                failed += bool(missing)
            else:
                checks.append(ck.Check("planted: speeds come back once, simple",
                                       not missing, f"missing {missing}"))
        if "evans" in study:
            located += study["evans"].total_multiplicity
            winding += study["evans"].winding_total
    ok_points = total_points = 0
    for sweep in out["sweeps"]:
        nf = sweep["nf"]
        checks.append(ck.shooting_contract(f"sweep {sweep['kind']}: shooting contract",
                                           sweep["result"], SHOOT_TOL,
                                           sweep["kind"] == "bisect"))
        checks.append(ck.equilibria_oracle("sweep: equilibria vs companion oracle",
                                           nf.nu0, nf.nu, nf.a11, nf.a12, nf.delta,
                                           sweep["equilibria"]))
        statuses = [p.status for p in sweep["result"].trace]
        ok_points += statuses.count("ok")
        total_points += len(statuses)
    orbit = out["orbit"]
    nf = orbit["nf"]
    checks.append(ck.trajectory_solves("integrate: trajectory solves the ODE",
                                       lambda z: _field(nf, z), orbit["trajectory"]))
    checks.append(ck.lyapunov_near_zero("lyapunov_max: periodic orbit",
                                        orbit["lyapunov"], abs(nf.nu_bar)))
    checks.append(ck.equilibria_oracle("orbit: equilibria vs companion oracle",
                                       nf.nu0, nf.nu, nf.a11, nf.a12, nf.delta,
                                       orbit["equilibria"]))
    counters = {
        "existence.planted_root_recall": planted_found / planted_total if planted_total else 0.0,
        "evans.winding_resolved_ratio": located / winding if winding else 0.0,
        "speed_ode.shoot_ok_ratio": ok_points / total_points if total_points else 0.0,
        "speed_ode.rhs_evals_per_integrate": float(orbit["rhs_evals"]),
    }
    return checks, failed, counters


def _field(nf, z):
    """z' = (z2, z3, nu0 + nu . z + a11 z1^2 + a12 delta z1 z2), written out here."""
    z = np.asarray(z, dtype=float)
    last = (nf.nu0 + sum(n * x for n, x in zip(nf.nu, z)) + nf.a11 * z[0] ** 2
            + nf.a12 * nf.delta * z[0] * z[1])
    return np.array([z[1], z[2], last])
