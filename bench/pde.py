"""`pde_dynamics` and `pde_branch` workloads: the method-of-lines solver.

`pde_dynamics` marches three fronts with `simulate`, window by window (one
window is 100 IMEX steps, the caller inspects the state after each):

* a decoupled constant-forcing front, N = 1 on 401 nodes;
* the cusp heteroclinic speed transition, N = 1 on 901 nodes, started from
  the stationary front plus the Evans-unstable eigenfunction;
* an N = 3 travelling front on 2001 nodes, started from its Newton solution.

`pde_branch` runs Newton front solves (stationary and travelling, N = 1 and
N = 3) and one pseudo-arclength continuation in alpha_1 through the fold, on
a grid above `DENSE_EIG_LIMIT` unknowns so the spectra are sparse
shift-invert solves, plus one direct spectrum at the fold point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

import checks as ck
import reference as ref
from metrics import Timings

SQRT2 = math.sqrt(2.0)
WINDOW = 100            # IMEX steps per simulate call
CUSP = dict(epsilon=0.2, tau=(1.0,), d=(1.0,))
CUSP_COUPLING = dict(gamma=0.0, alpha=(2.0,), beta=(0.0,), higher=(-1.0,))
#: Criterion-8 continuation: gamma 0.011, alpha_1 from 2.38 on [2.36, 2.50],
#: with arclength step 0.05 so that a round passes the fold in 7 points.
BRANCH_GAMMA = 0.011
BRANCH_ALPHA1 = 2.38
BRANCH_RANGE = (2.36, 2.50)
BRANCH_DS = 0.05
BRANCH_GUESS_C = 0.43


def _transcritical(fl):
    _name, params, coupling, _orders = fl.verify.reference_parameter_sets()[0]
    return params, coupling


def _branch_coupling(fl, base, gamma, alpha1):
    return fl.Coupling(gamma, (alpha1,) + tuple(base.alpha[1:]), base.beta)


# -- pde_dynamics ------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicsSizes:
    decoupled_windows: int = 20     # dt 0.02: t = 40
    cusp_windows: int = 40          # dt 0.05: t = 200
    n3_windows: int = 40            # dt 0.01: t = 40


DYNAMICS_SMOKE = DynamicsSizes(decoupled_windows=20, cusp_windows=40, n3_windows=4)


@dataclass
class DynamicsInputs:
    sizes: DynamicsSizes
    fl: object
    runs: list              # (label, seed state, dt, windows)
    gamma: float
    cusp_solution: object
    evans_root: complex
    n3_solution: object


def setup_dynamics(seed, lib, fl, smoke=False) -> DynamicsInputs:
    sizes = DYNAMICS_SMOKE if smoke else DynamicsSizes()
    rng = np.random.default_rng(seed)
    ps = lib.pde_sim

    gamma = 0.1 * (1.0 + rng.uniform(-0.1, 0.1))
    p_dec = fl.SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
    c_dec = fl.Coupling(gamma, (0.0,), (0.0,))
    g401 = ps.make_grid(20.0, 401, p_dec.epsilon)
    prof = lib.existence.front_profile(p_dec, c_dec, 3.0 * gamma / SQRT2)
    x = g401.x
    # the leading-order profile, seams at |y| = sqrt(eps) and all; the first
    # windows smooth them out
    dec_state = fl.pde_sim.PdeState(t=0.0, u=prof.u(x), v=prof(x)[1:], params=p_dec,
                                    coupling=c_dec, grid=g401)

    p_cusp = fl.SystemParams(**CUSP)
    c_cusp = fl.Coupling(**CUSP_COUPLING)
    g901 = ps.make_grid(45.0, 901, p_cusp.epsilon)
    cusp_sol = ps.solve_stationary_front(p_cusp, c_cusp, grid=g901)
    ctx = lib.evans.evans_context(p_cusp, c_cusp, 0.0)
    unstable = lib.evans.evans_roots(ctx, (0.5, 3.0, -1.0, 1.0))
    lam_u = max(unstable.locations, key=lambda z: z.real)
    eigenfunction = lib.jordan_chain.eigenfunction_c0(p_cusp, lam_u.real, c_cusp)
    amplitude = -0.2 * (1.0 + rng.uniform(-0.05, 0.05))
    cusp_state = ps.perturb_with_profile(cusp_sol.state, eigenfunction, amplitude)

    p3, base = _transcritical(fl)
    c3 = _branch_coupling(fl, base, BRANCH_GAMMA,
                          BRANCH_ALPHA1 + rng.uniform(-0.004, 0.004))
    g2001 = ps.make_grid(20.0, 2001)
    seed3 = ps.initial_front_state(p3, c3, g2001, c=BRANCH_GUESS_C)
    n3_sol = ps.solve_travelling_front(p3, c3, guess=seed3, guess_c=BRANCH_GUESS_C,
                                       grid=g2001)

    runs = [("decoupled", dec_state, 0.02, sizes.decoupled_windows),
            ("cusp", cusp_state, 0.05, sizes.cusp_windows),
            ("n3", n3_sol.state, 0.01, sizes.n3_windows)]
    return DynamicsInputs(sizes=sizes, fl=fl, runs=runs, gamma=gamma,
                          cusp_solution=cusp_sol, evans_root=lam_u, n3_solution=n3_sol)


def run_dynamics(inputs: DynamicsInputs, lib):
    timings = Timings()
    tracks = {}
    for label, state, dt, windows in inputs.runs:
        role = "op+long" if label == "cusp" else "op"
        track = {"speed": [], "aborted": [], "coupling": []}
        for _ in range(windows):
            with lib.span(f"bench.window.{label}"), timings.time(role):
                res = lib.pde_sim.simulate(state, WINDOW * dt, output_stride=WINDOW, dt=dt)
                state = res.final_state
                track["coupling"].append(lib.core_model.eval_coupling(state.coupling,
                                                                      state.v))
            track["speed"].append(float(res.speed[-1]))
            track["aborted"].append(res.aborted)
        track["final"] = state
        tracks[label] = track
    return {"tracks": tracks, "timings": timings.items, "long_count": 1,
            "attempted": len(timings.items)}


def check_dynamics(inputs: DynamicsInputs, out):
    checks = []
    tracks = out["tracks"]
    for label, track in tracks.items():
        aborted = [a for a in track["aborted"] if a]
        checks.append(ck.Check(f"{label}: every window completes", not aborted,
                               f"aborted: {aborted[:1]}"))
        final = track["final"]
        want = ref.coupling_value(ref.model_of(final.params, final.coupling), final.v)
        err = float(np.max(np.abs(track["coupling"][-1] - want)))
        checks.append(ck.Check(f"{label}: coupling on the grid", err <= 1e-12,
                               f"max error {err:.1e}"))
    params = inputs.runs[0][1].params
    checks.append(ck.relative("decoupled: speed vs eps^2 3 sqrt2 gamma / 2",
                              tracks["decoupled"]["speed"][-1],
                              ref.decoupled_speed(params.epsilon, inputs.gamma), 0.01))
    eps = inputs.cusp_solution.state.params.epsilon
    checks.append(ck.speed_transition("cusp: heteroclinic speed transition",
                                      tracks["cusp"]["speed"], eps ** 2 * ref.cusp_speed()))
    checks.append(ck.relative("n3: translation at the Newton speed",
                              float(np.median(tracks["n3"]["speed"])),
                              inputs.n3_solution.lab_speed, 0.02))
    return checks, 0, {}


def check_dynamics_setup(inputs: DynamicsInputs):
    out = []
    sol = inputs.cusp_solution
    st = sol.state
    model = ref.model_of(st.params, st.coupling)
    out.append(ck.steady_front("cusp: stationary Newton solution", model, st.params.epsilon,
                               st.grid.h, st.u, st.v, 0.0, stationary=True))
    out.append(ck.evans_roots_zero("cusp: Evans-unstable root", model, 0.0,
                                   [(inputs.evans_root, 1)]))
    sol = inputs.n3_solution
    st = sol.state
    out.append(ck.steady_front("n3: travelling Newton solution",
                               ref.model_of(st.params, st.coupling), st.params.epsilon,
                               st.grid.h, st.u, st.v, sol.c))
    return out


# -- pde_branch --------------------------------------------------------------------

@dataclass(frozen=True)
class BranchSizes:
    n3_travelling: int = 25
    n3_stationary: int = 25
    n1_travelling: int = 30
    n1_stationary: int = 20


BRANCH_SMOKE = BranchSizes(n3_travelling=2, n3_stationary=2, n1_travelling=2,
                           n1_stationary=2)


@dataclass
class BranchInputs:
    sizes: BranchSizes
    fl: object
    solves: list            # (kind, params, coupling, grid, guess_c, reference c)
    params: object
    coupling: object
    grid: object
    fold_ref: float


def _cusp_root(model, lo=1.5, hi=3.0):
    roots = ref.scan_roots(model, lo, hi, step=1e-2)
    if len(roots) != 1:
        raise RuntimeError(f"expected one cusp-like root on ({lo}, {hi}), got {roots}")
    return roots[0]


def setup_branch(seed, lib, fl, smoke=False) -> BranchInputs:
    sizes = BRANCH_SMOKE if smoke else BranchSizes()
    rng = np.random.default_rng(seed)
    ps = lib.pde_sim
    p3, base = _transcritical(fl)
    grid3 = ps.make_grid(10.0, 1001)
    p1 = fl.SystemParams(**CUSP)
    grid_t1 = ps.make_grid(24.0, 481, p1.epsilon)
    grid_s1 = ps.make_grid(45.0, 901, p1.epsilon)
    solves = []
    for _ in range(sizes.n3_travelling):
        coupling = _branch_coupling(fl, base, BRANCH_GAMMA,
                                    BRANCH_ALPHA1 + rng.uniform(-0.02, 0.02))
        solves.append(("n3_travelling", p3, coupling, grid3, BRANCH_GUESS_C, None))
    for _ in range(sizes.n3_stationary):
        coupling = _branch_coupling(fl, base, 0.0,
                                    base.alpha[0] * (1.0 + rng.uniform(-0.01, 0.01)))
        solves.append(("n3_stationary", p3, coupling, grid3, 0.0, None))
    for _ in range(sizes.n1_travelling):
        alpha = 2.0 * (1.0 + rng.uniform(-0.03, 0.03))
        coupling = fl.Coupling(0.0, (alpha,), (0.0,), higher=(-1.0,))
        c_ref = _cusp_root(ref.model_of(p1, coupling))
        solves.append(("n1_travelling", p1, coupling, grid_t1, c_ref, c_ref))
    for _ in range(sizes.n1_stationary):
        alpha = 2.0 * (1.0 + rng.uniform(-0.03, 0.03))
        coupling = fl.Coupling(0.0, (alpha,), (0.0,), higher=(-1.0,))
        solves.append(("n1_stationary", p1, coupling, grid_s1, 0.0, None))
    branch_coupling = _branch_coupling(fl, base, BRANCH_GAMMA, BRANCH_ALPHA1)
    fold_ref, _c = ref.singular_fold_alpha1(ref.model_of(p3, branch_coupling), 0.05, 0.6)
    return BranchInputs(sizes=sizes, fl=fl, solves=solves, params=p3,
                        coupling=branch_coupling, grid=grid3, fold_ref=fold_ref)


def run_branch(inputs: BranchInputs, lib):
    ps = lib.pde_sim
    timings = Timings()
    solutions = []
    for kind, params, coupling, grid, guess_c, _c_ref in inputs.solves:
        with lib.span(f"bench.solve.{kind}"), timings.time("op"):
            if kind.endswith("stationary"):
                sol = ps.solve_stationary_front(params, coupling, grid=grid)
            else:
                sol = ps.solve_travelling_front(params, coupling, guess_c=guess_c, grid=grid)
        solutions.append(sol)
    with lib.span("bench.continuation"), timings.time("long"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = ps.continue_branch(inputs.params, inputs.coupling, "alpha1",
                                        BRANCH_RANGE, ds=BRANCH_DS, grid=inputs.grid,
                                        max_points=40, guess_c=BRANCH_GUESS_C, n_eigs=10)
    truncations = sum("branch truncated" in str(w.message) for w in caught)
    folds = [i for i, pt in enumerate(points) if pt.tag == "fold"]
    at = folds[0] if folds else len(points) - 1
    point = points[at]
    with lib.span("bench.spectrum"), timings.time("other"):
        solution = inputs.fl.pde_sim.FrontSolution(state=point.state, c=point.c,
                                                   residual=0.0, iterations=0,
                                                   converged=True)
        spectrum = ps.linearization_spectrum(solution, count=10)
    return {"solutions": solutions, "points": points, "truncations": truncations,
            "spectrum": spectrum, "spectrum_point": at, "timings": timings.items,
            "long_count": len(points), "attempted": len(solutions) + 2}


def check_branch(inputs: BranchInputs, out):
    checks = []
    for (kind, params, coupling, grid, _g, c_ref), sol in zip(inputs.solves,
                                                             out["solutions"]):
        st = sol.state
        checks.append(ck.steady_front(f"{kind}: Newton solution", ref.model_of(params, coupling),
                                      params.epsilon, grid.h, st.u, st.v, sol.c,
                                      stationary=kind.endswith("stationary")))
        if c_ref is not None:
            checks.append(ck.relative(f"{kind}: speed vs the singular-limit root",
                                      sol.c, c_ref, 0.1))
    points = out["points"]
    p = inputs.params
    for i, pt in enumerate(points):
        st = pt.state
        checks.append(ck.steady_front(f"branch point {i}", ref.model_of(p, st.coupling),
                                      p.epsilon, inputs.grid.h, st.u, st.v, pt.c))
    checks.append(ck.branch_turns_once("continuation: one fold near the singular limit",
                                       [pt.param for pt in points],
                                       [i for i, pt in enumerate(points) if pt.tag == "fold"],
                                       inputs.fold_ref))
    checks.append(ck.Check("continuation: no truncation", out["truncations"] == 0,
                           f"{out['truncations']} truncation warnings"))
    checks.append(ck.Check("spectrum: sparse shift-invert",
                           out["spectrum"].method == "sparse",
                           f"method {out['spectrum'].method}"))
    pt = points[out["spectrum_point"]]
    st = pt.state
    jac = ref.dynamic_jacobian(ref.model_of(p, st.coupling), p.epsilon, inputs.grid.h,
                               st.u, st.v, pt.c)
    checks.append(ck.eigenvalues_of("spectrum: eigenvalues of the stencil Jacobian", jac,
                                    out["spectrum"].eigenvalues))
    iterations = [sol.iterations for sol in out["solutions"]]
    counters = {"pde_sim.newton_iterations": float(np.mean(iterations)),
                "pde_sim.branch_points": float(len(points)),
                "pde_sim.continue_truncations": float(out["truncations"])}
    return checks, 0, counters
