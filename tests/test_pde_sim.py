import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded, solveh_banded

import frontlab as fl
from frontlab import Coupling, FrontlabError, SystemParams
from frontlab import pde_sim as ps
from frontlab.jordan_chain import eigenfunction_c0

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def small_ac():
    params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
    zero = Coupling(0.0, (0.0,), (0.0,))
    grid = ps.make_grid(10.0, 401, params.epsilon)
    return params, zero, grid


class TestGrid:
    def test_geometry(self):
        grid = ps.make_grid(10.0, 401)
        assert grid.h == pytest.approx(0.05)
        assert grid.x[0] == -10.0 and grid.x[-1] == 10.0

    def test_resolution_warning(self):
        with pytest.warns(UserWarning, match="under-resolved"):
            ps.make_grid(10.0, 51, epsilon=0.05)

    def test_validation(self):
        with pytest.raises(FrontlabError):
            ps.make_grid(10.0, 2)


class TestStep:
    def test_homogeneous_fixed_point(self, small_ac):
        params, zero, grid = small_ac
        for val in (1.0, -1.0):
            state = ps.PdeState(t=0.0, u=np.full(grid.n_x, val),
                                v=np.full((1, grid.n_x), val),
                                params=params, coupling=zero, grid=grid)
            out = ps.step(state, 0.01)
            assert np.max(np.abs(out.u - val)) <= 1e-14
            assert np.max(np.abs(out.v - val)) <= 1e-14

    def test_allen_cahn_profile_drift(self):
        # the tanh interface is steady for the decoupled fast equation
        params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
        zero = Coupling(0.0, (0.0,), (0.0,))
        grid = ps.make_grid(10.0, 401, params.epsilon)   # h = eps/4
        state = ps.initial_front_state(params, zero, grid)
        out = ps.simulate(state, 1.0, output_stride=20, dt=0.005)
        drift = abs(out.position[-1] - out.position[0])
        assert drift <= 1e-6
        assert np.max(np.abs(out.speed)) <= 1e-6

    def test_slow_component_cosine_mode_oracle(self):
        # U pinned at 1 (fixed point); each Neumann cosine mode of V decays
        # exactly like exp(-(eps^2 d^2 kbar^2 + eps^2) t / tau)
        params = SystemParams(epsilon=0.3, tau=(1.7,), d=(1.2,))
        zero = Coupling(0.0, (0.0,), (0.0,))
        errs = []
        for n_x, dt in ((201, 2e-3), (401, 1e-3)):
            grid = ps.make_grid(5.0, n_x, params.epsilon)
            kbar = 2 * math.pi / (2 * grid.half_length)
            mode = np.cos(kbar * (grid.x + grid.half_length))
            state = ps.PdeState(t=0.0, u=np.ones(grid.n_x),
                                v=(1.0 + 0.1 * mode)[None, :],
                                params=params, coupling=zero, grid=grid)
            t_end = 2.0
            n = int(round(t_end / dt))
            for _ in range(n):
                state = ps.step(state, dt)
            rate = (params.epsilon ** 2 * params.d[0] ** 2 * kbar ** 2
                    + params.epsilon ** 2) / params.tau[0]
            exact = 1.0 + 0.1 * math.exp(-rate * t_end) * mode
            errs.append(np.max(np.abs(state.v[0] - exact)))
        assert errs[0] <= 5e-4          # O(h^2 + dt) level
        assert errs[1] <= 0.6 * errs[0]  # refining both halves the error

    def test_indefinite_implicit_matrix_raises(self, small_ac):
        params, zero, grid = small_ac
        system = ps._FrontSystem(params, zero, grid)
        with pytest.raises(FrontlabError, match="not positive definite"):
            system._implicit(-grid.h ** 2 / system.diffusion[0])   # |k| = h^2 > h^2/4

    def test_substepping_stability(self, small_ac):
        params, zero, grid = small_ac
        state = ps.initial_front_state(params, zero, grid)
        big = ps.step(state, 1.0)       # far above the explicit bound
        assert np.max(np.abs(big.u)) < 1.5

    def test_strang_is_higher_order(self, small_ac):
        params, zero, grid = small_ac
        state = ps.initial_front_state(params, zero, grid)
        ref = state
        for _ in range(400):
            ref = ps.step(ref, 2.5e-4, strang=True)

        def err(dt, strang):
            cur = state
            for _ in range(int(round(0.1 / dt))):
                cur = ps.step(cur, dt, strang=strang)
            return np.max(np.abs(cur.u - ref.u))

        e_first = err(0.005, False)
        e_strang = err(0.005, True)
        assert e_strang < 0.15 * e_first
        assert err(0.0025, True) < 0.35 * e_strang   # ~4x per halving

    def test_odd_symmetry(self):
        params = SystemParams(epsilon=0.1, tau=(1.3, 2.0), d=(1.0, 0.7))
        plus = Coupling(0.2, (0.5, -0.3), (0.0, 0.0))
        minus = Coupling(-0.2, (0.5, -0.3), (0.0, 0.0))
        grid = ps.make_grid(8.0, 321, params.epsilon)
        state = ps.initial_front_state(params, plus, grid)
        fwd = ps.step(state, 0.01)
        neg = ps.PdeState(t=0.0, u=-state.u.copy(), v=-state.v.copy(),
                          params=params, coupling=minus, grid=grid)
        back = ps.step(neg, 0.01)
        assert np.max(np.abs(back.u + fwd.u)) <= 1e-12
        assert np.max(np.abs(back.v + fwd.v)) <= 1e-12


class TestFrontPosition:
    def test_interpolated_crossing(self):
        x = np.linspace(-1, 1, 21)
        u = np.tanh((x - 0.037) / 0.2)
        assert ps.front_position(u, x) == pytest.approx(0.037, abs=1e-3)

    def test_zero_node_crossing(self):
        x = np.linspace(-1, 1, 21)
        u = x.copy()
        assert ps.front_position(u, x) == pytest.approx(0.0, abs=1e-12)

    def test_multiple_fronts_rejected(self):
        x = np.linspace(-1, 1, 101)
        with pytest.raises(FrontlabError):
            ps.front_position(np.sin(6 * x), x)


class TestSimulate:
    def test_stationary_front_speed(self, small_ac):
        params, zero, grid = small_ac
        sol = ps.solve_stationary_front(params, zero, grid=grid)
        out = ps.simulate(sol.state, 50.0, output_stride=100, dt=0.01)
        assert np.max(np.abs(out.speed)) <= 1e-4
        assert out.aborted is None
        assert not out.trapping_violated

    def test_decoupled_forced_speed(self):
        params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
        coup = Coupling(0.1, (0.0,), (0.0,))
        grid = ps.make_grid(20.0, 401, params.epsilon)
        state = ps.initial_front_state(params, coup, grid)
        out = ps.simulate(state, 60.0, output_stride=100, dt=0.01)
        target = params.epsilon ** 2 * 3 * SQRT2 * 0.1 / 2
        assert out.speed[-1] == pytest.approx(target, rel=0.1)
        # the freezing speed and the position drift agree
        drift = (out.position[-1] - out.position[0]) / (out.t[-1] - out.t[0])
        assert drift == pytest.approx(out.speed[-1], rel=0.05)

    def test_boundary_abort(self):
        params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
        coup = Coupling(0.5, (0.0,), (0.0,))
        grid = ps.make_grid(4.0, 101, params.epsilon)
        state = ps.initial_front_state(params, coup, grid)
        out = ps.simulate(state, 500.0, output_stride=10, dt=0.01)
        assert out.aborted == "front reached boundary margin"

    def test_trapping_region(self):
        # random single-front data inside [-1.2, 1.2] stays within [-1.3, 1.3]
        rng = np.random.default_rng(17)
        for trial in range(50):
            n = int(rng.integers(1, 3))
            params = SystemParams(epsilon=float(rng.uniform(0.05, 0.1)),
                                  tau=tuple(rng.uniform(0.5, 3, n)),
                                  d=tuple(rng.uniform(0.5, 2, n)))
            coup = Coupling(rng.uniform(-0.3, 0.3), tuple(rng.uniform(-1, 1, n)),
                            tuple(rng.uniform(-0.5, 0.5, n)))
            grid = ps.make_grid(8.0, 321, params.epsilon)
            state = ps.initial_front_state(params, coup, grid)
            state.u = np.clip(state.u + rng.uniform(-0.2, 0.2), -1.2, 1.2)
            state.v = np.clip(state.v + rng.uniform(-0.2, 0.2, state.v.shape),
                              -1.2, 1.2)
            out = ps.simulate(state, 10.0, output_stride=50, dt=0.02)
            assert not out.trapping_violated
            assert np.max(out.sup_u) <= 1.3 and np.max(out.sup_v) <= 1.3


class TestSteadySolvers:
    def test_zero_coupling_fast_convergence(self, small_ac):
        params, zero, grid = small_ac
        sol = ps.solve_stationary_front(params, zero, grid=grid)
        assert sol.iterations <= 3
        assert sol.residual <= 1e-10
        assert np.max(np.abs(sol.state.u - np.tanh(grid.x / (SQRT2 * params.epsilon)))) < 2e-3

    def test_converged_profile_is_steady_under_step(self, small_ac):
        params, zero, grid = small_ac
        sol = ps.solve_stationary_front(params, zero, grid=grid)
        out = ps.step(sol.state, 1e-3)
        assert np.max(np.abs(out.u - sol.state.u)) <= 1e-8
        assert np.max(np.abs(out.v - sol.state.v)) <= 1e-8

    def test_transcritical_plateaus(self, transcritical_set):
        params, coupling = transcritical_set
        grid = ps.make_grid(20.0, 2669, params.epsilon)
        sol = ps.solve_stationary_front(params, coupling, grid=grid)
        eps = params.epsilon
        for sign in (+1.0, -1.0):
            plateau = sol.state.u[-1] if sign > 0 else sol.state.u[0]
            predicted = sign - 0.5 * eps * fl.eval_coupling(
                coupling, sign * np.ones(3))
            assert abs(plateau - predicted) <= 5 * eps ** 2

    def test_travelling_zero_gamma_is_stationary(self, small_ac):
        params, zero, grid = small_ac
        sol = ps.solve_travelling_front(params, zero, grid=grid)
        assert abs(sol.c) <= 1e-8

    def test_cusp_travelling_speeds(self, cusp_setup):
        params, coupling = cusp_setup
        grid = ps.make_grid(24.0, 481, params.epsilon)
        for c0 in (2.289, -2.289):
            sol = ps.solve_travelling_front(params, coupling, guess_c=c0, grid=grid)
            assert sol.c == pytest.approx(c0, rel=0.1)
            assert sol.lab_speed == pytest.approx(params.epsilon ** 2 * c0, rel=0.1)

    def test_travelling_matches_time_evolution(self):
        params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
        coup = Coupling(0.1, (0.0,), (0.0,))
        grid = ps.make_grid(20.0, 401, params.epsilon)
        state = ps.initial_front_state(params, coup, grid)
        out = ps.simulate(state, 60.0, output_stride=200, dt=0.002)
        sol = ps.solve_travelling_front(params, coup, guess_c=out.speed[-1] /
                                        params.epsilon ** 2, grid=grid)
        # compare profiles after shifting to a common front position
        evolved = out.final_state
        shift0 = ps.front_position(evolved.u, grid.x) - ps.front_position(
            sol.state.u, grid.x)
        from scipy.interpolate import CubicSpline
        from scipy.optimize import minimize_scalar
        spline = CubicSpline(grid.x, sol.state.u)
        inner = np.abs(grid.x) < grid.half_length - 3.0

        def mismatch(shift):
            return float(np.max(np.abs(spline(grid.x - shift)[inner]
                                       - evolved.u[inner])))

        best = minimize_scalar(mismatch, bracket=(shift0 - grid.h, shift0,
                                                  shift0 + grid.h))
        assert mismatch(best.x) <= 1e-3

    def test_grid_convergence_of_speed(self, cusp_setup):
        params, coupling = cusp_setup
        speeds = []
        for n_x in (241, 481, 961):
            grid = ps.make_grid(24.0, n_x, params.epsilon)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = ps.solve_travelling_front(params, coupling, guess_c=2.289,
                                                grid=grid)
            speeds.append(sol.c)
        coarse = abs(speeds[0] - speeds[1])
        fine = abs(speeds[1] - speeds[2])
        assert coarse <= 4.0 * fine * 1.6   # second-order with slack
        assert coarse >= 2.0 * fine         # and genuinely decreasing


# -- references: the component-by-component formulas on CSR operators -----------

class TestNewton:
    def test_small_sparse_system_converges(self):
        target = np.arange(1.0, 6.0)
        calls = []

        def residual(w):
            calls.append(w)
            return w * w - target

        w, norm, its, ok = ps._newton(residual, lambda w: sp.diags(2.0 * w, format="csc"),
                                      np.full(5, 2.0), 1e-12, 20)
        assert ok and norm <= 1e-12
        np.testing.assert_allclose(w, np.sqrt(target), rtol=0, atol=1e-12)
        # undamped: one residual per iterate, the last one checked only
        assert 3 <= its == len(calls)

    def test_overshooting_step_is_damped(self):
        # undamped Newton on arctan diverges from 1.5
        calls = []

        def residual(w):
            calls.append(w)
            return np.arctan(w)

        w, _norm, its, ok = ps._newton(residual, lambda w: sp.diags(1.0 / (1.0 + w * w),
                                                                    format="csc"),
                                       np.array([1.5]), 1e-12, 30)
        assert ok and abs(w[0]) <= 1e-12
        assert len(calls) > its

    def test_singular_matrix_is_not_converged(self):
        w, norm, its, ok = ps._newton(lambda w: w - 1.0, lambda w: sp.csc_matrix((2, 2)),
                                      np.zeros(2), 1e-12, 10)
        assert not ok and (norm, its) == (1.0, 1)

    def test_nan_iterate_is_not_converged(self):
        w, norm, its, ok = ps._newton(lambda w: w - 1.0,
                                      lambda w: sp.identity(2, format="csc"),
                                      np.array([np.nan, 0.0]), 1e-12, 10)
        assert not ok and its == 1 and math.isnan(norm)

    def test_travelling_solve_evaluates_each_iterate_once(self, cusp_setup, monkeypatch):
        params, coupling = cusp_setup
        calls = []
        residual = ps._FrontSystem.residual

        def counted(self, x, c):
            calls.append(c)
            return residual(self, x, c)

        monkeypatch.setattr(ps._FrontSystem, "residual", counted)
        grid = ps.make_grid(24.0, 481, params.epsilon)
        sol = ps.solve_travelling_front(params, coupling, guess_c=2.289, grid=grid)
        assert sol.iterations >= 3
        assert len(calls) == sol.iterations

    def test_stalled_solve_raises_with_last_iterate(self, cusp_setup):
        params, coupling = cusp_setup
        grid = ps.make_grid(24.0, 481, params.epsilon)
        with pytest.raises(fl.ConvergenceError, match="stalled at residual") as info:
            ps.solve_travelling_front(params, coupling, guess_c=2.289, grid=grid,
                                      res_tol=0.0)
        assert info.value.best.u.shape == (481,)
        assert info.value.diagnostics["residual"] > 0.0

    def test_stagnation_ends_the_iteration(self, cusp_setup):
        # 1e-30 is below the rounding floor: once no halving lowers the
        # norm, the iteration stops instead of running to max_iter
        params, coupling = cusp_setup
        grid = ps.make_grid(24.0, 481, params.epsilon)
        system = ps._FrontSystem(params, coupling, grid)
        factorized = []

        def residual(w):
            return np.append(system.residual(w[:-1], w[-1]), w[system.center])

        def matrix(w):
            factorized.append(w)
            return system.bordered(system.jacobian(w[:-1], w[-1]),
                                   [system.residual_c_derivative(w[:-1])])

        seed = ps.initial_front_state(params, coupling, grid, c=2.289)
        w, norm, its, ok = ps._newton(residual, matrix,
                                      np.append(system.flat(seed), 2.289), 1e-30, 60)
        assert not ok and norm < 1e-12
        assert len(factorized) == its <= 10
        assert np.max(np.abs(residual(w))) == norm


def _csr_d2(n_x, h):
    """Mirrored-ghost Neumann Laplacian."""
    inv = 1.0 / (h * h)
    upper = np.full(n_x, inv)
    lower = np.full(n_x, inv)
    upper[1] = 2.0 * inv
    lower[-2] = 2.0 * inv
    return sp.diags([lower[:-1], np.full(n_x, -2.0 * inv), upper[1:]],
                    offsets=(-1, 0, 1), format="csr")


def _csr_d1(n_x, h):
    """Centered first derivative, zero at both boundary nodes."""
    coef = 1.0 / (2.0 * h)
    upper = np.full(n_x - 1, coef)
    lower = np.full(n_x - 1, -coef)
    upper[0] = 0.0
    lower[-1] = 0.0
    return sp.diags([lower, upper], offsets=(-1, 1), format="csr")


def _reference_residual(system, x, c):
    p = system.params
    eps = p.epsilon
    d2, d1 = _csr_d2(system.nx, system.grid.h), _csr_d1(system.nx, system.grid.h)
    u, v = system.split(x)
    out = [eps ** 2 * (d2 @ u) + eps ** 2 * c * (d1 @ u)
           + u - u * u * u - eps * fl.eval_coupling(system.coupling, v)]
    for j in range(system.n):
        out.append(eps ** 2 * p.d[j] ** 2 * (d2 @ v[j])
                   + eps ** 2 * c * p.tau[j] * (d1 @ v[j])
                   + eps ** 2 * (u - v[j]))
    return np.concatenate(out)


def _reference_c_derivative(system, x):
    p = system.params
    d1 = _csr_d1(system.nx, system.grid.h)
    u, v = system.split(x)
    return np.concatenate([p.epsilon ** 2 * (d1 @ u)]
                          + [p.epsilon ** 2 * p.tau[j] * (d1 @ v[j])
                             for j in range(system.n)])


def _cube(u):
    return u * u * u


def _pow_cube(u):
    return u ** 3


def _reference_reaction(p, coupling, u, v, cube=_cube):
    """(U - U^3 - eps F(V), eps^2 (U - V_j) / tau_j)."""
    ru = u - cube(u) - p.epsilon * fl.eval_coupling(coupling, v)
    rv = p.epsilon ** 2 * (u[None, :] - v) / np.asarray(p.tau)[:, None]
    return ru, rv


def _reference_solve(coeff, rhs, h):
    """(I - coeff D2) x = rhs as W (I - coeff D2) x = W rhs by `solveh_banded`;
    the trapezoid weights W = diag(1/2, 1, ..., 1, 1/2) make it symmetric."""
    n = len(rhs)
    d2 = _csr_d2(n, h)
    w = np.ones(n)
    w[[0, -1]] = 0.5
    ab = np.zeros((2, n))
    ab[0, 1:] = -coeff * (w[:-1] * d2.diagonal(1))
    ab[1] = w * (1.0 - coeff * d2.diagonal())
    return solveh_banded(ab, w * rhs)


def _general_banded_solve(coeff, rhs, h):
    """(I - coeff D2) x = rhs by `solve_banded`, the pivoted general LU."""
    n = len(rhs)
    d2 = _csr_d2(n, h)
    ab = np.zeros((3, n))
    ab[0, 1:] = -coeff * d2.diagonal(1)
    ab[1] = 1.0 - coeff * d2.diagonal()
    ab[2, :-1] = -coeff * d2.diagonal(-1)
    return solve_banded((1, 1), ab, rhs)


def _reference_step(state, dt, strang, solve=_reference_solve, cube=_cube):
    """One IMEX step, component by component, sub-stepped like `ps.step`."""
    p, h = state.params, state.grid.h
    n_sub = max(1, int(math.ceil(dt / ps.stable_reaction_dt(p))))
    dt = dt / n_sub
    eps2 = p.epsilon ** 2
    coef = np.concatenate([[eps2], eps2 * np.asarray(p.d) ** 2 / np.asarray(p.tau)])
    d2 = _csr_d2(state.grid.n_x, h)

    def react(u, v, step_len):
        r1u, r1v = _reference_reaction(p, state.coupling, u, v, cube)
        r2u, r2v = _reference_reaction(p, state.coupling, u + step_len * r1u,
                                       v + step_len * r1v, cube)
        return u + 0.5 * step_len * (r1u + r2u), v + 0.5 * step_len * (r1v + r2v)

    t, u, v = state.t, state.u.copy(), state.v.copy()
    for _ in range(n_sub):
        if strang:
            u, v = react(u, v, 0.5 * dt)
            rows = [row + 0.5 * dt * k * (d2 @ row)
                    for row, k in zip([u, *v], coef)]
            rows = [solve(0.5 * dt * k, row, h) for row, k in zip(rows, coef)]
            u, v = react(rows[0], np.stack(rows[1:]), 0.5 * dt)
        else:
            ru, rv = _reference_reaction(p, state.coupling, u, v, cube)
            u = solve(dt * coef[0], u + dt * ru, h)
            v = np.stack([solve(dt * coef[j + 1], v[j] + dt * rv[j], h)
                          for j in range(p.n_slow)])
        t = t + dt
    return t, u, v


def _bmat_jacobian(system, x, c):
    """Block-by-block assembly of the comoving Jacobian with `sp.bmat`."""
    p = system.params
    eps = p.epsilon
    d2, d1 = _csr_d2(system.nx, system.grid.h), _csr_d1(system.nx, system.grid.h)
    u, v = system.split(x)
    grad = fl.coupling_gradient(system.coupling, v)
    n, nx = system.n, system.nx
    blocks = [[None] * (n + 1) for _ in range(n + 1)]
    blocks[0][0] = (eps ** 2 * d2 + eps ** 2 * c * d1
                    + sp.diags(1.0 - 3.0 * u ** 2))
    for j in range(n):
        blocks[0][j + 1] = sp.diags(-eps * grad[j])
        blocks[j + 1][0] = sp.identity(nx) * eps ** 2
        blocks[j + 1][j + 1] = (eps ** 2 * p.d[j] ** 2 * d2
                                + eps ** 2 * c * p.tau[j] * d1
                                - eps ** 2 * sp.identity(nx))
    return sp.bmat(blocks, format="csc")


def _assert_same_entries(a, b):
    assert a.shape == b.shape
    assert (a != b).nnz == 0


@pytest.fixture(params=["n1_cubic", "n3"])
def perturbed_system(request, transcritical_set):
    """A small system at c != 0, off its steady state, on 41 nodes."""
    if request.param == "n1_cubic":
        params = SystemParams(epsilon=0.2, tau=(0.7,), d=(1.3,))
        coupling = Coupling(0.05, (2.0,), (0.3,), higher=(-1.0, 0.4))
        other = Coupling(-0.1, (1.5,), (0.2,), higher=(0.5, -0.2))
    else:
        params, coupling = transcritical_set
        other = Coupling(coupling.gamma + 0.1, tuple(a * 1.1 for a in coupling.alpha),
                         tuple(b - 0.2 for b in coupling.beta))
    grid = ps.make_grid(4.0, 41)
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # under-resolved on purpose: kept small
        state = ps.initial_front_state(params, coupling, grid, c=0.4)
    x = np.concatenate([state.u, state.v.ravel()])
    x += rng.uniform(-0.1, 0.1, x.shape)
    return ps._FrontSystem(params, coupling, grid), x, 0.37, other


class TestOneSystem:
    """The flat-vector system reproduces the component-by-component formulas
    bit for bit."""

    def test_residual_equals_reference(self, perturbed_system):
        system, x, c, _other = perturbed_system
        for speed in (c, 0.0, -2.5):
            assert np.array_equal(system.residual(x, speed),
                                  _reference_residual(system, x, speed))
        assert np.array_equal(system.residual_c_derivative(x),
                              _reference_c_derivative(system, x))

    @pytest.mark.parametrize("strang", [False, True])
    def test_step_equals_reference(self, perturbed_system, strang):
        system, x, _c, _other = perturbed_system
        state = system.state(x, t=0.3)
        bound = ps.stable_reaction_dt(system.params)
        for dt in (0.01, 2.5 * bound):       # the second one takes 3 substeps
            t, u, v = _reference_step(state, dt, strang)
            out = ps.step(state, dt, strang=strang)
            assert out.t == t
            assert np.array_equal(out.u, u)
            assert np.array_equal(out.v, v)
        cur, ref = state, (state.t, state.u, state.v)
        for _ in range(20):
            cur = ps.step(cur, 0.01, strang=strang)
            ref = _reference_step(ps.PdeState(t=ref[0], u=ref[1], v=ref[2],
                                              params=state.params,
                                              coupling=state.coupling,
                                              grid=state.grid), 0.01, strang)
        assert np.array_equal(cur.u, ref[1]) and np.array_equal(cur.v, ref[2])

    @pytest.mark.parametrize("strang", [False, True])
    def test_steps_agree_with_general_banded_lu(self, perturbed_system, strang):
        """20 steps against the unweighted pivoted LU solve with U ** 3: the
        two routes round differently, by at most 1.1e-15 relative to the sup
        norm on these fixtures (measured), and the bound is 4e-15."""
        system, x, _c, _other = perturbed_system
        state = cur = ref = system.state(x, t=0.3)
        for _ in range(20):
            cur = ps.step(cur, 0.01, strang=strang)
            t, u, v = _reference_step(ref, 0.01, strang, solve=_general_banded_solve,
                                      cube=_pow_cube)
            ref = replace(state, t=t, u=u, v=v)
        assert cur.t == ref.t
        err = max(np.max(np.abs(cur.u - ref.u)), np.max(np.abs(cur.v - ref.v)))
        scale = max(np.max(np.abs(ref.u)), np.max(np.abs(ref.v)))
        assert err <= 4e-15 * scale

    def test_simulate_leaves_its_input_unchanged(self, small_ac):
        params, _zero, grid = small_ac
        state = ps.initial_front_state(params, Coupling(0.1, (0.5,), (0.0,)), grid)
        u0, v0 = state.u.copy(), state.v.copy()
        out = ps.simulate(state, 0.5, output_stride=10, dt=0.01)
        assert np.array_equal(state.u, u0) and np.array_equal(state.v, v0)
        assert state.t == 0.0
        assert not np.shares_memory(out.final_state.u, state.u)
        assert not np.shares_memory(out.final_state.v, state.v)
        stepped = ps.step(state, 0.01)
        assert np.array_equal(state.u, u0) and np.array_equal(state.v, v0)
        assert not np.shares_memory(stepped.v, state.v)


class TestJacobian:
    def test_matches_central_differences(self, perturbed_system):
        system, x, c, _other = perturbed_system
        jac = system.jacobian(x, c).toarray()
        step = 1e-6
        fd = np.empty_like(jac)
        for k in range(system.size):
            e = np.zeros(system.size)
            e[k] = step
            fd[:, k] = (system.residual(x + e, c) - system.residual(x - e, c)) / (2 * step)
        assert np.max(np.abs(fd - jac)) <= 1e-7 * np.max(np.abs(jac))

    def test_cached_assembly_equals_bmat(self, perturbed_system):
        system, x, c, other = perturbed_system
        original = system.coupling
        _assert_same_entries(system.jacobian(x, c), _bmat_jacobian(system, x, c))
        _assert_same_entries(system.jacobian(x, 0.0), _bmat_jacobian(system, x, 0.0))
        system.coupling = other        # same system and cached pattern
        _assert_same_entries(system.jacobian(x, -c), _bmat_jacobian(system, x, -c))
        view = system.with_coupling(original)
        _assert_same_entries(view.jacobian(x, c), _bmat_jacobian(view, x, c))
        assert system.coupling is other

    def test_systems_on_equal_params_and_grid_share_the_pattern(self, perturbed_system):
        # every solve builds its own system; the pattern is built once
        system, x, c, other = perturbed_system
        params = SystemParams(epsilon=system.params.epsilon, tau=system.params.tau,
                              d=system.params.d)
        twin = ps._FrontSystem(params, other, ps.make_grid(4.0, 41))
        assert twin._pattern() is system._pattern()
        _assert_same_entries(twin.jacobian(x, c), _bmat_jacobian(twin, x, c))

    def test_dynamic_jacobian_is_row_scaled(self, perturbed_system):
        system, x, c, _other = perturbed_system
        row_tau = np.concatenate([np.ones(system.nx)]
                                 + [np.full(system.nx, t) for t in system.params.tau])
        jac = system.jacobian(x, c)
        dynamic = system.dynamic_jacobian(x, c)
        # each V_j row divided by tau_j, as the row-wise assembly did; the
        # product with diag(1 / tau_j) agrees to rounding
        assert np.array_equal(dynamic.toarray(), jac.toarray() / row_tau[:, None])
        scaled = sp.diags(1.0 / row_tau) @ jac
        assert abs(dynamic - scaled).max() <= 4e-16 * abs(scaled).max()

    def test_pinned_row_is_unit_vector(self, perturbed_system):
        system, x, c, _other = perturbed_system
        ic = system.center
        pinned = system.pinned_jacobian(x, c).toarray()
        unit = np.zeros(system.size)
        unit[ic] = 1.0
        assert np.array_equal(pinned[ic], unit)
        jac = system.jacobian(x, c).toarray()
        assert np.array_equal(np.delete(pinned, ic, axis=0), np.delete(jac, ic, axis=0))

    def test_bordered_matrices(self, perturbed_system):
        system, x, c, _other = perturbed_system
        jac = system.jacobian(x, c)
        dc = system.residual_c_derivative(x)
        dp = system.residual_param_derivative(x, "alpha1")
        phase = np.zeros(system.size + 2)
        phase[system.center] = 1.0
        arc = np.random.default_rng(3).uniform(-1.0, 1.0, system.size + 2)
        travelling = sp.vstack([sp.hstack([jac, dc[:, None]]), phase[None, :-1]])
        _assert_same_entries(system.bordered(jac, [dc]), travelling)
        corrector = sp.vstack([sp.hstack([jac, dc[:, None], dp[:, None]]),
                               phase[None, :], arc[None, :]])
        _assert_same_entries(system.bordered(jac, [dc, dp], arc), corrector)

    @pytest.mark.parametrize("name", ["gamma", "alpha1", "beta1"])
    def test_param_derivative_is_unit_difference(self, perturbed_system, name):
        # R is affine in each coupling parameter p: dR/dp = R(p + 1) - R(p)
        system, x, c, _other = perturbed_system
        coupling = system.coupling
        at_p1 = system.with_coupling(coupling.with_param(name, coupling.param(name) + 1.0))
        r0, r1 = system.residual(x, c), at_p1.residual(x, c)
        diff = system.residual_param_derivative(x, name) - (r1 - r0)
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(r0))

    def test_continuation_leaves_its_system_unchanged(self, cusp_setup, monkeypatch):
        params, _ = cusp_setup
        template = Coupling(0.05, (1.45,), (0.0,), higher=(-1.0,))
        made = []

        class Recording(ps._FrontSystem):
            def __init__(self, *args):
                super().__init__(*args)
                made.append((self, self.coupling))

        monkeypatch.setattr(ps, "_FrontSystem", Recording)
        grid = ps.make_grid(20.0, 401, params.epsilon)
        points = ps.continue_branch(params, template, "alpha1", (1.2, 1.7), ds=0.03,
                                    grid=grid, max_points=5, guess_c=-1.3)
        assert len(points) == 5
        assert len({pt.param for pt in points}) == 5
        assert made and all(system.coupling is coupling for system, coupling in made)


@pytest.mark.parametrize("name", ["alpha0", "alpha2", "beta", "higher3", "delta"])
def test_bad_parameter_name_rejected_alike(cusp_setup, name):
    # N = 1, so alpha2 is alpha_{N+1}
    params, coupling = cusp_setup
    with pytest.raises(FrontlabError, match="coupling parameter") as from_folds:
        fl.fold_curves(params, coupling, (name, "gamma"), (0.0, 1.0, 0.0, 1.0), n_c=11)
    with pytest.raises(FrontlabError, match="coupling parameter") as from_branch:
        ps.continue_branch(params, coupling, name, (0.0, 1.0), ds=0.1)
    assert str(from_folds.value) == str(from_branch.value)


class TestSpectrum:
    def test_interface_mode_band(self, small_ac):
        # decoupled stationary front: translation at 0 and the classical
        # squared-secant operator eigenvalue at -3/2
        params, zero, grid = small_ac
        sol = ps.solve_stationary_front(params, zero, grid=grid)
        spec = ps.linearization_spectrum(sol, count=2 * grid.n_x, method="dense")
        assert abs(spec.translation_eigenvalue) <= 1e-6
        dist = np.min(np.abs(spec.eigenvalues - (-1.5)))
        assert dist <= 5e-3   # h^2-accurate discrete Poschl-Teller level

    def test_essential_band_edge(self, small_ac):
        params, zero, grid = small_ac
        sol = ps.solve_stationary_front(params, zero, grid=grid)
        spec = ps.linearization_spectrum(sol, count=8)
        edge = fl.essential_spectrum_bound(params)
        band = [z.real for z in spec.eigenvalues
                if abs(z) > 1e-6 and abs(z.real - edge) < abs(edge)]
        assert band
        assert min(abs(b / edge) for b in band) < 2.0

    def test_spectrum_converges_to_evans_limit(self):
        # criterion 5's yardstick at its three coupling ratios: the leading
        # nontrivial eigenvalue over eps^2 approaches the Evans root linearly
        # in eps, so the gap shrinks by about half per halving of eps, and
        # the extrapolated limit agrees with the root.  (At fixed small eps
        # the gap is first order with constant amplified by 1/|E0'(root)| --
        # the reason criterion 5 cannot meet 15% at eps = 0.05 for the
        # near-degenerate ratios.)
        from frontlab.evans import (evans_derivative, evans_eval_unchecked,
                                    holomorphic_roots)
        epss = (0.1, 0.05, 0.025)
        for frac in (0.8, 0.9, 1.1):
            coup = Coupling(0.0, (frac * 2 * SQRT2 / 3,), (0.0,))
            scaled = []
            for eps in epss:
                params = SystemParams(epsilon=eps, tau=(1.0,), d=(1.0,))
                n_x = int(2 * 12.0 / (eps / 6)) + 1
                grid = ps.make_grid(12.0, n_x, eps)
                sol = ps.solve_stationary_front(params, coup, grid=grid)
                spec = ps.linearization_spectrum(sol, count=8)
                scaled.append(spec.nontrivial()[0].real / eps ** 2)
            ctx = fl.evans_context(SystemParams(epsilon=0.05, tau=(1.0,), d=(1.0,)),
                                   coup, 0.0)
            roots, _ = holomorphic_roots(
                lambda z: evans_eval_unchecked(ctx, z) / z,
                lambda z: (evans_derivative(ctx, z) * z
                           - evans_eval_unchecked(ctx, z)) / z ** 2,
                (-0.6, 0.6, -0.3, 0.3), tol=1e-10, cuts=ctx.branch_points)
            target = max((z.real for z in (r for r, _m in roots)), key=abs)
            # linear-in-eps extrapolation from the two finest runs
            slope = (scaled[1] - scaled[2]) / (epss[1] - epss[2])
            limit = scaled[2] - slope * epss[2]
            assert limit == pytest.approx(target, rel=0.05), frac
            # O(eps) gaps: each halving of eps multiplies the gap by 0.54-0.56
            gaps = [abs(s - target) for s in scaled]
            assert 0.45 <= gaps[1] / gaps[0] <= 0.65, frac
            assert 0.45 <= gaps[2] / gaps[1] <= 0.65, frac

    def test_sparse_matches_dense(self, small_ac):
        params, zero, grid = small_ac
        coup = Coupling(0.0, (0.5,), (0.0,))
        sol = ps.solve_stationary_front(params, coup, grid=grid)
        dense = ps.linearization_spectrum(sol, count=6, method="dense")
        sparse = ps.linearization_spectrum(sol, count=6, method="sparse")
        a = np.sort_complex(dense.eigenvalues)
        b = np.sort_complex(sparse.eigenvalues)
        assert np.max(np.abs(a - b)) <= 1e-9


    def test_conjugate_pairs_are_canonical(self):
        # the N = 3 front of the CLI's deterministic-output run: a last-bit
        # change of the front reorders the raw ARPACK pairs; the report
        # keeps each pair exact and +Im first, so branch.csv's eig*_im
        # columns do not flip sign
        params = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        coup = Coupling(0.0, (578 * SQRT2 / 315, -289 / (90 * SQRT2),
                              3125 / (2142 * SQRT2)), (1.0, 0.0, 0.0))
        sol = ps.solve_travelling_front(params, coup, grid=ps.make_grid(1.5, 201))
        signs = set()
        for factor in (1.0, 1.0 + 2.2e-16, 1.0 - 2.2e-16):
            state = replace(sol.state, u=sol.state.u * factor)
            spec = ps.linearization_spectrum(replace(sol, state=state), count=8)
            assert spec.method == "sparse"
            eigs = spec.eigenvalues
            upper = np.nonzero(eigs.imag > 0)[0]
            assert len(upper) >= 2
            for i in upper:
                assert eigs[i + 1] == np.conj(eigs[i])
            signs.add(tuple(np.sign(eigs.imag)))
        assert len(signs) == 1

    def test_arpack_size_limits(self):
        params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
        grid = ps.make_grid(1.0, 5)
        x = grid.x
        state = ps.PdeState(t=0.0, u=np.tanh(x), v=np.tanh(x)[None, :], params=params,
                            coupling=Coupling(0.0, (0.0,), (0.0,)), grid=grid)
        sol = ps.FrontSolution(state=state, c=0.0, residual=0.0, iterations=0,
                               converged=True)
        spec = ps.linearization_spectrum(sol, count=8)
        assert spec.method == "dense" and len(spec.eigenvalues) == 8
        for count in (8, 0):
            with pytest.raises(FrontlabError, match=f"count={count}, size=10"):
                ps.linearization_spectrum(sol, count=count, method="sparse")


class TestContinuation:
    def test_cusp_fold_against_existence_oracle(self):
        params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
        template = Coupling(0.05, (1.45,), (0.0,), higher=(-1.0,))

        # oracle: fold locations from the existence module's fold curves,
        # interpolated to the slice gamma = 0.05
        branches = fl.fold_curves(params, template, ("alpha1", "gamma"),
                                  (0.9, 2.0, -0.2, 0.2), n_c=4001,
                                  c_range=(-3, 3))
        oracle = []
        for b in branches:
            pts, _cs = b.as_arrays()
            g = pts[:, 1] - 0.05
            for i in np.nonzero(g[:-1] * g[1:] < 0)[0]:
                w = g[i] / (g[i] - g[i + 1])
                oracle.append(pts[i, 0] + w * (pts[i + 1, 0] - pts[i, 0]))
        assert len(oracle) == 1
        oracle_alpha = float(oracle[0])

        rep = fl.gamma0_roots(params, template, interval=(-4, 4))
        grid = ps.make_grid(20.0, 401, params.epsilon)
        points = ps.continue_branch(params, template, "alpha1", (1.0, 1.6),
                                    ds=0.04, grid=grid, max_points=50,
                                    guess_c=rep[0][0], n_eigs=6, direction=-1.0)
        folds = [pt for pt in points if pt.tag == "fold"]
        assert len(folds) == 1
        assert folds[0].param == pytest.approx(oracle_alpha, rel=0.15)
        # near-zero leading real eigenvalue at the fold
        reals = [z.real for z in folds[0].eigenvalues if abs(z.imag) < 1e-8
                 and abs(z) > 1e-7]
        assert min(abs(r) for r in reals) <= 1e-2

    def test_reversal_consistency(self):
        params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
        template = Coupling(0.05, (1.45,), (0.0,), higher=(-1.0,))
        grid = ps.make_grid(20.0, 401, params.epsilon)
        rep = fl.gamma0_roots(params, template, interval=(-4, 4))
        fwd = ps.continue_branch(params, template, "alpha1", (1.2, 1.7),
                                 ds=0.03, grid=grid, max_points=10,
                                 guess_c=rep[0][0])
        last = fwd[-1]
        coup_last = Coupling(0.05, (last.param,), (0.0,), higher=(-1.0,))
        back = ps.continue_branch(params, coup_last, "alpha1", (1.2, 1.7),
                                  ds=0.03, grid=grid,
                                  max_points=len(fwd) + 2, guess_c=last.c,
                                  direction=-1.0)
        # the reversed branch re-solves the starting parameter point: the
        # solution there must agree with the forward start
        start = fwd[0]
        sol = ps.solve_travelling_front(
            params, Coupling(0.05, (start.param,), (0.0,), higher=(-1.0,)),
            guess=back[-1].state, guess_c=back[-1].c, grid=grid)
        assert sol.c == pytest.approx(start.c, abs=1e-6)
        assert np.max(np.abs(sol.state.u - start.state.u)) <= 1e-6


class TestPerturbations:
    def test_eigenfunction_perturbation_shape(self, small_ac):
        params, zero, grid = small_ac
        coup = Coupling(0.0, (0.5,), (0.0,))
        sol = ps.solve_stationary_front(params, coup, grid=grid)
        prof = eigenfunction_c0(params, 0.1, coup)
        pert = ps.perturb_with_profile(sol.state, prof, 1e-2)
        diff = pert.u - sol.state.u
        assert np.max(np.abs(diff)) == pytest.approx(1e-2, rel=0.3)
        assert np.max(np.abs(pert.v - sol.state.v)) <= 1e-2 + 1e-12

    def test_bump_perturbation(self, small_ac):
        params, zero, grid = small_ac
        state = ps.initial_front_state(params, zero, grid)
        pert = ps.perturb_with_bump(state, 0.05, width=0.5, center=1.0)
        assert np.max(pert.u - state.u) == pytest.approx(0.05, rel=1e-6)
