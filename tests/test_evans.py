import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from frontlab import (BranchCutError, Coupling, FrontlabError, SystemParams,
                      essential_spectrum_bound, evans_context, evans_eval,
                      evans_root_bound, evans_roots, evans_taylor_c0)
from frontlab import evans
from frontlab.evans import evans_pair, holomorphic_roots
from frontlab.verify import reference_parameter_sets
from oracles import double_factorial

SQRT2 = math.sqrt(2.0)


def real_root_oracle(params, coupling, lo, hi, skip_zero=True):
    """Bisection oracle for real roots of E0 (or E0/lambda) on (-1/tau, inf)."""
    ctx = evans_context(params, coupling, 0.0)

    def f(lam):
        val = evans_pair(ctx, complex(lam))[0]
        return (val / lam).real if skip_zero else val.real and val.real

    grid = np.linspace(lo, hi, 4001)
    roots = []
    vals = []
    for g in grid:
        vals.append(f(g) if abs(g) > 1e-12 else np.nan)
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a * b < 0:
            roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14))
    return roots


class TestEvansEval:
    def test_no_coupling_is_identity(self):
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.0), d=(1.0, 1.0))
        c = Coupling(0.0, (0.0, 0.0), (1.0, -2.0))
        ctx = evans_context(p, c, 0.0)
        for lam in (0.3 + 0.2j, -0.1 + 1j, 2.0):
            assert evans_eval(ctx, lam) == complex(lam)

    def test_translation_root(self, transcritical_set):
        params, coupling = transcritical_set
        ctx = evans_context(params, coupling, 0.0)
        assert evans_eval(ctx, 1e-300 + 1e-3j) != 0  # nearby but not at zero
        # the root at the origin is exact for any parameters
        p = SystemParams(epsilon=0.1, tau=(0.7, 1.9), d=(1.1, 0.4))
        c = Coupling(0.0, (1.2, -0.7), (0.0, 0.0))
        ctx2 = evans_context(p, c, 0.0)
        assert evans_pair(ctx2, 0.0)[0] == 0.0

    def test_hand_value(self, one_slow):
        # N=1, c=0, tau=d=1, alpha=1: E0(3) = 3 - 3 sqrt2/4
        c = Coupling(0.0, (1.0,), (0.0,))
        ctx = evans_context(one_slow, c, 0.0)
        assert evans_eval(ctx, 3.0) == pytest.approx(3 - 3 * SQRT2 / 4, abs=1e-14)

    def test_branch_cut_guard(self, one_slow):
        c = Coupling(0.0, (1.0,), (0.0,))
        ctx = evans_context(one_slow, c, 0.0)
        assert ctx.branch_points == (-1.0,)
        with pytest.raises(BranchCutError):
            evans_eval(ctx, -1.5 + 1e-14j)
        # off-cut evaluation close to the cut in real part is fine
        evans_eval(ctx, -1.5 + 1e-3j)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = SystemParams(epsilon=0.1, tau=tuple(rng.uniform(0.5, 3, n)),
                             d=tuple(rng.uniform(0.5, 3, n)))
            c = Coupling(0.0, tuple(rng.uniform(-3, 3, n)), (0.0,) * n)
            ctx = evans_context(p, c, rng.uniform(-1, 1))
            lam = complex(rng.uniform(-0.2, 2), rng.uniform(0.1, 2))
            a = evans_eval(ctx, lam)
            b = evans_eval(ctx, lam.conjugate())
            assert abs(a.conjugate() - b) < 1e-14 * max(1.0, abs(a))

    def test_derivative_matches_complex_step(self, transcritical_set):
        params, coupling = transcritical_set
        ctx = evans_context(params, coupling, 0.0)
        for lam in (0.2 + 0.1j, -0.05 + 0.4j, 1.5):
            h = 1e-6
            fd = (evans_pair(ctx, lam + h)[0] - evans_pair(ctx, lam - h)[0]) / (2 * h)
            assert abs(evans_pair(ctx, lam)[1] - fd) < 1e-7

    def test_matches_written_out_loop(self):
        # the scalar cmath loop of E0 and E0' is the reference; numpy's complex
        # division and power round differently, so agreement is to a few ulps
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = SystemParams(epsilon=0.1, tau=tuple(rng.uniform(0.5, 3, n)),
                             d=tuple(rng.uniform(0.5, 3, n)))
            c = Coupling(0.0, tuple(rng.uniform(-3, 3, n)), tuple(rng.uniform(-1, 1, n)))
            ctx = evans_context(p, c, rng.uniform(-1, 1))
            lam = rng.uniform(-0.2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
            e0, de0 = evans_pair(ctx, lam)
            for z, a, b in zip(lam.tolist(), e0, de0):
                want, dwant = z, 1.0
                for tau, d, g in zip(p.tau, p.d, ctx.grad):
                    arg = ctx.c ** 2 * tau ** 2 + 4.0 * d * d * (tau * z + 1.0)
                    want += 3 * SQRT2 * g * (1 / cmath.sqrt(arg)
                                             - 1 / math.sqrt(ctx.c ** 2 * tau ** 2 + 4 * d * d))
                    dwant += 3 * SQRT2 * g * (-2.0 * d * d * tau) * arg ** -1.5
                assert abs(a - want) <= 1e-14 * (abs(z) + 10 * sum(map(abs, ctx.grad)))
                assert abs(b - dwant) <= 1e-14 * (1 + 10 * sum(map(abs, ctx.grad)))

    def test_array_form_equals_scalar_view(self, transcritical_set):
        # one evaluator: on an array, E0 and E0' are the scalar values bit for bit
        params, coupling = transcritical_set
        ctx = evans_context(params, coupling, 0.3)
        lam = np.array([[0.2 + 0.1j, -0.05 + 0.4j], [1.5, 3.0 - 2.0j]])
        e0, de0 = evans_pair(ctx, lam)
        assert e0.shape == de0.shape == lam.shape
        for z, a, b in zip(lam.ravel().tolist(), e0.ravel(), de0.ravel()):
            assert a == evans_pair(ctx, z)[0] == evans_eval(ctx, z)
            assert b == evans_pair(ctx, z)[1]


class TestEvansTaylor:
    def test_no_coupling_series_is_lambda(self, one_slow):
        c = Coupling(0.0, (0.0,), (0.0,))
        s = evans_taylor_c0(one_slow, c, 5)
        assert s.coeffs == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_double_zero_coefficient(self, one_slow):
        c = Coupling(0.0, (2 * SQRT2 / 3,), (0.0,))
        s = evans_taylor_c0(one_slow, c, 3)
        assert abs(s.coefficient(1)) < 1e-15

    @pytest.mark.parametrize("ref", reference_parameter_sets(), ids=lambda ref: ref[0])
    def test_reference_zero_root_multiplicity(self, ref):
        # each reference set's E0 has a zero root of its printed multiplicity
        # at c = 0: coefficients 1..mult-1 vanish, coefficient mult does not
        _name, params, coupling, (_m, mult) = ref
        s = evans_taylor_c0(params, coupling, mult + 1)
        assert max(abs(s.coefficient(k)) for k in range(1, mult)) <= 1e-12
        assert abs(s.coefficient(mult)) > 1e-6

    def test_matches_richardson_differences(self):
        p = SystemParams(epsilon=0.1, tau=(0.8, 1.7), d=(1.2, 0.9))
        c = Coupling(0.0, (0.7, -0.4), (0.0, 0.0))
        ctx = evans_context(p, c, 0.0)
        s = evans_taylor_c0(p, c, 4)
        # balance truncation against the ~1e-16 evaluation noise amplified by
        # the fourth difference: h^4-extrapolated error and 6*eps/h^4 noise
        # cross near h ~ 6e-3
        h = 6e-3

        def scan(step):
            return [evans_pair(ctx, complex(k * step))[0].real
                    for k in range(-2, 3)]

        def deriv(order, step):
            v = scan(step)
            if order == 1:
                return (v[3] - v[1]) / (2 * step)
            if order == 2:
                return (v[3] - 2 * v[2] + v[1]) / step ** 2
            if order == 3:
                return (v[4] - 2 * v[3] + 2 * v[1] - v[0]) / (2 * step ** 3)
            return (v[4] - 4 * v[3] + 6 * v[2] - 4 * v[1] + v[0]) / step ** 4

        for k in range(1, 5):
            rich = (4 * deriv(k, h / 2) - deriv(k, h)) / 3
            want = rich / math.factorial(k)
            assert s.coefficient(k) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_exact_rational_oracle(self):
        # coefficient k >= 1 is [k = 1] + (3 sqrt(2)/2) S_k with the binomial
        # sum S_k = sum_j alpha_j (-1)^k (2k-1)!!/(2k)!! tau_j^k / d_j taken
        # in exact rationals of the float inputs
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = SystemParams(epsilon=0.1, tau=tuple(rng.uniform(0.3, 3, n)),
                             d=tuple(rng.uniform(0.3, 3, n)))
            c = Coupling(0.0, tuple(rng.uniform(-2, 2, n)), (0.0,) * n)
            s = evans_taylor_c0(p, c, 8)
            for k in range(1, 9):
                weight = Fraction((-1) ** k * double_factorial(2 * k - 1),
                                  double_factorial(2 * k))
                exact = sum(Fraction(a) * weight * Fraction(t) ** k / Fraction(d)
                            for a, t, d in zip(c.alpha, p.tau, p.d))
                want = (k == 1) + 1.5 * SQRT2 * float(exact)
                assert s.coefficient(k) == pytest.approx(want, rel=1e-14)


class TestRootBound:
    def test_no_coupling(self):
        p = SystemParams(epsilon=0.1, tau=(2.0, 4.0), d=(1.0, 1.0))
        c = Coupling(0.0, (0.0, 0.0), (0.0, 0.0))
        assert evans_root_bound(evans_context(p, c, 0.0)) == pytest.approx(1.0)

    def test_single_component(self, one_slow):
        c = Coupling(0.0, (1.0,), (0.0,))
        assert evans_root_bound(evans_context(one_slow, c, 0.0)) == pytest.approx(3 * SQRT2)

    def test_requires_stationary(self, one_slow):
        c = Coupling(0.0, (1.0,), (0.0,))
        with pytest.raises(FrontlabError):
            evans_root_bound(evans_context(one_slow, c, 0.5))

    def test_transcritical_disk_holds_four_roots(self, transcritical_set):
        params, coupling = transcritical_set
        ctx = evans_context(params, coupling, 0.0)
        bound = evans_root_bound(ctx)
        assert np.isfinite(bound)
        rs = evans_roots(ctx, (-bound, bound, -bound, bound))
        assert rs.winding_total == 4

    def test_random_roots_inside_bound(self):
        rng = np.random.default_rng(21)
        trials = 0
        while trials < 25:
            n = int(rng.integers(1, 4))
            tau = tuple(np.sort(rng.uniform(0.5, 3, n)))
            if n > 1 and np.min(np.diff(tau)) < 0.05:
                continue
            p = SystemParams(epsilon=0.1, tau=tau, d=tuple(rng.uniform(0.5, 3, n)))
            c = Coupling(0.0, tuple(rng.uniform(-3, 3, n)), (0.0,) * n)
            ctx = evans_context(p, c, 0.0)
            bound = evans_root_bound(ctx)
            rs = evans_roots(ctx, (-1.5 * bound, 1.5 * bound, -1.5 * bound, 1.5 * bound))
            for z, _m in rs.roots:
                assert abs(z) <= bound * (1 + 1e-6)
            trials += 1


class TestEvansRoots:
    def test_no_coupling_box(self):
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.0), d=(1.0, 1.0))
        c = Coupling(0.0, (0.0, 0.0), (0.0, 0.0))
        rs = evans_roots(evans_context(p, c, 0.0), (-1, 1, -1, 1))
        assert rs.winding_total == 1
        assert len(rs.roots) == 1
        assert abs(rs.roots[0][0]) < 1e-12

    def test_split_double_root_directions(self, one_slow):
        # bisection oracle on the real restriction confirms the split partner
        for da, sign in ((0.05, +1), (-0.05, -1)):
            c = Coupling(0.0, (2 * SQRT2 / 3 + da,), (0.0,))
            oracle = real_root_oracle(one_slow, c, -0.5, 0.5)
            assert len(oracle) == 1
            assert math.copysign(1, oracle[0]) == sign
            rs = evans_roots(evans_context(one_slow, c, 0.0), (-0.3, 0.3, -0.2, 0.2))
            assert rs.winding_total == 2
            locs = sorted(rs.locations, key=abs)
            assert abs(locs[0]) < 1e-10                       # translation root
            assert locs[1].real == pytest.approx(oracle[0], abs=1e-9)
            assert abs(locs[1].imag) < 1e-10

    def test_transcritical_small_box_winding(self, transcritical_set):
        params, coupling = transcritical_set
        rs = evans_roots(evans_context(params, coupling, 0.0),
                         (-0.05, 0.05, -0.05, 0.05))
        assert rs.winding_total == 4
        assert rs.total_multiplicity == 4

    def test_conjugation_closure(self):
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        from frontlab import design_evans_degeneracy
        base = design_evans_degeneracy(p)
        c = Coupling(0.0, tuple(base + np.array([2e-3, -1e-3, 5e-4])), (0.0,) * 3)
        rs = evans_roots(evans_context(p, c, 0.0), (-0.3, 0.3, -0.3, 0.3))
        locs = [z for z, m in rs.roots for _ in range(m)]
        for z in locs:
            if abs(z.imag) > 1e-9:
                partner = min(locs, key=lambda w: abs(w - z.conjugate()))
                assert abs(partner - z.conjugate()) < 1e-8

    def test_winding_stable_under_tiny_perturbation(self, transcritical_set):
        params, coupling = transcritical_set
        box = (-0.5, 0.5, -0.5, 0.5)
        rs0 = evans_roots(evans_context(params, coupling, 0.0), box)
        alpha = np.asarray(coupling.alpha) + 1e-4 * np.array([1.0, -1.0, 0.5])
        c2 = Coupling(0.0, tuple(alpha), coupling.beta)
        rs1 = evans_roots(evans_context(params, c2, 0.0), box)
        assert rs0.winding_total == rs1.winding_total

    @pytest.mark.parametrize("case, most", [("criterion 2", 6), ("unfolding", 12)])
    def test_calls_evaluate_each_point_once(self, transcritical_set, monkeypatch, case, most):
        # the criterion-2 box and an N = 3 unfolding box (|delta| 1e-3):
        # every evans_pair call evaluates E0 and E0' together, each point
        # once, and the whole search takes a handful of calls
        from frontlab import design_evans_degeneracy, evans
        from frontlab.designer import linear_unfolding_map, unfolding_polynomial_roots
        params, coupling = transcritical_set
        box = (-0.05, 0.05, -0.05, 0.05)
        if case == "unfolding":
            delta = 1e-3 * np.array([1.0, -0.5, 0.25]) / math.sqrt(1.3125)
            coupling = Coupling(0.0, tuple(design_evans_degeneracy(params) + delta), (0.0,) * 3)
            r = 4.0 * float(np.max(np.abs(unfolding_polynomial_roots(
                linear_unfolding_map(params, delta)))))
            box = (-r, r, -r, r)
        pair, calls = evans.evans_pair, []

        def counted_pair(ctx, lam):
            calls.append(np.atleast_1d(lam))
            return pair(ctx, lam)

        monkeypatch.setattr(evans, "evans_pair", counted_pair)
        rs = evans_roots(evans_context(params, coupling, 0.0), box)
        assert rs.winding_total == rs.total_multiplicity == 4
        assert 1 <= len(calls) <= most
        for lam in calls:
            assert len(np.unique(lam)) == len(lam)

    def test_root_pairs_are_canonical(self):
        # a last-bit change of the coupling must not reorder a conjugate
        # pair: each pair is exact and ordered -Im first, and a root without
        # a partner next to the real axis is real
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        from frontlab import design_evans_degeneracy
        alpha = design_evans_degeneracy(p) + np.array([2e-3, -1e-3, 5e-4])
        layouts = set()
        for factor in (1.0, 1.0 + 2.2e-16, 1.0 - 2.2e-16):
            ctx = evans_context(p, Coupling(0.0, tuple(alpha * factor), (0.0,) * 3), 0.0)
            locs = evans_roots(ctx, (-0.3, 0.3, -0.3, 0.3)).locations
            assert any(z.imag for z in locs)
            for k, z in enumerate(locs):
                if z.imag < 0:
                    assert locs[k + 1] == z.conjugate()
            layouts.add(tuple(np.sign([z.imag for z in locs])))
        assert len(layouts) == 1

    def test_box_not_symmetric_about_the_real_axis(self):
        # (-0.3, 0.3, -0.03, 0.3) holds the upper member of the pair near
        # -0.041 +- 0.056i but not its partner: that root is returned as
        # found, not paired with another root, and the real roots stay real
        p = SystemParams(epsilon=0.1, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        from frontlab import design_evans_degeneracy
        alpha = design_evans_degeneracy(p) + np.array([2e-3, -1e-3, 5e-4])
        ctx = evans_context(p, Coupling(0.0, tuple(alpha), (0.0,) * 3), 0.0)
        full = evans_roots(ctx, (-0.3, 0.3, -0.3, 0.3)).locations
        upper = evans_roots(ctx, (-0.3, 0.3, -0.03, 0.3)).locations
        assert len(full) == 4 and len(upper) == 3
        for z, w in zip(upper, full[1:]):
            assert abs(z - w) <= 1e-10
        assert upper[0].imag > 0.05 and upper[1].imag == upper[2].imag == 0.0

    def test_real_root_agrees_between_boxes(self):
        # the N = 1 set alpha_1 0.9, eps 0.05: Newton stops on a relative
        # step, so the real root near -0.0602 is the same to rounding from
        # two different boxes
        ctx = evans_context(SystemParams(epsilon=0.05, tau=(1.0,), d=(1.0,)),
                            Coupling(0.0, (0.9,), (0.0,)), 0.0)
        roots = [min(evans_roots(ctx, box).locations, key=lambda z: abs(z + 0.0602))
                 for box in ((-0.5, 0.5, -0.5, 0.5), (-0.5, 0.5, -0.3, 0.2))]
        assert abs(roots[0] + 0.0602) < 1e-4
        assert abs(roots[0] - roots[1]) <= 1e-14

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_fourfold_root_is_one_root(self, index):
        # each reference set's designed fourfold zero root comes back as one
        # root of multiplicity 4 at 0, from the small box and the bound box
        _name, params, coupling, _orders = reference_parameter_sets()[index]
        ctx = evans_context(params, coupling, 0.0)
        bound = evans_root_bound(ctx)
        for box in ((-0.05, 0.05, -0.05, 0.05), (-bound, bound, -bound, bound)):
            rs = evans_roots(ctx, box)
            assert [m for _z, m in rs.roots] == [4]
            assert abs(rs.roots[0][0]) <= 1e-10

    @pytest.mark.parametrize("delta", [
        1e-6 * np.array([1.0, -0.5, 0.25]) / math.sqrt(1.3125),
        np.array([8.822979010758619e-07, 4.3500612608566473e-07, -5.23277895437025e-07])])
    def test_unfolding_in_the_bound_box(self, transcritical_set, delta):
        # N = 3 unfoldings with |delta| about 1e-6: the four simple roots lie
        # within 0.006 of 0, a few 1e-4 of the bound box's half-diagonal,
        # where the pencil takes them for fewer roots with fractional
        # weights; they come back as the four simple roots that a box of
        # four times the predicted roots gives
        from frontlab import design_evans_degeneracy
        from frontlab.designer import linear_unfolding_map, unfolding_polynomial_roots
        params, coupling = transcritical_set
        ctx = evans_context(params, Coupling(0.0, tuple(design_evans_degeneracy(params) + delta),
                                             (0.0,) * 3), 0.0)
        r = 4.0 * float(np.max(np.abs(unfolding_polynomial_roots(
            linear_unfolding_map(params, delta)))))
        near = evans_roots(ctx, (-r, r, -r, r)).roots
        bound = evans_root_bound(ctx)
        far = evans_roots(ctx, (-bound, bound, -bound, bound)).roots
        assert [m for _z, m in near] == [m for _z, m in far] == [1, 1, 1, 1]
        assert max(abs(z - w) for (z, _m), (w, _k) in zip(near, far)) <= 1e-8

    def test_root_next_to_the_branch_point(self):
        # a random N = 3 set with a real root 1.3e-4 right of its rightmost
        # branch point, inside the piece whose left edge runs 8e-6 from it;
        # phase tracking on this box missed the root and counted 1
        ctx = evans_context(
            SystemParams(epsilon=0.1, tau=(1.5399660054315163, 1.6300970525323637,
                                           2.5105704755502405),
                         d=(0.8042197384720563, 1.6352928866119505, 0.8325144784484604)),
            Coupling(0.0, (-5.905053590919639, -0.1649220881706448, 9.045981179933023),
                     (0.0,) * 3), -0.6515036200359237)
        rs = evans_roots(ctx, (-0.9380039371656714, 0.15995131829454534,
                               -2.727815409045326, 5.460177671988029))
        assert rs.winding_total == rs.total_multiplicity == 2
        z = rs.locations[0]
        assert 1e-4 < z.real - max(ctx.branch_points) < 2e-4 and z.imag == 0.0
        below, above = (evans_pair(ctx, z.real + h)[0].real for h in (-1e-7, 1e-7))
        assert below * above < 0

    def test_winding_failure_is_a_frontlab_error(self, transcritical_set):
        # E0 has a fourfold root at 0, so a box with its edge on the real
        # axis through 0 cannot be resolved; the error names the box
        params, coupling = transcritical_set
        ctx = evans_context(params, coupling, 0.0)
        for box in ((-0.05, 0.05, 0.0, 0.05), (-0.5, 0.5, 0.0, 0.5)):
            with pytest.raises(FrontlabError, match="searched box") as info:
                evans_roots(ctx, box)
            assert str(box) in str(info.value)

    def test_degenerate_region_rejected(self, one_slow):
        c = Coupling(0.0, (1.0,), (0.0,))
        with pytest.raises(FrontlabError):
            evans_roots(evans_context(one_slow, c, 0.0), (1.0, -1.0, -1.0, 1.0))


def planted_polynomial(roots):
    """fdf of prod (z - r)^m in product form, exact to rounding near each root."""
    def fdf(z):
        factors = [(z - r) ** m for r, m in roots]
        f = np.prod(factors, axis=0)
        df = sum(m * (z - r) ** (m - 1)
                 * np.prod([g for j, g in enumerate(factors) if j != k], axis=0)
                 for k, (r, m) in enumerate(roots))
        return f, df
    return fdf


class TestHolomorphicRoots:
    def test_planted_polynomial_roots(self):
        # one root 1e-9 inside the right edge, a conjugate pair, a double root
        planted = [(1.0 - 1e-9 + 0.3j, 1), (0.3 + 0.2j, 1), (0.3 - 0.2j, 1),
                   (-0.4 + 0.1j, 2), (-0.7 - 0.6j, 1)]
        roots, total = holomorphic_roots(planted_polynomial(planted), (-1.0, 1.0, -1.0, 1.0),
                                         tol=1e-10)
        assert total == 6
        assert sorted(m for _z, m in roots) == [1, 1, 1, 1, 2]
        for r, m in planted:
            z, mult = min(roots, key=lambda zm: abs(zm[0] - r))
            assert mult == m
            assert abs(z - r) <= (1e-12 if m == 1 else 1e-10)

    def test_root_outside_the_box_is_not_counted(self):
        fdf = planted_polynomial([(1.0 + 1e-9 + 0.3j, 1), (0.1j, 1)])
        roots, total = holomorphic_roots(fdf, (-1.0, 1.0, -1.0, 1.0))
        assert total == 1
        assert abs(roots[0][0] - 0.1j) <= 1e-12

    @pytest.mark.parametrize("spread", [0.05, 0.005, 1e-4])
    def test_close_simple_roots_stay_simple(self, spread):
        # four simple roots a few hundredths of the box or less apart: the
        # pencil's rank cut sees fewer, with fractional weights, and the
        # cluster is searched again at its own scale, in a few calls
        planted, calls = [(0.0, 1), (spread, 1), (-spread, 1), (1j * spread, 1)], []
        fdf = planted_polynomial(planted)

        def counted(z):
            calls.append(z)
            return fdf(z)

        roots, total = holomorphic_roots(counted, (-1.0, 1.0, -1.0, 1.0))
        assert total == 4 and len(calls) <= 6
        assert sorted(m for _z, m in roots) == [1, 1, 1, 1]
        for r, _m in planted:
            assert min(abs(z - r) for z, _m in roots) <= 1e-12

    def test_polished_roots_that_meet_split_their_box(self, monkeypatch):
        # two pencil starts that Newton takes to one root are not merged
        # into a double root: the box is quadrisected
        pencil, starts = evans._pencil, []

        def one_start_twice(s, count):
            u, mult = pencil(s, count)
            if not starts:
                u = np.array([u[0], u[0] + 1e-3])
            starts.append(count)
            return u, mult

        monkeypatch.setattr(evans, "_pencil", one_start_twice)
        planted = [(0.3 + 0.1j, 1), (-0.5 - 0.4j, 1)]
        roots, total = holomorphic_roots(planted_polynomial(planted), (-1.0, 1.0, -1.0, 1.0))
        assert total == 2 and len(starts) > 1
        assert sorted(m for _z, m in roots) == [1, 1]
        for r, _m in planted:
            assert min(abs(z - r) for z, _m in roots) <= 1e-12

    def test_square_that_misses_a_root_falls_back_to_quadrisection(self, monkeypatch):
        # a pencil whose roots all sit in one corner gives a square that
        # does not hold the far root: its count differs, and the box is
        # quadrisected instead
        pencil, seen = evans._pencil, []

        def cornered(s, count):
            u, mult = pencil(s, count)
            if not seen:
                u, mult = np.array([u[0], u[0] + 1e-3]), None
            seen.append(count)
            return u, mult

        monkeypatch.setattr(evans, "_pencil", cornered)
        planted = [(0.3 + 0.1j, 1), (-0.5 - 0.4j, 1)]
        roots, total = holomorphic_roots(planted_polynomial(planted), (-1.0, 1.0, -1.0, 1.0))
        assert total == 2
        assert sorted(m for _z, m in roots) == [1, 1]
        for r, _m in planted:
            assert min(abs(z - r) for z, _m in roots) <= 1e-12


def planted_next_to_cut(roots, b):
    """fdf of prod (z - r)^m times the unit 2 + sqrt(z - b), whose branch
    point b has its cut on the real ray left of it."""
    poly = planted_polynomial(roots)

    def fdf(z):
        p, dp = poly(z)
        root = np.sqrt(z - b)
        return p * (2.0 + root), dp * (2.0 + root) + p / (2.0 * root)
    return fdf


class TestRootsNextToACut:
    def check(self, planted, roots, total):
        assert total == sum(m for _r, m in planted)
        assert sorted(m for _z, m in roots) == sorted(m for _r, m in planted)
        for r, m in planted:
            z, mult = min(roots, key=lambda zm: abs(zm[0] - r))
            assert mult == m
            assert abs(z - r) <= (1e-12 if m == 1 else 1e-10)

    def test_pair_right_of_the_branch_point(self):
        # a conjugate pair 1e-3 right of the branch point, in the piece
        # whose left edge runs 1e-6 from it, and a pair above the cut
        planted = [(-0.499 + 0.004j, 1), (-0.499 - 0.004j, 1),
                   (-0.7 + 0.3j, 1), (-0.7 - 0.3j, 1), (0.4, 1)]
        roots, total = holomorphic_roots(planted_next_to_cut(planted, -0.5),
                                         (-1.0, 1.0, -1.0, 1.0), cuts=(-0.5,))
        self.check(planted, roots, total)

    def test_double_root(self):
        planted = [(0.3 + 0.4j, 2), (0.3 - 0.4j, 1), (-0.2, 1)]
        roots, total = holomorphic_roots(planted_next_to_cut(planted, -0.5),
                                         (-1.0, 1.0, -1.0, 1.0), tol=1e-10, cuts=(-0.5,))
        self.check(planted, roots, total)

    def test_more_real_roots_than_one_pencil_takes(self):
        # eight real roots in the piece right of the cut: the box is
        # quadrisected off the real axis, the children share their edges,
        # and each call still evaluates each point once
        planted = [(x, 1) for x in (-0.35, -0.2, -0.05, 0.1, 0.25, 0.4, 0.55, 0.7)]
        fdf, calls = planted_next_to_cut(planted, -0.8), []

        def counted(z):
            calls.append(z)
            return fdf(z)

        roots, total = holomorphic_roots(counted, (-1.0, 1.0, -0.5, 0.5), cuts=(-0.8,))
        self.check(planted, roots, total)
        assert all(len(np.unique(z)) == len(z) for z in calls)


class TestEssentialSpectrumBound:
    def test_arithmetic(self):
        p = SystemParams(epsilon=0.1, tau=(1.0, 4.0), d=(1.0, 1.0))
        assert essential_spectrum_bound(p) == pytest.approx(-0.0025)

    def test_limit(self):
        p = SystemParams(epsilon=1e-8, tau=(2.0,), d=(1.0,))
        assert -1e-15 < essential_spectrum_bound(p) < 0

    def test_three_components(self):
        p = SystemParams(epsilon=0.03, tau=(2.0, 2.25, 2.89), d=(1.0, 1.0, 1.0))
        assert essential_spectrum_bound(p) == pytest.approx(-9e-4 / 2.89, rel=1e-12)
