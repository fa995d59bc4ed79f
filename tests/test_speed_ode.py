import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab import (Coupling, FrontlabError, ScaledNF, SpeedODE,
                      SystemParams, build_from_analysis,
                      equilibria_and_classification, evans_context,
                      gamma0_roots, integrate, lyapunov_max, shilnikov_shoot)
from frontlab.designer import _unfold, design_evans_degeneracy, unfolding_polynomial_roots
from frontlab.errors import ConvergenceError
from frontlab.evans import holomorphic_roots
from frontlab import speed_ode
from frontlab.speed_ode import TAYLOR_ORDER, classify_eigenvalues
from frontlab.verify import deflated_evans, hausdorff, reference_parameter_sets

SQRT2 = math.sqrt(2.0)


class TestStructure:
    def test_nilpotent_superdiagonal(self):
        ode = SpeedODE(a0=0.3, a_lin=(0.1, -0.2, 0.5, 0.7),
                       a_quad=(1.0, 0.5, 0.0, -0.3), epsilon=0.2)
        rng = np.random.default_rng(1)
        for _ in range(5):
            c = rng.uniform(-1, 1, 4)
            jac = ode.jacobian_at(c)
            for k in range(3):
                row = np.zeros(4)
                row[k + 1] = ode.epsilon ** 2
                assert np.allclose(jac[k], row)

    def test_jacobian_matches_finite_differences(self):
        ode = SpeedODE(a0=0.2, a_lin=(0.4, -0.1, 0.9),
                       a_quad=(0.7, -0.4, 0.2), epsilon=0.3)
        nf = ScaledNF(nu0=-0.3, nu=(0.2, -0.5, 0.1), a11=0.8, a12=0.4, delta=0.05)
        rng = np.random.default_rng(2)
        for sys_ in (ode, nf):
            c = rng.uniform(-0.5, 0.5, 3)
            jac = sys_.jacobian_at(c)
            h = 1e-7
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (sys_.field_at(c + e) - sys_.field_at(c - e)) / (2 * h)
                assert np.allclose(jac[:, j], fd, atol=1e-6)


_coef = st.floats(-2.0, 2.0, allow_nan=False)

# |computed - written-out| <= ROW_RTOL * (sum of the written-out terms' sizes):
# a few roundings of at most 2^-53 each, whatever the summation order.  A
# rounding to a subnormal result errs by up to half the smallest subnormal,
# not 2^-53 relative, so the bound has a floor of one smallest subnormal per
# rounding: both sides round at most two products and one sum per term, and
# the scale.
ROW_RTOL = 1e-14
SUBNORMAL = np.finfo(float).smallest_subnormal


def _speed_ode_rows(ode, c):
    """SpeedODE's scale, last-row terms and Jacobian-row terms, written out:
    eps^2 (a0 + a.c + c_1 a_quad.c)."""
    n, a, q = ode.dim, ode.a_lin, ode.a_quad
    terms = [ode.a0] + [a[j] * c[j] for j in range(n)] + [c[0] * q[j] * c[j] for j in range(n)]
    grad = [[a[j], c[0] * q[j]] for j in range(n)]
    grad[0] += [q[j] * c[j] for j in range(n)]
    return ode.epsilon ** 2, terms, grad


def _scaled_nf_rows(nf, z):
    """ScaledNF's scale, last-row terms and Jacobian-row terms, written out:
    nu0 + nu.z + a11 z_1^2 + a12 delta z_1 z_2."""
    n, nu, b = len(nf.nu), nf.nu, nf.a12 * nf.delta
    terms = [nf.nu0] + [nu[j] * z[j] for j in range(n)] + [nf.a11 * z[0] ** 2]
    grad = [[nu[j]] for j in range(n)]
    grad[0].append(2.0 * nf.a11 * z[0])
    if n >= 2:
        terms.append(b * z[0] * z[1])
        grad[0].append(b * z[1])
        grad[1].append(b * z[0])
    return 1.0, terms, grad


def _close(got, scale, terms):
    roundings = 2 * (3 * len(terms) + 1)
    return (abs(got - scale * sum(terms))
            <= ROW_RTOL * scale * sum(abs(t) for t in terms) + roundings * SUBNORMAL)


def test_close_floor_covers_subnormal_roundings_only():
    # the case hypothesis shrinks to without the floor: a11 z + z a11 against
    # the written-out 2 a11 z, both subnormal and one rounding apart
    a11, z = 8.575e-300, 2.6468e-18
    assert a11 * z + z * a11 != 2.0 * a11 * z
    assert _close(a11 * z + z * a11, 1.0, [0.0, 2.0 * a11 * z])
    assert not _close(2.0 * a11 * z + 20 * SUBNORMAL, 1.0, [0.0, 2.0 * a11 * z])
    # in the normal range the bound is ROW_RTOL of the term sizes (7.5e-15
    # here) and the floor adds nothing to it
    assert _close(0.75 + 7e-15, 1.0, [0.5, 0.25])
    assert not _close(0.75 + 8e-15, 1.0, [0.5, 0.25])


@st.composite
def _forms(draw):
    n = draw(st.integers(1, 4))
    vec = st.lists(_coef, min_size=n, max_size=n).map(tuple)
    ode = SpeedODE(a0=draw(_coef), a_lin=draw(vec), a_quad=draw(vec),
                   epsilon=draw(st.floats(0.01, 1.0)))
    nf = ScaledNF(nu0=draw(_coef), nu=draw(vec), a11=draw(_coef), a12=draw(_coef),
                  delta=draw(_coef))
    return ode, nf, np.array(draw(vec)), draw(vec), draw(vec)


class TestOneCompanionForm:
    """SpeedODE and ScaledNF against their last rows written out by hand."""

    @settings(max_examples=200, deadline=None)
    @given(_forms(), st.sampled_from([math.nan, math.inf]))
    def test_field_and_jacobian_against_written_out_rows(self, case, bad):
        ode, nf, z, nu_new, w = case
        n = len(z)
        # replace must recompute the form: nf_new is checked against rows
        # written out from its own, new nu
        nf_new = replace(nf, nu=nu_new)
        for form, rows in ((ode, _speed_ode_rows), (nf, _scaled_nf_rows),
                           (nf_new, _scaled_nf_rows)):
            scale, terms, grad = rows(form, z)
            field_ = form.field_at(z)
            assert form.dim == n and field_.shape == (n,)
            assert np.array_equal(field_[:-1], scale * z[1:])
            assert _close(field_[-1], scale, terms)
            jac = form.jacobian_at(z)
            assert np.array_equal(jac[:-1], scale * np.eye(n, k=1)[:-1])
            assert all(_close(jac[-1, j], scale, grad[j]) for j in range(n))
            # the recurrence's order-1 coefficients: the field, and the
            # tangent J(z) w, built without J, against the written-out
            # Jacobian row times w, term by term
            c_1 = form.taylor(z, w)[1]
            assert c_1[:n - 1] == field_[:-1].tolist()
            assert _close(c_1[n - 1], scale, terms)
            assert c_1[n:-1] == (scale * np.array(w[1:])).tolist()
            assert _close(c_1[-1], scale, [g * w[j] for j in range(n) for g in grad[j]])
        assert ode.scalar_equilibrium_coeffs() == (ode.a0, ode.a_lin[0], ode.a_quad[0])
        for form in (nf, nf_new):
            assert form.scalar_equilibrium_coeffs() == (form.nu0, form.nu[0], form.a11)
        # a non-finite coefficient is rejected where the form is built
        spoiled = [dict(a0=bad), dict(epsilon=bad), dict(a_lin=(bad,) + ode.a_lin[1:]),
                   dict(a_quad=ode.a_quad[:-1] + (bad,))]
        spoiled_nf = [dict(nu0=bad), dict(a11=bad), dict(nu=nf.nu[:-1] + (bad,))]
        if n >= 2:   # a12 and delta enter from dimension 2 on
            spoiled_nf += [dict(a12=bad, delta=1.0), dict(delta=bad)]
        for form, changes in [(ode, c) for c in spoiled] + [(nf, c) for c in spoiled_nf]:
            with pytest.raises(FrontlabError, match="must be finite"):
                replace(form, **changes)

    def test_recurrence_against_exact_series(self):
        # c' = s c^2 through c0 is c0 / (1 - s c0 t) = sum c0^(m+1) s^m t^m,
        # and its tangent w' = 2 s c w through w0 is w0 / (1 - s c0 t)^2
        s, c0, w0 = 0.49, 0.8, -1.3
        ode = SpeedODE(a0=0.0, a_lin=(0.0,), a_quad=(1.0,), epsilon=0.7)
        rows = ode.taylor([c0], [w0])
        assert len(rows) == TAYLOR_ORDER + 1
        for m, (c, w) in enumerate(rows):
            assert c == pytest.approx(c0 ** (m + 1) * s ** m, rel=1e-13)
            assert w == pytest.approx(w0 * (m + 1) * (s * c0) ** m, rel=1e-13)
        # the harmonic pair z1' = z2, z2' = -z1 through (1, 0) is
        # (cos t, -sin t); the zero coefficients are exact
        pair = SpeedODE(a0=0.0, a_lin=(-1.0, 0.0), a_quad=(0.0, 0.0),
                        epsilon=1.0)
        for m, (z1, z2) in enumerate(pair.taylor([1.0, 0.0])):
            sign = (-1) ** (m // 2) / math.factorial(m)
            assert z1 == pytest.approx(sign if m % 2 == 0 else 0.0, rel=1e-14, abs=0.0)
            assert z2 == pytest.approx(-sign if m % 2 == 1 else 0.0, rel=1e-14, abs=0.0)


def _taylor_written_out(form, z, w=()):
    """The order-20 recurrence term by term, from the form's public fields:
    every sum a generator over indices from 0, so its terms are added left
    to right in the order of the indices."""
    if isinstance(form, SpeedODE):
        n, a0, a, q, s = form.dim, form.a0, form.a_lin, form.a_quad, form.epsilon ** 2
    else:
        n, a0, a, s = len(form.nu), form.nu0, form.nu, 1.0
        q = ((form.a11, form.a12 * form.delta) + (0.0,) * n)[:n]
    rows, qz, qw = [[float(x) for x in z] + [float(x) for x in w]], [], []
    for k in range(TAYLOR_ORDER):
        c, r = rows[k], s / (k + 1)
        qz.append(sum(q[j] * c[j] for j in range(n)))
        last = (sum(a[j] * c[j] for j in range(n))
                + sum(rows[i][0] * qz[k - i] for i in range(k + 1)))
        new = [r * c[j] for j in range(1, n)] + [r * (last + a0 if k == 0 else last)]
        if w:
            qw.append(sum(q[j] * c[n + j] for j in range(n)))
            tan = (sum(a[j] * c[n + j] for j in range(n))
                   + sum(rows[i][n] * qz[k - i] + rows[i][0] * qw[k - i]
                         for i in range(k + 1)))
            new += [r * c[n + j] for j in range(1, n)] + [r * tan]
        rows.append(new)
    return rows


def test_taylor_kernel_equals_the_written_out_recurrence():
    # bit for bit (==), with and without a tangent, n = 1..4, a0 zero and
    # not, a12 delta nonzero, random states
    rng = np.random.default_rng(24)
    for n in range(1, 5):
        for a0 in (0.0, 0.37):
            a, q, nu = (tuple(rng.uniform(-2.0, 2.0, n)) for _ in range(3))
            forms = [SpeedODE(a0=a0, a_lin=a, a_quad=q,
                              epsilon=rng.uniform(0.01, 1.0)),
                     ScaledNF(nu0=a0, nu=nu, a11=rng.uniform(-2.0, 2.0),
                              a12=rng.uniform(0.5, 2.0), delta=rng.uniform(0.1, 1.0))]
            for form in forms:
                for _ in range(10):
                    z, w = rng.uniform(-3.0, 3.0, n), list(rng.uniform(-3.0, 3.0, n))
                    assert form.taylor(z) == _taylor_written_out(form, z)
                    assert form.taylor(z, w) == _taylor_written_out(form, z, w)


class TestIntegrate:
    def test_zero_field_constant(self):
        ode = SpeedODE(a0=0.0, a_lin=(0.0,), a_quad=(0.0,), epsilon=0.4)
        tr = integrate(ode, np.array([0.37]), 50.0, tol=1e-10)
        assert np.allclose(tr.y, 0.37)
        assert not tr.blew_up

    def test_scalar_exponential_decay(self):
        eps, tol = 0.3, 1e-9
        ode = SpeedODE(a0=0.0, a_lin=(-1.0,), a_quad=(0.0,), epsilon=eps)
        tr = integrate(ode, np.array([1.0]), 30.0, tol=tol,
                       t_eval=np.linspace(0, 30, 31))
        exact = np.exp(-eps ** 2 * tr.t)
        assert np.max(np.abs(tr.y[0] - exact)) <= 10 * tol

    def test_harmonic_energy_drift(self):
        # c1'' = -c1 embedded as the linear part; epsilon = 1 so one period is 2 pi
        tol, periods = 1e-9, 1000
        ode = SpeedODE(a0=0.0, a_lin=(-1.0, 0.0), a_quad=(0.0, 0.0),
                       epsilon=1.0)
        t_end = 2 * math.pi * periods
        tr = integrate(ode, np.array([1.0, 0.0]), t_end, tol=tol,
                       t_eval=np.array([0.0, t_end]))
        energy = tr.y[0] ** 2 + tr.y[1] ** 2
        assert abs(energy[-1] - energy[0]) <= periods * tol * 10
        # phase against the closed form (cos t, -sin t): the global error of
        # a step-size control at rtol = tol grows by at most ~tol per period
        exact = np.array([math.cos(t_end), -math.sin(t_end)])
        assert np.max(np.abs(tr.y[:, -1] - exact)) <= periods * tol

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0, -5.0])
    def test_bad_t_end_rejected(self, t_end):
        ode = SpeedODE(a0=0.0, a_lin=(-1.0,), a_quad=(0.0,), epsilon=1.0)
        with pytest.raises(FrontlabError, match="t_end"):
            integrate(ode, np.array([1.0]), t_end)
        with pytest.raises(FrontlabError, match="t_end"):
            lyapunov_max(ode, np.array([1.0]), t_end, 1.0)

    @pytest.mark.parametrize("t_eval", [[-1.0, 0.0], [0.0, 10.5], [0.0, math.nan],
                                        [0.5, 0.1, 0.2, 0.3]])
    def test_samples_outside_the_run_rejected(self, t_eval):
        ode = SpeedODE(a0=0.0, a_lin=(-1.0,), a_quad=(0.0,), epsilon=1.0)
        with pytest.raises(FrontlabError, match="t_eval"):
            integrate(ode, np.array([1.0]), 10.0, t_eval=np.array(t_eval))

    def test_blow_up_detection(self):
        ode = SpeedODE(a0=0.0, a_lin=(5.0,), a_quad=(1.0,), epsilon=1.0)
        tr = integrate(ode, np.array([1.0]), 100.0, tol=1e-8)
        assert tr.blew_up
        assert tr.t[-1] < 100.0
        # sampled, the run returns every sample before the pole at ln(6)/5,
        # and none with a norm above 1e8
        t_eval = np.linspace(0.0, 1.0, 1001)
        tr = integrate(ode, np.array([1.0]), 1.0, tol=1e-8, t_eval=t_eval)
        assert tr.blew_up
        assert np.array_equal(tr.t, t_eval[t_eval < math.log(6.0) / 5.0])
        assert np.max(np.linalg.norm(tr.y, axis=0)) <= 1e8
        with pytest.raises(ConvergenceError, match="blew up"):
            lyapunov_max(ode, np.array([1.0]), 100.0, 5.0)

    def test_fast_decay_is_not_a_blow_up(self, monkeypatch):
        # c' = -1e13 c takes steps of about 3e-13: a fast decay, not a pole,
        # as they lie far above STEP_FLOOR of its time scale 1e-13 (1e-25)
        ode = SpeedODE(a0=0.0, a_lin=(-1e13,), a_quad=(0.0,), epsilon=1.0)
        tr = integrate(ode, [1.0], 1e-10)
        assert not tr.blew_up and tr.t[-1] == 1e-10 and 100 < len(tr.t) < 1000
        assert abs(tr.y[0, -1]) <= 1e-8      # exp(-1000), at tol 1e-8 absolute
        # to t = 1 it would take some 3e12 steps: the step cap ends it
        monkeypatch.setattr(speed_ode, "MAX_TAYLOR_STEPS", 1000)
        with pytest.raises(FrontlabError, match=r"t_end=1.0 needs more than 1,000 Taylor steps"):
            integrate(ode, [1.0], 1.0)

    def test_step_cap(self, monkeypatch):
        # a run needing exactly MAX_TAYLOR_STEPS steps ends; one more raises,
        # for integrate and for lyapunov_max over all its chunks; each shot
        # and each branch run is a run too
        nf = ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
        y0 = np.array([-0.98, 0.0, 0.0])
        steps = len(integrate(nf, y0, 50.0).t) - 1
        monkeypatch.setattr(speed_ode, "MAX_TAYLOR_STEPS", steps)
        assert len(integrate(nf, y0, 50.0).t) - 1 == steps
        monkeypatch.setattr(speed_ode, "MAX_TAYLOR_STEPS", steps - 1)
        with pytest.raises(FrontlabError, match="t_end=50.0 needs more than"):
            integrate(nf, y0, 50.0)
        monkeypatch.setattr(speed_ode, "MAX_TAYLOR_STEPS", 20)
        with pytest.raises(FrontlabError, match="t_end=50.0 needs more than 20 Taylor"):
            lyapunov_max(nf, y0, 50.0, 5.0)
        # a stiff form: uncapped, each shot and each branch run takes some
        # 4,500 steps to time out
        stiff = ScaledNF(nu0=-1e4, nu=(0.0, -1e4, -1.0), a11=1.0)
        monkeypatch.setattr(speed_ode, "MAX_TAYLOR_STEPS", 1000)
        with pytest.raises(FrontlabError, match="t_max=400.0 needs more than 1,000 Taylor"):
            shilnikov_shoot(stiff, np.linspace(-1.0, -0.25, 3))
        with pytest.raises(FrontlabError, match="needs more than 1,000 Taylor"):
            speed_ode._branch_endpoints(stiff)


class TestMarch:
    """`_march`, the one Taylor step loop of integrate, the shots, the branch
    runs and lyapunov_max."""

    HARMONIC = SpeedODE(a0=0.0, a_lin=(-1.0, 0.0), a_quad=(0.0, 0.0),
                        epsilon=1.0)

    def test_each_chunk_ends_on_a_clipped_step(self):
        # a chunk's first step sees all of it left, each step takes its h off
        # what is left, and only the last step, h == left, is clipped
        spans = (0.3, 20.0, 0.7)
        chunks, y = [[]], None
        for _rows, h, y, left in speed_ode._march(self.HARMONIC, [1.0, 0.0], spans,
                                                  1e-9, "t_end=21.0"):
            chunks[-1].append((h, left))
            if h == left:
                chunks.append([])
        assert chunks.pop() == [] and len(chunks) == len(spans)
        assert len(chunks[1]) > 1
        for span, steps in zip(spans, chunks):
            assert steps[0][1] == span
            assert all(0.0 < h < left for h, left in steps[:-1])
            assert all(after == left - h for (h, left), (_h, after) in zip(steps, steps[1:]))
        assert max(abs(y[0] - math.cos(21.0)), abs(y[1] + math.sin(21.0))) <= 1e-8

    def test_each_step_starts_where_the_last_ended(self):
        # the yielded y is the step polynomial at h, and the next step starts
        # from it, after any change a caller makes in place (lyapunov_max
        # rescales the tangent so)
        nf = ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
        start, count = None, 0
        for rows, h, y, _left in speed_ode._march(nf, [-0.98, 0.0, 0.0, 1.0, 0.0, 0.0],
                                                  (5.0,), 1e-10, "t_end=5.0"):
            if start is not None:
                assert rows[0] == start
            assert y == speed_ode._horner(rows, h)
            y[3:] = [-x for x in y[3:]]
            start, count = list(y), count + 1
        assert count > 2

    def test_ends_after_a_zero_step(self):
        # c' = 5 c + c^2 from c = 1 has its pole at ln(6)/5: the steps
        # shrink to the step floor there and the march ends on a step of
        # h = 0.0, with a chunk still to go and far inside the step cap
        pole = SpeedODE(a0=0.0, a_lin=(5.0,), a_quad=(1.0,), epsilon=1.0)
        steps = list(speed_ode._march(pole, [1.0], (1.0, 1.0), 1e-8, "t_end=2.0"))
        assert steps[-1][1] == 0.0 and all(h > 0.0 for _rows, h, _y, _left in steps[:-1])
        assert len(steps) < 100 and abs(1.0 - steps[-1][3] - math.log(6.0) / 5.0) <= 1e-6

    def test_ends_at_once_on_a_non_finite_state(self):
        # a NaN state allows no step, whichever entry holds it
        pole = SpeedODE(a0=0.0, a_lin=(5.0,), a_quad=(1.0,), epsilon=1.0)
        steps = list(speed_ode._march(pole, [math.nan], (1.0, 1.0), 1e-8, "t_end=2.0"))
        assert [h for _rows, h, _y, _left in steps] == [0.0]
        nf = ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
        for z in ([math.nan, 0.0, 0.5], [0.0, 0.5, math.nan], [0.0, 0.5, math.inf]):
            assert speed_ode._taylor_step(nf, z, 1e-8, [])[1] == 0.0

    def test_budget_spans_the_chunks(self, monkeypatch):
        # MAX_TAYLOR_STEPS counts the steps of all chunks together: a march
        # that needs exactly the cap ends, one step fewer raises, though each
        # chunk alone takes far fewer
        def march():
            return list(speed_ode._march(self.HARMONIC, [1.0, 0.0], (1.0,) * 5,
                                         1e-9, "t_end=5.0"))
        steps = march()
        ends = [i for i, (_rows, h, _y, left) in enumerate(steps) if h == left]
        assert len(ends) == 5 and ends[-1] == len(steps) - 1
        assert max(np.diff([-1] + ends)) < len(steps) - 1
        monkeypatch.setattr(speed_ode, "MAX_TAYLOR_STEPS", len(steps))
        assert len(march()) == len(steps)
        monkeypatch.setattr(speed_ode, "MAX_TAYLOR_STEPS", len(steps) - 1)
        with pytest.raises(FrontlabError, match=f"t_end=5.0 needs more than {len(steps) - 1} "):
            march()


class TestEquilibria:
    def test_scaled_nf_symmetric_pair(self):
        nf = ScaledNF.shilnikov(-1.0, 0.0, 0.0, a11=1.0)
        eqs = equilibria_and_classification(nf)
        assert [round(e.c_star, 12) for e in eqs] == [-1.0, 1.0]

    def test_cubic_eigenvalue_oracle(self):
        # at z = +1 the characteristic polynomial is l^3 - 2
        nf = ScaledNF.shilnikov(-1.0, 0.0, 0.0, a11=1.0)
        eq = equilibria_and_classification(nf)[1]
        assert eq.kind == "saddle-focus(1u,2s)"
        oracle = np.sort_complex(np.roots([1.0, 0.0, 0.0, -2.0]))
        got = np.sort_complex(np.array(eq.eigenvalues))
        assert np.max(np.abs(got - oracle)) < 1e-10
        real = [z for z in eq.eigenvalues if abs(z.imag) < 1e-12][0]
        assert real.real == pytest.approx(2 ** (1 / 3), rel=1e-12)
        pair = [z for z in eq.eigenvalues if z.imag > 1e-12][0]
        assert pair.real == pytest.approx(-2 ** (1 / 3) / 2, rel=1e-12)

    def test_classification_families(self):
        assert classify_eigenvalues(np.array([-1.0, -2.0, -3.0])) == "sink"
        assert classify_eigenvalues(np.array([1.0, 2.0, 3.0])) == "source"
        assert classify_eigenvalues(np.array([1.0, -2.0, -3.0])) == "saddle"
        assert classify_eigenvalues(np.array([1.0, -0.5 + 1j, -0.5 - 1j])) \
            == "saddle-focus(1u,2s)"
        assert classify_eigenvalues(np.array([-1.0, 0.5 + 1j, 0.5 - 1j])) \
            == "saddle-focus(2u,1s)"
        assert classify_eigenvalues(np.array([1e-13, -1.0, -2.0])) == "nonhyperbolic"

    def test_linear_last_row_has_one_equilibrium(self):
        # a11 = 0: the last row on z = (c, 0, 0) is nu0 + nu_1 c, one root -nu0/nu_1
        nf = ScaledNF(nu0=-1.5, nu=(0.5, -1.0, -0.6), a11=0.0)
        eqs = equilibria_and_classification(nf)
        assert [e.c_star for e in eqs] == [3.0]
        assert not equilibria_and_classification(replace(nf, nu=(0.0, -1.0, -0.6)))

    def test_organising_point_of_the_maximal_set(self):
        # the maximal reference set has a0 = a_1 = a11 = 0: a line of
        # equilibria, reported by its point at the origin, nonhyperbolic
        _name, params, coupling, _orders = reference_parameter_sets()[2]
        ode = build_from_analysis(params, coupling, 3)
        assert ode.scalar_equilibrium_coeffs() == (0.0, 0.0, 0.0)
        (eq,) = equilibria_and_classification(ode)
        assert eq.c_star == 0.0
        assert eq.kind == "nonhyperbolic"

    @pytest.mark.parametrize("gamma", [-2e-3, -2e-4, -2e-5])
    def test_root_correspondence_with_existence(self, transcritical_set, gamma):
        # the last row is a multiple of Gamma0 to O(c^3), so the equilibria
        # sit at Gamma0's roots near 0 within K |c*|^3 (K = 0.09-0.16 here).
        # Off the design a_1 != 0 and the scale matters: with a scale of 1
        # the miss is 1.1-1.3, 35-41 and 0.9-1.5e3 |c*|^3 at these gammas
        params, coupling0 = transcritical_set
        alpha = np.asarray(coupling0.alpha) + (3.5e-4, 8.2e-4, 3.3e-4)
        # gamma must oppose the quadratic coefficient for nearby roots
        coupling = Coupling(gamma, tuple(alpha), coupling0.beta)
        eqs = equilibria_and_classification(build_from_analysis(params, coupling, 3))
        roots = [r for r, _m in gamma0_roots(params, coupling, interval=(-0.3, 0.3))]
        assert len(eqs) == len(roots) == 2
        for eq, root in zip(eqs, sorted(roots)):
            assert abs(eq.c_star - root) <= 0.5 * abs(eq.c_star) ** 3

    def test_linearization_tends_to_evans_roots(self, transcritical_set):
        # at each equilibrium c*, eig(J(c*)) / eps^2 tends to the three small
        # roots of E0(.; c*) / lambda; the relative gap (likely the O(delta)
        # term a12 delta z_1 z_2 the form drops) is of order c*^(1/3), falling by
        # about 10^(-1/6) = 0.68 per decade of gamma (0.64-0.67 measured;
        # 0.84-0.88 with a scale of 1, whose eigenvalues are off by 19%)
        params, coupling0 = transcritical_set
        gaps = {}
        for gamma in (-2e-5, -2e-6, -2e-7):
            coupling = Coupling(gamma, coupling0.alpha, coupling0.beta)
            ode = build_from_analysis(params, coupling, 3)
            for eq in equilibria_and_classification(ode):
                eig = np.linalg.eigvals(ode.jacobian_at([eq.c_star, 0.0, 0.0]))
                eig = eig / params.epsilon ** 2
                ctx = evans_context(params, coupling, eq.c_star)
                r = 2.0 * max(abs(eig))
                roots, _ = holomorphic_roots(deflated_evans(ctx), (-r, r, -r, r),
                                             tol=1e-10, cuts=ctx.branch_points)
                small = [z for z, m in roots for _ in range(m)]
                assert len(small) == 3
                gaps.setdefault(np.sign(eq.c_star), []).append(
                    hausdorff(eig, small) / max(abs(eig)))
        assert sorted(gaps) == [-1.0, 1.0]
        for side in gaps.values():
            for coarse, fine in zip(side, side[1:]):
                assert 0.60 <= fine / coarse <= 0.72
            assert side[-1] < 0.15


class TestBuildFromAnalysis:
    def test_nilpotent_at_organising_point(self):
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        alpha = design_evans_degeneracy(p)
        coupling = Coupling(0.0, tuple(alpha), (1.0, 0.0, 0.0))
        ode = build_from_analysis(p, coupling, 3)
        assert ode.a0 == 0.0
        assert np.allclose(ode.a_lin, 0.0, atol=1e-12)
        # scale (3 sqrt(2)/2) / e with E0's order-4 coefficient at the design,
        # e = 2 |binom(-1/2, 4)| tau_1 tau_2 tau_3, times Gamma0's c^2
        # coefficient 1/4 for the reference set
        e = 2.0 * (35.0 / 128.0) * 1.0 * 2.25 * 2.89
        assert ode.a_quad[0] == pytest.approx(1.5 * SQRT2 / e / 4.0)
        assert ode.a_quad[1:] == (0.0, 0.0)    # the cross coefficients default to zero

    @pytest.mark.parametrize("n_prime", [2, 3])
    def test_characteristic_polynomial_matches_unfolding(self, n_prime):
        p = SystemParams(epsilon=0.03, tau=(1.0, 2.25, 2.89), d=(1.0, 1.5, 1.7))
        base = design_evans_degeneracy(p, n_prime)
        delta = np.array([3e-3, -2e-3, 1e-3])
        coupling = Coupling(0.0, tuple(base + delta), (1.0, 0.0, 0.0))
        ode = build_from_analysis(p, coupling, n_prime)
        assert isinstance(ode, SpeedODE) and ode.dim == n_prime
        jac = ode.jacobian_at(np.zeros(n_prime)) / p.epsilon ** 2
        eigs = np.sort_complex(np.linalg.eigvals(jac))
        abar, _e = _unfold(p, base, delta, n_prime)
        pred = np.sort_complex(unfolding_polynomial_roots(abar))
        assert np.max(np.abs(eigs - pred)) < 1e-10

    def test_designs_the_base_point_once(self):
        # tau within 1e-4 of each other: the design warns on its conditioning,
        # once, as build_from_analysis designs and expands the base only once
        p = SystemParams(epsilon=0.03, tau=(1.0, 1.0001, 1.0002), d=(1.0, 1.5, 1.7))
        with pytest.warns(UserWarning, match="design_evans_degeneracy"):
            base = design_evans_degeneracy(p)
        coupling = Coupling(0.0, tuple(base), (1.0, 0.0, 0.0))
        with pytest.warns(UserWarning) as record:
            build_from_analysis(p, coupling, 3)
        assert len(record) == 1


class TestScalingConsistency:
    def test_rescaled_trajectories_agree_to_first_order(self):
        a11, a12, a13 = 1.0, 0.5, 0.3
        nu0, nu = -0.3, (0.2, -3.0, -0.5)
        eps = 0.1
        z0 = np.array([-0.5, 0.1, -0.05])
        t_final = 15.0
        sups = []
        deltas = (0.1, 0.05, 0.025)
        for delta in deltas:
            ode = SpeedODE(a0=delta ** 6 * nu0,
                           a_lin=tuple(delta ** (3 - k + 1) * nu[k - 1]
                                       for k in (1, 2, 3)),
                           a_quad=(a11, a12, a13), epsilon=eps)
            nf = ScaledNF(nu0=nu0, nu=nu, a11=a11, a12=a12, delta=delta)
            c0 = np.array([delta ** (3 + k - 1) * z0[k - 1] for k in (1, 2, 3)])
            tr_c = integrate(ode, c0, t_final / (eps ** 2 * delta), tol=1e-11)
            tr_z = integrate(nf, z0, t_final, tol=1e-11)
            ts = np.linspace(0, t_final, 120)
            zc = np.array([tr_c.dense(t / (eps ** 2 * delta)) for t in ts]).T
            zz = np.array([tr_z.dense(t) for t in ts]).T
            scaled = zc / np.array([[delta ** 3], [delta ** 4], [delta ** 5]])
            sups.append(np.max(np.abs(scaled - zz)))
        # sup difference bounded by C*delta with C itself decaying (the dropped
        # cross terms are one order higher)
        cs = [s / d for s, d in zip(sups, deltas)]
        assert cs[0] < 0.2
        assert cs[1] < 0.75 * cs[0]
        assert cs[2] < 0.75 * cs[1]


#: Criterion 10's form (also README's and the bench's), the bench's second
#: sweep and the flat sweep of the bench and criterion 10, with their spans.
SWEPT_FORMS = [((-1.0, -1.0, -0.6), (-1.0, -0.25)),
               ((-1.0, -0.97, -0.6), (-1.0, -0.25)),
               ((-1.0, -0.5, -1.6), (-2.0, -1.25))]


def _swept(coeffs, span):
    """The form at each of seven values of nu_bar across span."""
    nf = ScaledNF.shilnikov(*coeffs, a11=1.0)
    return [replace(nf, nu=(nf.nu[0], nf.nu[1], nb)) for nb in np.linspace(*span, 7)]


class TestShilnikovShoot:
    def test_guard_rejects_wrong_signs(self):
        with pytest.raises(FrontlabError, match="a11"):
            shilnikov_shoot(ScaledNF.shilnikov(1.0, -1.0, 0.0, a11=1.0),
                            np.linspace(-1, 0, 3))
        with pytest.raises(FrontlabError, match="mu"):
            shilnikov_shoot(ScaledNF.shilnikov(-1.0, 0.5, 0.0, a11=1.0),
                            np.linspace(-1, 0, 3))
        # a shot's time span must be one that its steps can end on
        for t_max in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(FrontlabError, match="t_max"):
                shilnikov_shoot(ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0),
                                np.linspace(-1, 0, 3), t_max=t_max)

    def test_speed_ode_is_rejected(self):
        # only the scaled normal form names (nu0, mu_bar, nu_bar, a11)
        ode = SpeedODE(a0=-1.0, a_lin=(0.0, -1.0, -0.6),
                       a_quad=(1.0, 0.0, 0.0), epsilon=0.1)
        with pytest.raises(FrontlabError, match="scaled normal form"):
            shilnikov_shoot(ode, np.linspace(-1, 0, 3))

    def test_sign_change_sweep_produces_candidate(self):
        nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
        result = shilnikov_shoot(nf, np.linspace(-1.0, -0.25, 7), tol=1e-6,
                                 t_max=300.0)
        assert result.has_sign_change
        assert len(result.candidates) >= 1
        cand = result.candidates[0]
        assert cand.nu_bar == pytest.approx(-0.7192, abs=2e-3)
        assert abs(cand.miss) < 1e-6
        assert 0 < cand.rho_s < 1    # oscillatory-dominated saddle quantity

    def test_candidate_is_tolerance_stable(self):
        from frontlab.speed_ode import _shoot_once
        nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
        result = shilnikov_shoot(nf, np.linspace(-0.8, -0.6, 3), tol=1e-6,
                                 t_max=300.0)
        assert result.candidates
        cand = result.candidates[0]
        refined = _shoot_once(replace(nf, nu=(0.0, -1.0, cand.nu_bar)),
                              t_max=300.0, integrator_tol=1e-11)
        assert refined.status == "ok"
        assert abs(refined.miss) < 10 * 1e-6

    def test_regula_falsi_beats_bisection(self, monkeypatch):
        # the criterion-10 sweep: the candidate lies inside its sign-change
        # bracket, matches a tight shot at the same nu_bar, and takes fewer
        # root-iteration shots than the 17 that midpoint bisection needs
        from frontlab import speed_ode
        shots = []
        shoot_once = speed_ode._shoot_once

        def counted(*args, **kwargs):
            shots.append(args[0].nu_bar)
            return shoot_once(*args, **kwargs)
        monkeypatch.setattr(speed_ode, "_shoot_once", counted)
        tol = 1e-6
        nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
        result = shilnikov_shoot(nf, np.linspace(-1.0, -0.25, 7), tol=tol,
                                 t_max=300.0)
        assert len(result.candidates) == 1
        cand = result.candidates[0]
        brackets = [(a.nu_bar, b.nu_bar) for a, b in zip(result.trace, result.trace[1:])
                    if a.status == b.status == "ok" and a.miss * b.miss < 0]
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo < cand.nu_bar < hi
        assert 0 < len(shots) - len(result.trace) < 17
        reference = shoot_once(replace(nf, nu=(0.0, -1.0, cand.nu_bar)),
                               t_max=300.0, integrator_tol=1e-12)
        assert reference.status == "ok"
        assert abs(reference.miss - cand.miss) < 10 * tol

    def test_shots_and_integrate_match_a_tight_reference(self, monkeypatch):
        # every shot of the criterion-10 sweep ends at its second section
        # crossing, on the plane, and its miss matches DOP853 at rtol 1e-13;
        # so does the end state of the bench orbit's `integrate`
        from scipy.integrate import solve_ivp
        from frontlab import speed_ode
        shoot_once, horner, shots = speed_ode._shoot_once, speed_ode._horner, []

        def recorded(nf_, **kwargs):
            evals = []     # (h, y) of each polynomial evaluation of the shot

            def recording(rows, h):
                evals.append((h, horner(rows, h)))
                return evals[-1][1]
            with monkeypatch.context() as m:
                m.setattr(speed_ode, "_horner", recording)
                point = shoot_once(nf_, **kwargs)
            shots.append((nf_, point, evals))
            return point
        monkeypatch.setattr(speed_ode, "_shoot_once", recorded)
        nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
        result = shilnikov_shoot(nf, np.linspace(-1.0, -0.25, 7), tol=1e-6,
                                 t_max=300.0)
        assert all(p.status == "ok" for p in result.trace)
        assert len(shots) > len(result.trace)
        for nf_, point, evals in shots:
            eq, other, _lam, v_u, w_u, _rho = speed_ode._saddle_focus_data(nf_)
            p, mid = eq.state, 0.5 * (eq.state + other.state)
            normal = (other.state - p) / np.linalg.norm(other.state - p)
            if np.dot(v_u, mid - p) < 0:
                v_u = -v_u
            y0 = p + speed_ode.SEED_OFFSET * v_u
            # the step ends, then the crossing inside the last step
            *ends, (r, x_c) = evals
            side = [np.dot(y - mid, normal) > 0 for y in [y0] + [y for _h, y in ends]]
            changes = [i for i in range(1, len(side)) if side[i] != side[i - 1]]
            assert len(changes) == 2 and changes[1] == len(ends)
            assert abs(np.dot(np.array(x_c) - mid, normal)) <= 1e-12
            t_cross = sum(h for h, _y in ends[:-1]) + r

            def section(_t, y):
                return float(np.dot(y - mid, normal))
            ref = solve_ivp(lambda _t, y: nf_.field_at(y), (0.0, t_cross + 1.0), y0,
                            method="DOP853", rtol=1e-13, atol=1e-15, events=section)
            # the same crossing: its time is shifted (by 4-5e-8 here) where
            # the orbit leaves the saddle, but the crossings lie O(1) apart
            assert ref.t_events[0].size >= 2 and abs(ref.t_events[0][1] - t_cross) <= 1e-6
            x_ref = ref.y_events[0][1]
            assert abs(np.dot(w_u, x_ref - p) / np.dot(w_u, v_u) - point.miss) <= 1e-9
        orbit = ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
        y0 = np.array([-0.98, 0.0, 0.0])
        end = integrate(orbit, y0, 300.0, tol=1e-9).y[:, -1]
        ref = solve_ivp(lambda _t, y: orbit.field_at(y), (0.0, 300.0), y0,
                        method="DOP853", rtol=1e-13, atol=1e-15)
        assert np.max(np.abs(end - ref.y[:, -1])) <= 1e-9

    def test_illinois_halves_a_low_end_kept_twice(self, monkeypatch):
        # a miss concave across the planted root r keeps the low end on every
        # step, so plain regula falsi creeps in from the high end; halving
        # the kept low end's miss reaches |miss| < tol in a few shots
        r, shots = -0.7, []

        def planted(nf_, t_max=400.0):
            shots.append(nf_.nu_bar)
            miss = 1.0 - math.exp(-5.0 * (nf_.nu_bar - r))
            return speed_ode.ShootPoint(nu_bar=nf_.nu_bar, miss=miss, status="ok")
        monkeypatch.setattr(speed_ode, "_shoot_once", planted)
        nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
        # the middle swept value, nu_bar = 3, has no saddle-focus: no branch runs
        result = shilnikov_shoot(nf, [-1.0, 3.0], tol=1e-6)
        (cand,) = result.candidates
        assert abs(cand.nu_bar - r) < 1e-6
        assert len(shots) - len(result.trace) <= 12

    @pytest.mark.parametrize("nu_bar, status", [(1.0, "escape"), (3.0, "no-saddle-focus")])
    def test_shots_that_do_not_return(self, nu_bar, status):
        # at nu_bar = 1 the unstable branch leaves the escape radius before
        # its first return; at nu_bar = 3 neither equilibrium is a
        # saddle-focus(1u,2s) and no shot is taken
        nf = ScaledNF.shilnikov(-1.0, -1.0, nu_bar, a11=1.0)
        point = speed_ode._shoot_once(nf, t_max=300.0)
        assert point.status == status
        assert math.isnan(point.miss)
        focus = [e.kind for e in equilibria_and_classification(nf)].count("saddle-focus(1u,2s)")
        assert focus == (status == "escape")

    def test_no_saddle_focus_at_the_middle_value_leaves_no_branches(self):
        nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
        result = shilnikov_shoot(nf, [0.3, 3.0, 5.0], tol=1e-6, t_max=300.0)
        assert [p.status for p in result.trace] == ["ok", "no-saddle-focus", "no-saddle-focus"]
        assert result.candidates == ()
        assert result.branch_equilibria == ()

    def test_no_sign_change_returns_full_trace(self):
        nf = ScaledNF.shilnikov(-1.0, -0.5, -1.6, a11=1.0)
        result = shilnikov_shoot(nf, np.linspace(-2.0, -1.25, 7), tol=1e-6,
                                 t_max=300.0)
        assert result.candidates == ()
        assert len(result.trace) == 7
        assert all(p.status == "ok" for p in result.trace)
        assert not result.has_sign_change

    @pytest.mark.parametrize("coeffs, span", SWEPT_FORMS)
    def test_saddle_focus_eigenvectors_in_closed_form(self, coeffs, span):
        # v_u = (1, l, l^2) / |.| and w_u = (l (l - r3) - r2, l - r3, 1) are
        # right and left eigenvectors of the Jacobian for l = lambda_u, and
        # parallel to numpy's, at every swept value
        for form in _swept(coeffs, span):
            eq, _other, lam, v_u, w_u, rho_s = speed_ode._saddle_focus_data(form)
            jac = form.jacobian_at(eq.state)
            scale = max(np.linalg.norm(jac), abs(lam))
            assert np.linalg.norm(jac @ v_u - lam * v_u) <= 1e-12 * scale * np.linalg.norm(v_u)
            assert np.linalg.norm(w_u @ jac - lam * w_u) <= 1e-12 * scale * np.linalg.norm(w_u)
            vals, vecs = np.linalg.eig(jac)
            iu = int(np.argmax(vals.real))
            lvals, lvecs = np.linalg.eig(jac.T)
            ju = int(np.argmin(np.abs(lvals - vals[iu])))
            for mine, theirs in ((v_u, vecs[:, iu]), (w_u, lvecs[:, ju])):
                mine, theirs = mine / np.linalg.norm(mine), theirs.real / np.linalg.norm(theirs)
                assert np.linalg.norm(theirs - np.dot(mine, theirs) * mine) <= 1e-12
            assert lam == pytest.approx(vals[iu].real, rel=1e-12, abs=0.0)
            stable = max(v.real for v in vals if v.real < 0)
            assert rho_s == pytest.approx(-stable / vals[iu].real, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("form, ends", [
        *[pytest.param(form, {"escape"}, id=f"mu{form.mu_bar:g}-nu{form.nu_bar:g}")
          for coeffs, span in SWEPT_FORMS for form in _swept(coeffs, span)],
        # the -v_u branch settles on the equilibrium at c = -1
        pytest.param(ScaledNF.shilnikov(-1.0, -1.0, -2.0, a11=1.0), {"escape", "horizon"},
                     id="horizon"),
        # c* = +-1e7: the +v_u branch passes norm 1e8 inside the escape
        # radius 1e8, the -v_u branch settles on the sink at -1e7
        pytest.param(ScaledNF(nu0=-1e7, nu=(0.0, -5.0, -1.0), a11=1e-7), {"blow-up", "horizon"},
                     id="blow-up"),
    ])
    def test_branch_endpoints_say_how_each_run_ended(self, form, ends):
        # each branch's end against `integrate`'s run of it to t = 400 (the
        # same steps): `escape` if a step end leaves the radius, `blow-up` if
        # the run blew up within it, else `horizon` naming the equilibrium
        # nearest the last state
        eq, other, _lam, v_u, _w, _rho = speed_ode._saddle_focus_data(form)
        radius = 10.0 * max(1.0, abs(eq.c_star))
        want = []
        for sign in (1.0, -1.0):
            run = integrate(form, eq.state + sign * speed_ode.SEED_OFFSET * v_u, 400.0, tol=1e-8)
            if np.any(np.linalg.norm(run.y - eq.state[:, None], axis=0) > radius):
                want.append((sign, "escape", None))
            elif run.blew_up:
                want.append((sign, "blow-up", None))
            else:
                end = run.y[:, -1]
                nearest = min((eq, other), key=lambda e: np.linalg.norm(end - e.state))
                want.append((sign, "horizon", nearest.c_star))
        got = speed_ode._branch_endpoints(form)
        assert got == tuple(want)
        assert {e for _s, e, _c in got} == ends

    def test_branches_at_the_middle_swept_value(self):
        # criterion 10's sweep: at its middle value nu_bar = -0.625 both
        # branches leave the escape radius, and neither names an equilibrium
        nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
        sweep = np.linspace(-1.0, -0.25, 7)
        result = shilnikov_shoot(nf, sweep, tol=1e-6, t_max=300.0)
        assert result.branch_equilibria == ((1.0, "escape", None), (-1.0, "escape", None))
        assert result.branch_equilibria == speed_ode._branch_endpoints(
            replace(nf, nu=(nf.nu[0], nf.nu[1], sweep[3])))


class TestLyapunov:
    def test_linear_stable_system(self):
        # spectrum {-0.2, -1, -2}: the exponent is the least-negative real part
        ode = SpeedODE(a0=0.0, a_lin=(-0.4, -2.6, -3.2),
                       a_quad=(0.0, 0.0, 0.0), epsilon=1.0)
        lam = lyapunov_max(ode, np.array([0.5, -0.3, 0.2]), 400.0, 2.0)
        assert lam == pytest.approx(-0.2, rel=0.05)

    def test_zero_field(self):
        ode = SpeedODE(a0=0.0, a_lin=(0.0,), a_quad=(0.0,), epsilon=1.0)
        lam = lyapunov_max(ode, np.array([0.2]), 200.0, 2.0)
        assert abs(lam) <= 1e-6

    def test_periodic_orbit_has_zero_exponent(self):
        # attracting periodic orbit on the oscillatory side of the pair
        # crossing at nu_bar = -4 (trace argument bounds the second exponent)
        nf = ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
        settle = integrate(nf, np.array([-0.98, 0.0, 0.0]), 500.0, tol=1e-9)
        y_on = settle.y[:, -1]
        lam = lyapunov_max(nf, y_on, 3000.0, 5.0)
        trace = abs(nf.nu_bar)
        second_bound = (trace - abs(lam)) / 2.0
        assert abs(lam) <= 1e-2 * second_bound
