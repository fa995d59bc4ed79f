"""Reduced speed dynamics: equilibria, saddle-foci, and homoclinic shooting.

Near the designed degeneracy the front speed obeys a nilpotent ODE whose
last row carries the scalar nonlinearity.  In rescaled form the chaotic
regime requires a11*lambda_bar < 0 and mu_bar < 0; sweeping the z3
coefficient locates homoclinic connections to the saddle-focus by a signed
miss distance on the mid-plane section.
"""

import numpy as np

import frontlab as fl
from frontlab.speed_ode import ScaledNF
from frontlab.verify import reference_parameter_sets

print("== speed ODE from the existence/Evans analysis ==")
_, params, coupling0, _ = reference_parameter_sets()[0]
coupling = fl.Coupling(-0.002, coupling0.alpha, coupling0.beta)
ode = fl.build_from_analysis(params, coupling, n_prime=3)
print(f"a0 = {ode.a0:+.4e}, a_lin = {np.round(ode.a_lin, 6)}, "
      f"a11 = {ode.a_quad[0]:.4f}")
# the equilibria are the travelling fronts: Gamma0's roots near c = 0
roots = sorted(r for r, _m in fl.gamma0_roots(params, coupling, interval=(-0.3, 0.3)))
for eq, root in zip(fl.equilibria_and_classification(ode), roots):
    print(f"  equilibrium c = {eq.c_star:+.5f} (Gamma0 root {root:+.5f}): {eq.kind}")

print("\n== rescaled normal form: saddle-focus pair ==")
nf = ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
for eq in fl.equilibria_and_classification(nf):
    eigs = ", ".join(f"{z:.4f}" for z in eq.eigenvalues)
    print(f"  z = {eq.c_star:+.4f}: {eq.kind}   [{eigs}]")

print("\n== homoclinic shooting sweep over the z3 coefficient ==")
result = fl.shilnikov_shoot(nf, np.linspace(-1.0, -0.25, 7), tol=1e-6,
                            t_max=300.0)
for pt in result.trace:
    miss = f"{pt.miss:+.5f}" if pt.status == "ok" else pt.status
    print(f"  nu_bar = {pt.nu_bar:+.4f}: miss {miss}  (rho_s = {pt.rho_s:.3f})")
for cand in result.candidates:
    print(f"candidate homoclinic: nu_bar = {cand.nu_bar:.8f}, "
          f"|miss| = {abs(cand.miss):.1e}, saddle quantity rho_s = {cand.rho_s:.4f}"
          f" ({'oscillation-dominated: chaotic regime' if cand.rho_s < 1 else 'tame'})")

print("\n== largest Lyapunov exponent on the attracting periodic orbit ==")
orbit_nf = ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
settle = fl.integrate(orbit_nf, np.array([-0.98, 0.0, 0.0]), 500.0, tol=1e-9)
lam = fl.lyapunov_max(orbit_nf, settle.y[:, -1], 1500.0, 5.0)
print(f"lambda_max = {lam:+.2e} (zero for a periodic orbit)")
