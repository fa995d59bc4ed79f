"""Jordan-chain eigenfunctions at a designed stationary front.

At a multiplicity-(ell+1) zero eigenvalue the translation mode extends to a
chain of generalized eigenfunctions whose slow components are closed-form
polynomial-times-exponential profiles.  This script prints the exact
rational data, checks the defining ODE by finite differences, and samples a
chain profile.
"""

import numpy as np

import frontlab as fl
from frontlab.jordan_chain import chain_prefactor, verify_chain_ode
from frontlab.verify import reference_parameter_sets

print("== chain polynomial data (exact rationals) ==")
for j in range(5):
    poly = fl.jordan_poly(j, 1.0, 1.0)
    print(f"  v^{j}: prefactor {chain_prefactor(j)} tau^{j}, "
          f"coefficients {[str(c) for c in poly.coeffs]}")

print("\n== ODE residuals |v'' - v - tau v_prev| (4th-order differences) ==")
for tau in (0.5, 1.0, 2.89):
    worst = max(verify_chain_ode(fl.jordan_poly(j, tau, 1.0),
                                 fl.jordan_poly(j - 1, tau, 1.0)).max_residual
                for j in range(1, 7))
    print(f"  tau = {tau}: worst residual {worst:.2e}")

print("\n== chain profile at the transcritical reference set ==")
_, params, coupling, _ = reference_parameter_sets()[0]
profile = fl.chain_profile(params, coupling, k=1, ell=3)
print(f"fast-field value K_1 = {profile.fast_value:.6e} "
      f"(eps/(3 sqrt2) = {params.epsilon / (3 * np.sqrt(2)):.6e})")
for j in range(1, 4):
    print(f"  plateau of slow component {j}: {profile.plateau(j):+.6f} "
          f"(-tau_{j}/(2 d_{j}) = {-params.tau[j-1] / (2 * params.d[j-1]):+.6f})")

ys = np.linspace(-6, 6, 7)
print("\nsampled first slow component of Psi_1:")
print("  y:", np.round(ys, 2))
print("  v:", np.round([profile.v(1, y) for y in ys], 5))
