"""Direct simulation: measured front speeds versus the analytic predictions.

The cubic-coupling (cusp) setup has three predicted speeds {-2.289, 0,
+2.289} in slow units.  Perturbing the unstable stationary front along its
unstable eigenfunction produces the heteroclinic speed transition; Newton
continuation in a coupling coefficient traverses the fold of the branch.
"""

import numpy as np

import frontlab as fl
from frontlab import pde_sim as ps


params = fl.SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
cusp = fl.Coupling(0.0, (2.0,), (0.0,), higher=(-1.0,))
roots = fl.gamma0_roots(params, cusp, interval=(-10, 10))
print("predicted speeds (slow units):", [round(r, 5) for r, _ in roots])

print("\n== travelling-front Newton solves ==")
grid = ps.make_grid(24.0, 481, params.epsilon)
for c0 in (roots[-1][0], roots[0][0]):
    sol = ps.solve_travelling_front(params, cusp, guess_c=c0, grid=grid)
    print(f"  seed {c0:+.3f}: converged c = {sol.c:+.5f} "
          f"({sol.iterations} Newton steps)")

print("\n== heteroclinic speed transition from the unstable front ==")
from frontlab.evans import evans_pair, holomorphic_roots
ctx = fl.evans_context(params, cusp, 0.0)


def deflated(z):
    """E0/lambda and its derivative: the translation root removed."""
    e0, de0 = evans_pair(ctx, z)
    return e0 / z, (de0 * z - e0) / z ** 2


roots_e, _ = holomorphic_roots(deflated, (-0.9, 3.0, -1.0, 1.0), tol=1e-10,
                               cuts=ctx.branch_points)
lam_u = max(z.real for z, _ in roots_e)
print(f"unstable Evans root of the c=0 front: {lam_u:.4f}")

sim_grid = ps.make_grid(45.0, 901, params.epsilon)
stationary = ps.solve_stationary_front(params, cusp, grid=sim_grid)
mode = fl.eigenfunction_c0(params, lam_u, cusp)
perturbed = ps.perturb_with_profile(stationary.state, mode, -0.05)
out = ps.simulate(perturbed, 420.0, output_stride=200, dt=0.01)
print("speed samples along the run:")
for i in range(0, len(out.t), max(1, len(out.t) // 10)):
    print(f"  t = {out.t[i]:7.1f}: speed {out.speed[i]:+.6f}  "
          f"position {out.position[i]:+.3f}")
print(f"target lab-frame speed: +-{params.epsilon ** 2 * roots[-1][0]:.6f}")

print("\n== continuation through the fold (gamma = 0.05) ==")
template = fl.Coupling(0.05, (1.45,), (0.0,), higher=(-1.0,))
start = fl.gamma0_roots(params, template, interval=(-4, 4))[0][0]
points = ps.continue_branch(params, template, "alpha1", (1.0, 1.6), ds=0.04,
                            grid=ps.make_grid(20.0, 401, params.epsilon),
                            max_points=40, guess_c=start, n_eigs=6,
                            direction=-1.0)
for pt in points:
    mark = f"  <-- {pt.tag}" if pt.tag != "none" else ""
    print(f"  alpha = {pt.param:.4f}  c = {pt.c:+.4f}{mark}")
