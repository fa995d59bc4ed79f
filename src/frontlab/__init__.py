"""frontlab: front dynamics in 1-fast/N-slow reaction-diffusion systems.

Layers, bottom up: `core_model` (parameters, coupling polynomials, series
arithmetic), `existence` (front speeds from the existence function),
`evans` (critical spectrum via the Evans function), `designer` (parameter
sets with prescribed degeneracies), `jordan_chain` (eigenfunction chains),
`speed_ode` (reduced dynamics on the center manifold), and `pde_sim`
(direct simulation, Newton front solvers, continuation).
"""

__version__ = "0.1.0"

from .core_model import (Coupling, PowerSeries, SystemParams, coupling_gradient,
                         eval_coupling, series_vstar)
from .errors import (BranchCutError, ConvergenceError, DesignError,
                     DistinctnessError, FrontlabError)
from .existence import (FrontProfile, fold_curves, front_profile, gamma0,
                        gamma0_roots, gamma0_taylor)
from .evans import (EvansContext, RootSet, essential_spectrum_bound,
                    evans_context, evans_eval, evans_root_bound, evans_roots,
                    evans_taylor_c0)
from .designer import (design_evans_degeneracy, design_gamma_degeneracy,
                       design_simultaneous, imprint_scalar_singularity,
                       linear_unfolding_map, vandermonde_solve)
from .jordan_chain import (ChainProfile, JordanPolynomial, chain_profile,
                           eigenfunction_c0, jordan_poly, verify_chain_ode)
from .speed_ode import (ScaledNF, SpeedODE, build_from_analysis,
                        equilibria_and_classification, integrate, lyapunov_max,
                        shilnikov_shoot)

# The PDE layer, the one user of scipy, loads on first use (PEP 562).
_PDE_NAMES = ("pde_sim", "BranchPoint", "Grid", "PdeState", "continue_branch",
              "initial_front_state", "linearization_spectrum", "make_grid", "simulate",
              "solve_stationary_front", "solve_travelling_front", "step")


def __getattr__(name):
    if name not in _PDE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    pde_sim = import_module(".pde_sim", __name__)
    return pde_sim if name == "pde_sim" else getattr(pde_sim, name)


__all__ = [name for name in dir() if not name.startswith("_")] + list(_PDE_NAMES)
