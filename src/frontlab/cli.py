"""Single `frontlab` executable exposing the analysis modules as subcommands.

Configuration is a strict JSON document (unknown keys rejected); every run
writes a manifest echoing the resolved configuration and tool version, and
all CSV output carries a `# frontlab v1` header so runs are diffable.
Numeric output is deterministic given the configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core_model import _MODEL_KEYS, Coupling, SystemParams, model_from_dict, model_to_dict
from .errors import FrontlabError

CSV_HEADER = "# frontlab v1"

_RUN_ONLY_KEYS = {"seed", "output_dir", "pde", "ode"}
_RUN_KEYS = set(_MODEL_KEYS) | _RUN_ONLY_KEYS
_PDE_KEYS = {"domain_half_length", "n_x", "dt", "t_end", "output_stride",
             "perturbation"}
_PERTURBATION_KEYS = {"mode", "amplitude", "width", "center", "lam"}
_ODE_KEYS = {"n_prime", "h", "nu0", "nu", "a11", "a12", "delta"}


@dataclass
class RunConfig:
    params: SystemParams
    coupling: Coupling
    seed: int
    output_dir: str
    pde: dict
    ode: dict
    raw: dict


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FrontlabError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise FrontlabError(f"{what} {path} is not valid JSON: {exc}") from None


def load_run_config(path) -> RunConfig:
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise FrontlabError(f"config {path} must hold a JSON object")
    unknown = set(doc) - _RUN_KEYS
    if unknown:
        raise FrontlabError(f"unknown configuration keys: {sorted(unknown)}")
    pde = doc.get("pde", {})
    if set(pde) - _PDE_KEYS:
        raise FrontlabError(f"unknown pde keys: {sorted(set(pde) - _PDE_KEYS)}")
    pert = pde.get("perturbation", {})
    if set(pert) - _PERTURBATION_KEYS:
        raise FrontlabError(
            f"unknown perturbation keys: {sorted(set(pert) - _PERTURBATION_KEYS)}")
    ode = doc.get("ode", {})
    if set(ode) - _ODE_KEYS:
        raise FrontlabError(f"unknown ode keys: {sorted(set(ode) - _ODE_KEYS)}")
    model_doc = {k: v for k, v in doc.items() if k not in _RUN_ONLY_KEYS}
    params, coupling = model_from_dict(model_doc)
    return RunConfig(params=params, coupling=coupling,
                     seed=int(doc.get("seed", 0)),
                     output_dir=doc.get("output_dir", "."),
                     pde=pde, ode=ode, raw=doc)


def _write_manifest(cfg: RunConfig, outdir, command, extra=None):
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "tool": "frontlab",
        "version": __version__,
        "command": command,
        "config": cfg.raw,
        "seed": cfg.seed,
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write("# " + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{val:.17g}" if isinstance(val, float) else str(val)
                              for val in row) + "\n")


def _fmt_complex(z):
    return float(z.real), float(z.imag)


# -- subcommand implementations -------------------------------------------------

def _cmd_gamma(args, cfg, outdir):
    from . import existence
    wrote = []
    if args.roots:
        report = existence.gamma0_roots(cfg.params, cfg.coupling)
        path = os.path.join(outdir, "gamma_roots.csv")
        _write_csv(path, ["root", "multiplicity"], [(r, m) for r, m in report])
        wrote.append(path)
    if args.taylor is not None:
        series = existence.gamma0_taylor(cfg.params, cfg.coupling, args.taylor)
        path = os.path.join(outdir, "gamma_taylor.csv")
        _write_csv(path, ["order", "coefficient"],
                   list(enumerate(series.coeffs)))
        wrote.append(path)
    if args.folds:
        px, py, xmin, xmax, ymin, ymax, nx, ny = args.folds
        branches = existence.fold_curves(cfg.params, cfg.coupling, (px, py),
                                         (xmin, xmax, ymin, ymax), n_c=max(nx, ny))
        path = os.path.join(outdir, "gamma_folds.csv")
        rows = []
        for bi, branch in enumerate(branches):
            for (p1, p2), cval in zip(branch.points, branch.c_values):
                rows.append((bi, p1, p2, cval))
        _write_csv(path, ["branch", px, py, "c"], rows)
        wrote.append(path)
    if not wrote:
        print("nothing requested: pass --roots, --taylor or --folds", file=sys.stderr)
        return 2
    for path in wrote:
        print(path)
    return 0


def _cmd_evans(args, cfg, outdir):
    from . import evans
    ctx = evans.evans_context(cfg.params, cfg.coupling, c=args.at)
    wrote = []
    if args.taylor is not None:
        if args.at != 0.0:
            raise FrontlabError("--taylor is defined at c = 0")
        series = evans.evans_taylor_c0(cfg.params, cfg.coupling, args.taylor)
        path = os.path.join(outdir, "evans_taylor.csv")
        _write_csv(path, ["order", "coefficient"], list(enumerate(series.coeffs)))
        wrote.append(path)
    if args.bound:
        print(f"root bound: {evans.evans_root_bound(ctx):.17g}")
    if args.roots:
        rootset = evans.evans_roots(ctx, args.roots)
        path = os.path.join(outdir, "evans_roots.csv")
        rows = [(_fmt_complex(z)[0], _fmt_complex(z)[1], m)
                for z, m in rootset.roots]
        _write_csv(path, ["real", "imag", "multiplicity"], rows)
        wrote.append(path)
        print(f"winding total: {rootset.winding_total}")
    for path in wrote:
        print(path)
    return 0


def _cmd_design(args, cfg, outdir):
    from . import designer
    target = args.target
    params = cfg.params
    if target.startswith("evans:"):
        ell = int(target.split(":", 1)[1])
        alpha = designer.design_evans_degeneracy(params, ell)
        coupling = Coupling(0.0, tuple(alpha), (0.0,) * params.n_slow)
    elif target.startswith("gamma:"):
        m = int(target.split(":", 1)[1])
        alpha, beta, gamma = designer.design_gamma_degeneracy(params, m)
        coupling = Coupling(gamma, tuple(alpha), tuple(beta))
    elif target == "simultaneous":
        design = designer.design_simultaneous(params.d, params.tau[0],
                                              epsilon=params.epsilon)
        params = design.params
        coupling = design.coupling()
        print("singular_limit_only: true")
    elif target.startswith("imprint:"):
        targets = _read_json(target.split(":", 1)[1], "imprint targets")
        coupling = designer.imprint_scalar_singularity(params, targets)
    else:
        raise FrontlabError(f"unknown design target {target!r}")
    path = os.path.join(outdir, "design.json")
    with open(path, "w") as fh:
        json.dump(model_to_dict(params, coupling), fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


def _cmd_jordan(args, cfg, outdir):
    from .jordan_chain import chain_profile
    profile = chain_profile(cfg.params, cfg.coupling, args.k, args.ell)
    half = cfg.pde.get("domain_half_length", 20.0)
    y = np.linspace(-half, half, 2001)
    rows = []
    for yi in y:
        row = [float(yi), float(np.real(profile.u(yi)))]
        row += [float(np.real(profile.v(j, yi)))
                for j in range(1, cfg.params.n_slow + 1)]
        rows.append(tuple(row))
    path = os.path.join(outdir, "jordan_profile.csv")
    _write_csv(path, ["y", "u"] + [f"v{j}" for j in range(1, cfg.params.n_slow + 1)],
               rows)
    print(path)
    return 0


def _cmd_ode(args, cfg, outdir):
    from . import speed_ode as so
    if args.nf:
        nu0, l_, m_, n_, a11, a12, delta = args.nf
        ode = so.ScaledNF(nu0=nu0, nu=(l_, m_, n_), a11=a11, a12=a12, delta=delta)
    elif args.from_analysis:
        ode = so.build_from_analysis(cfg.params, cfg.coupling,
                                     n_prime=cfg.ode.get("n_prime", cfg.params.n_slow),
                                     h=cfg.ode.get("h", 1.0))
    else:
        raise FrontlabError("pass --from-analysis or --nf")
    if args.equilibria:
        eqs = so.equilibria_and_classification(ode)
        report = [{"c": e.c_star, "kind": e.kind,
                   "eigenvalues": [[z.real, z.imag] for z in e.eigenvalues]}
                  for e in eqs]
        path = os.path.join(outdir, "ode_equilibria.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(path)
    if args.integrate is not None:
        t_end = args.integrate
        dim = ode.dim
        y0 = np.full(dim, 1e-3)
        traj = so.integrate(ode, y0, t_end, tol=1e-9,
                            t_eval=np.linspace(0, t_end, 2001))
        path = os.path.join(outdir, "ode_trajectory.csv")
        rows = [tuple([float(t)] + [float(v) for v in traj.y[:, i]])
                for i, t in enumerate(traj.t)]
        _write_csv(path, ["t"] + [f"c{k + 1}" for k in range(dim)], rows)
        print(path)
    if args.shoot:
        result = so.shilnikov_shoot(ode, np.linspace(*args.shoot))
        path = os.path.join(outdir, "ode_shoot.csv")
        _write_csv(path, ["nu_bar", "miss", "status", "rho_s"],
                   [(p.nu_bar, p.miss, p.status, p.rho_s) for p in result.trace])
        print(path)
        for cand in result.candidates:
            print(f"candidate nu_bar={cand.nu_bar:.12g} miss={cand.miss:.3e} "
                  f"rho_s={cand.rho_s:.6g}")
    if args.lyapunov is not None:
        val = so.lyapunov_max(ode, np.full(ode.dim, 1e-3), args.lyapunov,
                              renorm_interval=args.lyapunov / 100.0,
                              seed=cfg.seed)
        print(f"lyapunov_max: {val:.6g}")
    return 0


def _pde_setup(cfg):
    from . import pde_sim
    half = cfg.pde.get("domain_half_length", 20.0)
    n_x = cfg.pde.get("n_x", pde_sim._default_nx(cfg.params, half))
    grid = pde_sim.make_grid(half, n_x, cfg.params.epsilon)
    return pde_sim, grid


def _cmd_pde_sim(args, cfg, outdir):
    pde_sim, grid = _pde_setup(cfg)
    state = pde_sim.initial_front_state(cfg.params, cfg.coupling, grid)
    pert = cfg.pde.get("perturbation")
    if pert:
        if pert.get("mode", "bump") == "bump":
            state = pde_sim.perturb_with_bump(
                state, pert.get("amplitude", 0.01), pert.get("width", 1.0),
                pert.get("center", 0.0))
        else:
            from .jordan_chain import eigenfunction_c0
            profile = eigenfunction_c0(cfg.params, pert.get("lam", 0.0),
                                       cfg.coupling)
            state = pde_sim.perturb_with_profile(state, profile,
                                                 pert.get("amplitude", 0.01))
    result = pde_sim.simulate(state, cfg.pde.get("t_end", 10.0),
                              output_stride=cfg.pde.get("output_stride", 10),
                              dt=cfg.pde.get("dt"))
    path = os.path.join(outdir, "pde_timeseries.csv")
    rows = list(zip((float(t) for t in result.t),
                    (float(p) for p in result.position),
                    (float(s) for s in result.speed),
                    (float(s) for s in result.sup_u),
                    (float(s) for s in result.sup_v)))
    _write_csv(path, ["t", "position", "speed", "sup_u", "sup_v"], rows)
    print(path)
    if result.aborted:
        print(f"aborted: {result.aborted}", file=sys.stderr)
    snap = os.path.join(outdir, "pde_final_profile.csv")
    x = grid.x
    rows = [tuple([float(x[i]), float(result.final_state.u[i])]
                  + [float(result.final_state.v[j, i])
                     for j in range(cfg.params.n_slow)])
            for i in range(grid.n_x)]
    _write_csv(snap, ["x", "u"] + [f"v{j + 1}" for j in range(cfg.params.n_slow)],
               rows)
    print(snap)
    return 0


def _cmd_pde_continue(args, cfg, outdir):
    pde_sim, grid = _pde_setup(cfg)
    points = pde_sim.continue_branch(cfg.params, cfg.coupling, args.free_param,
                                     args.range, ds=args.ds, grid=grid,
                                     max_points=args.max_points)
    path = os.path.join(outdir, "branch.csv")
    rows = []
    for pt in points:
        lead = list(pt.eigenvalues[:8]) + [0j] * (8 - len(pt.eigenvalues[:8]))
        row = [pt.param, pt.c, int(pt.stable), pt.tag]
        for z in lead:
            row += [z.real, z.imag]
        rows.append(tuple(row))
    cols = ["param", "c", "stable", "tag"]
    for i in range(8):
        cols += [f"eig{i}_re", f"eig{i}_im"]
    _write_csv(path, cols, rows)
    print(path)
    return 0


def _cmd_verify(args, cfg, outdir):
    from .verify import run_suite
    failures = run_suite(args.suite, cfg)
    return 1 if failures else 0


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _count(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not a positive count")
    return value


def _comma_list(*kinds):
    """argparse `type=` for a comma list of exactly len(kinds) values, the
    i-th converted by kinds[i]; a bad list is a usage error (exit 2)."""
    def parse(text):
        parts = text.split(",")
        if len(parts) != len(kinds):
            raise argparse.ArgumentTypeError(
                f"expected {len(kinds)} comma-separated values, got {len(parts)}")
        try:
            return tuple(kind(part) for kind, part in zip(kinds, parts))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="front dynamics toolbox for 1-fast/N-slow reaction-diffusion systems")
    parser.add_argument("--config", help="path to JSON configuration")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--json-errors", action="store_true",
                        help="emit machine-readable error objects on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="existence function: roots, series, folds")
    p.add_argument("--roots", action="store_true")
    p.add_argument("--taylor", type=int, default=None, metavar="M")
    p.add_argument("--folds", default=None, metavar="px,py,xmin,xmax,ymin,ymax,nx,ny",
                   type=_comma_list(str, str, *[_finite] * 4, _count, _count))

    p = sub.add_parser("evans", help="Evans function: series, bound, roots")
    p.add_argument("--at", type=float, default=0.0, metavar="c")
    p.add_argument("--taylor", type=int, default=None, metavar="M")
    p.add_argument("--roots", default=None, metavar="xmin,xmax,ymin,ymax",
                   type=_comma_list(*[_finite] * 4))
    p.add_argument("--bound", action="store_true")

    p = sub.add_parser("design", help="parameter sets with prescribed degeneracies")
    p.add_argument("--target", required=True,
                   metavar="evans:L|gamma:M|simultaneous|imprint:FILE")

    p = sub.add_parser("jordan", help="chain eigenfunction profiles")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("ode", help="reduced speed ODE")
    p.add_argument("--from-analysis", action="store_true")
    p.add_argument("--nf", default=None, metavar="nu0,l,m,n,a11,a12,delta",
                   type=_comma_list(*[_finite] * 7))
    p.add_argument("--integrate", type=float, default=None, metavar="T")
    p.add_argument("--equilibria", action="store_true")
    p.add_argument("--shoot", default=None, metavar="numin,numax,steps",
                   type=_comma_list(_finite, _finite, _count))
    p.add_argument("--lyapunov", type=float, default=None, metavar="T")

    p = sub.add_parser("pde-sim", help="direct simulation with freezing speed")

    p = sub.add_parser("pde-continue", help="pseudo-arclength continuation")
    p.add_argument("--free-param", required=True)
    p.add_argument("--range", required=True, metavar="lo,hi",
                   type=_comma_list(_finite, _finite))
    p.add_argument("--ds", type=float, default=0.01)
    p.add_argument("--max-points", type=int, default=120)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("--suite", default="paper-params",
                   choices=("paper-params", "full"))
    return parser


_COMMANDS = {
    "gamma": _cmd_gamma,
    "evans": _cmd_evans,
    "design": _cmd_design,
    "jordan": _cmd_jordan,
    "ode": _cmd_ode,
    "pde-sim": _cmd_pde_sim,
    "pde-continue": _cmd_pde_continue,
    "verify": _cmd_verify,
}

_NEEDS_CONFIG = {"gamma", "evans", "design", "jordan", "ode", "pde-sim",
                 "pde-continue", "verify"}


def dispatch(argv) -> int:
    """Parse and run; 0 on success, 1 on domain errors, 2 on usage errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    json_errors = getattr(args, "json_errors", False)
    try:
        if args.command in _NEEDS_CONFIG:
            if not args.config:
                raise FrontlabError(f"{args.command} requires --config")
            cfg = load_run_config(args.config)
        else:
            cfg = None
        outdir = args.output_dir or (cfg.output_dir if cfg else ".")
        os.makedirs(outdir, exist_ok=True)
        if cfg is not None:
            _write_manifest(cfg, outdir, args.command)
        np.random.seed(cfg.seed if cfg else 0)
        return _COMMANDS[args.command](args, cfg, outdir)
    except FrontlabError as exc:
        if json_errors:
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
