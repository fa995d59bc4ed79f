"""Single `frontlab` executable exposing the analysis modules as subcommands.

Configuration is a strict JSON document (unknown keys rejected), read by
every subcommand but `verify`; every run writes a manifest echoing the
configuration as read (null for `verify`) and the tool version, and
all CSV output carries a `# frontlab v1` header so runs are diffable.
Numeric output is deterministic given the configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core_model import Coupling, SystemParams
from .errors import FrontlabError

CSV_HEADER = "# frontlab v1"


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive(text):
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _integer(least, what):
    """argparse `type=`, and a config value's check: an integer >= least."""
    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = "int"          # argparse's "invalid int value: ..."
    return parse


_count = _integer(1, "a positive count")
_natural = _integer(0, "a non-negative integer")


def _mode(value):
    if value not in ("bump", "eigenfunction"):
        raise argparse.ArgumentTypeError(f"{value!r} is not 'bump' or 'eigenfunction'")
    return value


_NUMBER = (int, float)
_NUMBERS = list      # a JSON array of numbers


class _Value(NamedTuple):
    convert: Callable    # raises ArgumentTypeError on a bad value
    kind: type | tuple   # the JSON type: int, _NUMBER, _NUMBERS or str
    default: object      # if the document leaves it out; None: computed where used


#: How a value of the wrong JSON type is reported, by its `kind`; the value
#: is spelled as JSON.
_WRONG_TYPE = {
    int: "{name}: {value} is not a JSON integer",
    _NUMBER: "{name}: {value} is not a JSON number",
    _NUMBERS: "{name}: {value} is not a JSON array of numbers",
    str: "{name} must be a JSON string",
}


def _floats(values):
    return [float(x) for x in values]


#: Every key a config may set; a nested dict is a section, which must be a
#: JSON object.  The model keys are type-checked alone: SystemParams and
#: Coupling check their ranges and finiteness.
_CONFIG_TABLE = {
    "n_slow": _Value(int, int, None),
    "epsilon": _Value(float, _NUMBER, None),
    "tau": _Value(_floats, _NUMBERS, None),
    "d": _Value(_floats, _NUMBERS, None),
    "gamma": _Value(float, _NUMBER, 0.0),
    "alpha": _Value(_floats, _NUMBERS, None),
    "beta": _Value(_floats, _NUMBERS, None),
    "higher": _Value(_floats, _NUMBERS, []),
    "seed": _Value(_natural, int, 0),
    "output_dir": _Value(str, str, "."),
    "pde": {
        "domain_half_length": _Value(_positive, _NUMBER, 20.0),
        "n_x": _Value(_count, int, None),
        "dt": _Value(_positive, _NUMBER, None),
        "t_end": _Value(_positive, _NUMBER, 10.0),
        "output_stride": _Value(_count, int, 10),
        "perturbation": {
            "mode": _Value(_mode, str, "bump"),
            "amplitude": _Value(_finite, _NUMBER, 0.01),
            "width": _Value(_positive, _NUMBER, 1.0),
            "center": _Value(_finite, _NUMBER, 0.0),
            "lam": _Value(_finite, _NUMBER, 0.0),
        },
    },
    "ode": {
        "n_prime": _Value(_count, int, None),
    },
}


def _is_kind(value, kind):
    """value is of the JSON type kind; a boolean is no number."""
    if kind is _NUMBERS:
        return isinstance(value, list) and all(_is_kind(x, _NUMBER) for x in value)
    return not isinstance(value, bool) and isinstance(value, kind)


def _check(name, value, entry):
    """Raise FrontlabError naming `name` unless value is of the JSON type
    entry.kind and passes entry.convert (an integer too large for a float
    is no number)."""
    if not _is_kind(value, entry.kind):
        raise FrontlabError(_WRONG_TYPE[entry.kind].format(name=name,
                                                           value=json.dumps(value)))
    try:
        entry.convert(value)
    except (argparse.ArgumentTypeError, OverflowError) as exc:
        # convert spells the value as Python does, for argparse; here as JSON
        text = str(exc).replace(repr(value), json.dumps(value), 1)
        raise FrontlabError(f"{name}: {text}") from None


def _resolve(doc, table, prefix=""):
    """doc checked against table, with the default of each value it leaves
    out filled in.  Errors name the entry as `section.key`."""
    unknown = set(doc) - set(table)
    if unknown:
        raise FrontlabError(f"unknown {prefix[:-1] or 'configuration'} keys: "
                            f"{sorted(unknown)}")
    out = {}
    for key, entry in table.items():
        name = prefix + key
        if isinstance(entry, dict):
            section = doc.get(key, {})
            if not isinstance(section, dict):
                raise FrontlabError(f"{name} must be a JSON object")
            out[key] = _resolve(section, entry, name + ".")
        elif key in doc:
            _check(name, doc[key], entry)
            out[key] = doc[key]
        else:
            out[key] = entry.default
    return out


@dataclass
class RunConfig:
    params: SystemParams
    coupling: Coupling
    seed: int
    output_dir: str
    pde: dict          # every `pde` value, defaults filled in
    ode: dict          # every `ode` value, defaults filled in
    raw: dict          # the document as read


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
    cfg = _resolve(doc, _CONFIG_TABLE)
    if not {"epsilon", "tau", "d"} <= set(doc):
        raise FrontlabError("configuration requires `epsilon`, `tau` and `d`")
    n = len(cfg["tau"])
    if cfg["n_slow"] not in (None, n):
        raise FrontlabError(f"n_slow={cfg['n_slow']} inconsistent with len(tau)={n}")
    for key in ("alpha", "beta"):
        if cfg[key] is None:
            cfg[key] = [0.0] * n
        elif len(cfg[key]) != n:
            raise FrontlabError(f"{key} has {len(cfg[key])} entries for {n} slow components")
    params = SystemParams(epsilon=cfg["epsilon"], tau=cfg["tau"], d=cfg["d"])
    coupling = Coupling(cfg["gamma"], cfg["alpha"], cfg["beta"], cfg["higher"])
    return RunConfig(params=params, coupling=coupling, seed=cfg["seed"],
                     output_dir=cfg["output_dir"], pde=cfg["pde"], ode=cfg["ode"],
                     raw=doc)


def _write_json(outdir, name, obj):
    """Write obj as indented JSON to the file `name` in outdir; print its path."""
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    print(path)


def _write_csv(outdir, name, names, columns):
    """Write the file `name` in outdir, column i named names[i] holding the
    values of columns[i]; print its path."""
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write("# " + ",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{val:.17g}" if isinstance(val, float) else str(val)
                              for val in row) + "\n")
    print(path)


# -- subcommand implementations -------------------------------------------------

def _cmd_gamma(args, cfg, outdir):
    from . import existence
    if args.roots:
        report = existence.gamma0_roots(cfg.params, cfg.coupling)
        _write_csv(outdir, "gamma_roots.csv", ["root", "multiplicity"], zip(*report))
    if args.taylor is not None:
        series = existence.gamma0_taylor(cfg.params, cfg.coupling, args.taylor)
        _write_csv(outdir, "gamma_taylor.csv", ["order", "coefficient"],
                   zip(*enumerate(series.coeffs)))
    if args.folds:
        px, py, xmin, xmax, ymin, ymax, nx, ny = args.folds
        branches = existence.fold_curves(cfg.params, cfg.coupling, (px, py),
                                         (xmin, xmax, ymin, ymax), n_c=max(nx, ny))
        _write_csv(outdir, "gamma_folds.csv", ["branch", px, py, "c"],
                   zip(*((bi, p1, p2, cval) for bi, branch in enumerate(branches)
                         for (p1, p2), cval in zip(branch.points, branch.c_values))))
    return 0


def _cmd_evans(args, cfg, outdir):
    from . import evans
    if args.taylor is not None:
        if args.at != 0.0:
            raise FrontlabError("--taylor is defined at c = 0")
        series = evans.evans_taylor_c0(cfg.params, cfg.coupling, args.taylor)
        _write_csv(outdir, "evans_taylor.csv", ["order", "coefficient"],
                   zip(*enumerate(series.coeffs)))
    if args.bound or args.roots:    # the context's branch points are 0/0 if 4 d_j^2 underflows
        ctx = evans.evans_context(cfg.params, cfg.coupling, c=args.at)
    if args.bound:
        print(f"root bound: {evans.evans_root_bound(ctx):.17g}")
    if args.roots:
        rootset = evans.evans_roots(ctx, args.roots)
        roots = np.array(rootset.locations, dtype=complex)
        _write_csv(outdir, "evans_roots.csv", ["real", "imag", "multiplicity"],
                   [roots.real, roots.imag, [m for _z, m in rootset.roots]])
        print(f"winding total: {rootset.winding_total}")
    return 0


def _cmd_design(args, cfg, outdir):
    from . import designer
    kind, arg = args.target
    params = cfg.params
    if kind == "evans":
        alpha = designer.design_evans_degeneracy(params, arg)
        coupling = Coupling(0.0, tuple(alpha), (0.0,) * params.n_slow)
    elif kind == "gamma":
        alpha, beta, gamma = designer.design_gamma_degeneracy(params, arg)
        coupling = Coupling(gamma, tuple(alpha), tuple(beta))
    elif kind == "simultaneous":
        design = designer.design_simultaneous(params.d, params.tau[0],
                                              epsilon=params.epsilon)
        params = design.params
        coupling = design.coupling()
        print("singular_limit_only: true")
    else:
        targets = _read_json(arg, "imprint targets")
        _check(f"imprint targets {arg}", targets, _Value(_floats, _NUMBERS, None))
        coupling = designer.imprint_scalar_singularity(params, targets)
    # the model keys of a config document, which `--config` reads back
    _write_json(outdir, "design.json",
                {"n_slow": params.n_slow, **asdict(params), **asdict(coupling)})
    return 0


def _cmd_jordan(args, cfg, outdir):
    from .jordan_chain import chain_profile
    profile = chain_profile(cfg.params, cfg.coupling, args.k, args.ell)
    half = cfg.pde["domain_half_length"]
    y = np.linspace(-half, half, 2001)
    slow = range(1, cfg.params.n_slow + 1)
    _write_csv(outdir, "jordan_profile.csv", ["y", "u"] + [f"v{j}" for j in slow],
               [y, np.real(profile.u(y))] + [np.real(profile.v(j, y)) for j in slow])
    return 0


def _cmd_ode(args, cfg, outdir):
    from . import speed_ode as so
    if args.nf:
        nu0, l_, m_, n_, a11, a12, delta = args.nf
        ode = so.ScaledNF(nu0=nu0, nu=(l_, m_, n_), a11=a11, a12=a12, delta=delta)
    else:
        ode = so.build_from_analysis(cfg.params, cfg.coupling,
                                     n_prime=cfg.ode["n_prime"] or cfg.params.n_slow)
    if args.equilibria:
        eqs = so.equilibria_and_classification(ode)
        report = [{"c": e.c_star, "kind": e.kind,
                   "eigenvalues": [[z.real, z.imag] for z in e.eigenvalues]}
                  for e in eqs]
        _write_json(outdir, "ode_equilibria.json", report)
    if args.integrate is not None:
        t_end = args.integrate
        traj = so.integrate(ode, np.full(ode.dim, 1e-3), t_end, tol=1e-9,
                            t_eval=np.linspace(0, t_end, 2001))
        _write_csv(outdir, "ode_trajectory.csv", ["t"] + [f"c{k + 1}" for k in range(ode.dim)],
                   [traj.t, *traj.y])
        if traj.blew_up:
            print(f"blew up at t={traj.t[-1]:.6g}", file=sys.stderr)
    if args.shoot:
        result = so.shilnikov_shoot(ode, np.linspace(*args.shoot))
        _write_csv(outdir, "ode_shoot.csv", ["nu_bar", "miss", "status", "rho_s"],
                   zip(*((p.nu_bar, p.miss, p.status, p.rho_s) for p in result.trace)))
        for cand in result.candidates:
            print(f"candidate nu_bar={cand.nu_bar:.12g} miss={cand.miss:.3e} "
                  f"rho_s={cand.rho_s:.6g}")
    if args.lyapunov is not None:
        start = traj.y[:, -1] if args.integrate and not traj.blew_up else np.full(ode.dim, 1e-3)
        val = so.lyapunov_max(ode, start, args.lyapunov,
                              renorm_interval=args.lyapunov / 100.0,
                              seed=cfg.seed)
        print(f"lyapunov_max: {val:.6g}")
    return 0


def _pde_setup(cfg):
    from . import pde_sim
    half = cfg.pde["domain_half_length"]
    n_x = cfg.pde["n_x"] or pde_sim._default_nx(cfg.params, half)
    # unchecked here: the initial front state warns once if it under-resolves
    return pde_sim, pde_sim.make_grid(half, n_x)


def _cmd_pde_sim(args, cfg, outdir):
    pde_sim, grid = _pde_setup(cfg)
    state = pde_sim.initial_front_state(cfg.params, cfg.coupling, grid)
    if cfg.raw.get("pde", {}).get("perturbation"):
        pert = cfg.pde["perturbation"]
        if pert["mode"] == "bump":
            state = pde_sim.perturb_with_bump(state, pert["amplitude"], pert["width"],
                                              pert["center"])
        else:
            from .jordan_chain import eigenfunction_c0
            profile = eigenfunction_c0(cfg.params, pert["lam"], cfg.coupling)
            state = pde_sim.perturb_with_profile(state, profile, pert["amplitude"])
    result = pde_sim.simulate(state, cfg.pde["t_end"],
                              output_stride=cfg.pde["output_stride"], dt=cfg.pde["dt"])
    _write_csv(outdir, "pde_timeseries.csv", ["t", "position", "speed", "sup_u", "sup_v"],
               [result.t, result.position, result.speed, result.sup_u, result.sup_v])
    if result.aborted:
        print(f"aborted: {result.aborted}", file=sys.stderr)
    _write_csv(outdir, "pde_final_profile.csv",
               ["x", "u"] + [f"v{j}" for j in range(1, cfg.params.n_slow + 1)],
               [grid.x, result.final_state.u, *result.final_state.v])
    return 0


def _cmd_pde_continue(args, cfg, outdir):
    pde_sim, grid = _pde_setup(cfg)
    points = pde_sim.continue_branch(cfg.params, cfg.coupling, args.free_param,
                                     args.range, ds=args.ds, grid=grid,
                                     max_points=args.max_points)
    # the eight leading eigenvalues of each point, padded with zeros
    eigs = np.zeros((len(points), 8), dtype=complex)
    for row, pt in zip(eigs, points):
        row[:len(pt.eigenvalues[:8])] = pt.eigenvalues[:8]
    names = ["param", "c", "stable", "tag"]
    columns = [[pt.param for pt in points], [pt.c for pt in points],
               [int(pt.stable) for pt in points], [pt.tag for pt in points]]
    for i, eig in enumerate(eigs.T):
        names += [f"eig{i}_re", f"eig{i}_im"]
        columns += [eig.real, eig.imag]
    _write_csv(outdir, "branch.csv", names, columns)
    return 0


def _cmd_verify(args, cfg, outdir):
    from .verify import run_suite
    return 1 if run_suite(args.suite) else 0


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


def _design_target(text):
    """argparse `type=` for `design --target`: (kind, argument), with the
    order of `evans:L` and `gamma:M` an int; anything else is a usage error."""
    kind, _, arg = text.partition(":")
    if kind in ("evans", "gamma"):
        try:
            return kind, int(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{kind}: needs an integer order, got {arg!r}") from None
    if text == "simultaneous" or (kind == "imprint" and arg):
        return kind, arg
    raise argparse.ArgumentTypeError(f"unknown design target {text!r}")


class _UsageError(Exception):
    """An argparse usage error, raised instead of printed so that `dispatch`
    can report it as plain text or, under --json-errors, as a JSON object."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.usage = parser.format_usage() + f"{parser.prog}: error: {message}"


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the parent's class, so they raise too
    def error(self, message):
        raise _UsageError(self, message)


def build_parser():
    parser = _Parser(
        prog="frontlab",
        description="front dynamics toolbox for 1-fast/N-slow reaction-diffusion systems")
    parser.add_argument("--config", help="path to JSON configuration")
    parser.add_argument("--output-dir")
    parser.add_argument("--json-errors", action="store_true",
                        help="emit machine-readable error objects on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, actions=()):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, parser=p, actions=actions)
        return p

    p = command("gamma", _cmd_gamma, "existence function: roots, series, folds",
                ("roots", "taylor", "folds"))
    p.add_argument("--roots", action="store_true")
    p.add_argument("--taylor", type=_natural, metavar="M")
    p.add_argument("--folds", metavar="px,py,xmin,xmax,ymin,ymax,nx,ny",
                   type=_comma_list(str, str, *[_finite] * 4, _count, _count))

    p = command("evans", _cmd_evans, "Evans function: series, bound, roots",
                ("taylor", "bound", "roots"))
    p.add_argument("--at", type=_finite, default=0.0, metavar="c")
    p.add_argument("--taylor", type=_natural, metavar="M")
    p.add_argument("--roots", metavar="xmin,xmax,ymin,ymax",
                   type=_comma_list(*[_finite] * 4))
    p.add_argument("--bound", action="store_true")

    p = command("design", _cmd_design, "parameter sets with prescribed degeneracies")
    p.add_argument("--target", required=True, type=_design_target,
                   metavar="evans:L|gamma:M|simultaneous|imprint:FILE")

    p = command("jordan", _cmd_jordan, "chain eigenfunction profiles")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)

    p = command("ode", _cmd_ode, "reduced speed ODE",
                ("equilibria", "integrate", "shoot", "lyapunov"))
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-analysis", action="store_true")
    source.add_argument("--nf", metavar="nu0,l,m,n,a11,a12,delta",
                        type=_comma_list(*[_finite] * 7))
    p.add_argument("--integrate", type=_positive, metavar="T")
    p.add_argument("--equilibria", action="store_true")
    p.add_argument("--shoot", metavar="numin,numax,steps",
                   type=_comma_list(_finite, _finite, _count))
    p.add_argument("--lyapunov", type=_positive, metavar="T")

    command("pde-sim", _cmd_pde_sim, "direct simulation with freezing speed")

    p = command("pde-continue", _cmd_pde_continue, "pseudo-arclength continuation")
    p.add_argument("--free-param", required=True)
    p.add_argument("--range", required=True, metavar="lo,hi",
                   type=_comma_list(_finite, _finite))
    p.add_argument("--ds", type=_positive, default=0.01)
    p.add_argument("--max-points", default=120,
                   type=_integer(2, "an integer >= 2 (a branch starts with two points)"))

    p = command("verify", _cmd_verify, "run the singular-limit acceptance criteria")
    p.add_argument("--suite", default="paper-params", choices=("paper-params", "full"))
    return parser


def _check_requested(args):
    """A usage error if the subcommand lists actions and a run gives none."""
    given = [getattr(args, a) for a in args.actions]
    if given and all(v is None or v is False for v in given):
        *most, last = (f"--{a}" for a in args.actions)
        raise _UsageError(args.parser, f"nothing requested: pass {', '.join(most)} or {last}")


def _print_json_error(name, exc):
    print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)


def dispatch(argv) -> int:
    """Parse and run; 0 on success, 1 on domain errors, 2 on usage errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_requested(args)
    except _UsageError as exc:
        if "--json-errors" in argv:
            _print_json_error("UsageError", exc)
        else:
            print(exc.usage, file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = None
        if args.command != "verify":        # verify reads no configuration
            if not args.config:
                raise FrontlabError(f"{args.command} requires --config")
            cfg = load_run_config(args.config)
        outdir = args.output_dir or (cfg.output_dir if cfg else ".")
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump({"tool": "frontlab", "version": __version__, "command": args.command,
                       "config": cfg and cfg.raw, "seed": cfg and cfg.seed},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        return args.run(args, cfg, outdir)
    except FrontlabError as exc:
        if args.json_errors:
            _print_json_error(type(exc).__name__, exc)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
