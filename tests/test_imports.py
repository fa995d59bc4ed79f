import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_optimize_or_integrate():
    # scipy.optimize is a large share of the import time of the package and
    # of every CLI call, and no module of frontlab uses it; scipy.integrate
    # is never loaded either, since the speed ODE integrates itself
    code = """if True:
        import sys, numpy as np, frontlab, frontlab.verify
        print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])
        nf = frontlab.ScaledNF.shilnikov(-1.0, -1.0, -0.6, a11=1.0)
        frontlab.shilnikov_shoot(nf, np.linspace(-0.8, -0.7, 2), t_max=300.0)
        orbit = frontlab.ScaledNF.shilnikov(-1.0, -0.5, -3.9, a11=1.0)
        y = frontlab.integrate(orbit, np.array([-0.98, 0.0, 0.0]), 30.0).y[:, -1]
        frontlab.lyapunov_max(orbit, y, 20.0, 5.0)
        print('scipy.integrate' in sys.modules)
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "False"]


def test_root_search_does_not_load_optimize(tmp_path):
    # Gamma0's roots come from Chebyshev proxies and Newton on recentred
    # series: neither a gamma0_roots call nor `frontlab gamma --roots`
    # through main() loads scipy.optimize
    config = tmp_path / "n3.json"
    config.write_text('{"epsilon": 0.03, "tau": [1.0, 2.25, 2.89], "d": [1.0, 1.5, 1.7], '
                      '"alpha": [2.5949696477830124, -2.2705984418101357, 1.031610033243679], '
                      '"beta": [1.0, 0.0, 0.0]}')
    code = f"""if True:
        import sys, frontlab, frontlab.verify
        from frontlab.cli import main
        for _name, params, coupling, _orders in frontlab.verify.reference_parameter_sets():
            frontlab.gamma0_roots(params, coupling)
        print('scipy.optimize' in sys.modules)
        sys.argv = ['frontlab', '--config', {str(config)!r}, '--output-dir',
                    {str(tmp_path / 'out')!r}, 'gamma', '--roots']
        try:
            main()
        except SystemExit as exit_:
            print(exit_.code, 'scipy.optimize' in sys.modules)
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    written = tmp_path / "out" / "gamma_roots.csv"
    assert out.stdout.split() == ["False", str(written), "0", "False"]
    assert written.read_text().count("\n") == 4       # two header lines, two roots


def test_singular_limit_paths_do_not_load_scipy(tmp_path):
    # only the PDE layer uses scipy: the package, the CLI and every
    # singular-limit subcommand run through main() load no scipy module;
    # the PDE names still resolve from the package, on first use
    config = tmp_path / "n3.json"
    config.write_text('{"epsilon": 0.03, "tau": [1.0, 2.25, 2.89], "d": [1.0, 1.5, 1.7], '
                      '"alpha": [2.5949696477830124, -2.2705984418101357, 1.031610033243679], '
                      '"beta": [1.0, 0.0, 0.0]}')
    runs = [["gamma", "--roots"], ["evans", "--roots=-0.05,0.05,-0.05,0.05"],
            ["design", "--target", "gamma:7"], ["jordan", "--k", "1", "--ell", "3"],
            ["ode", "--from-analysis", "--integrate", "10"],
            ["verify", "--suite", "paper-params"], ["verify", "--suite", "full"]]
    code = f"""if True:
        import contextlib, io, sys, frontlab, frontlab.cli, frontlab.verify

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

        print(scipy_modules())
        for argv in {runs!r}:
            sys.argv = ['frontlab', '--config', {str(config)!r}, '--output-dir',
                        {str(tmp_path / 'out')!r}] + argv
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    frontlab.cli.main()
            except SystemExit as exit_:
                print(argv[0], exit_.code, scipy_modules())
        print(frontlab.simulate is frontlab.pde_sim.simulate,
              all(hasattr(frontlab, name) for name in frontlab.__all__))
        try:
            frontlab.no_such_name
        except AttributeError as err:
            print(type(err).__name__)
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == (["[]"] + [f"{argv[0]} 0 []" for argv in runs]
                                       + ["True True", "AttributeError"])


def _defaulted_parameters(tree):
    """(owner, function, call name, parameter, positional index or None) for
    every parameter with a default; `__init__` is called by its class name."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                call = owner if child.name == "__init__" else child.name
                for i, arg in enumerate(positional[first:], first):
                    out.append((owner, child.name, call, arg.arg, i))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((owner, child.name, call, arg.arg, None))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def test_options_ledger():
    # Every defaulted parameter of the package that no call in src/ or
    # bench/ sets.  Each one kept here has a reason: direction is the only
    # way onto the downward branch, c_range narrows the c window.  A test-
    # or demo-only option added to the package fails this test.
    root = SRC.parent
    params = []
    for path in sorted((SRC / "frontlab").glob("*.py")):
        params += _defaulted_parameters(ast.parse(path.read_text()))
    calls = [node for tree in (ast.parse(p.read_text())
                               for d in ("src", "bench") for p in (root / d).rglob("*.py"))
             for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def name(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def is_set(owner, call_name, arg, index):
        bound = 0 if owner is None else 1      # self or cls
        for call in calls:
            if name(call) != call_name:
                continue
            if any(k.arg in (arg, None) for k in call.keywords):
                return True
            given = sum(not isinstance(a, ast.Starred) for a in call.args)
            if index is not None and given + bound > index:
                return True
        return False

    unset = sorted(f"{owner + '.' if owner else ''}{func}.{arg}"
                   for owner, func, call_name, arg, index in params
                   if not is_set(owner, call_name, arg, index))
    assert unset == ["continue_branch.direction", "fold_curves.c_range"]
