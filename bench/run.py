"""frontlab benchmark: three workloads, each in its own process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analysis --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke            # all three, reduced size, all checks
    python3 bench/run.py --seed 1           # all three, full size

A run times the imports in fresh interpreters and sets up its inputs from
the seed several times (reporting the median of each), then repeats whole
rounds of the workload's fixed work list until `--seconds` have passed and at
least two rounds are done, checking the outputs of every round.  With
`--trace 0` it reports the end-to-end metrics of `BENCHMARK.json`; with
`--trace 1` it runs traced rounds, reports the per-layer metrics and writes
the spans to `.bench_out/`.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

frontlab is imported from `src/` next to this directory and nowhere else; a
checkout without it is an error (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analysis", "pde_dynamics", "pde_branch")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_ROUNDS = 2

# single-threaded: the library's own worker cap and every BLAS pool
THREAD_ENV = {"FRONTLAB_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, one round, every check")
    return ap.parse_args(argv)


def import_frontlab():
    """frontlab from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "frontlab" / "__init__.py").is_file():
        print(f"error: no frontlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import frontlab
    import frontlab.verify  # noqa: F401  (reference sets)
    if Path(frontlab.__file__).resolve().parent != (src / "frontlab").resolve():
        print(f"error: imported frontlab from {frontlab.__file__}", file=sys.stderr)
        sys.exit(2)
    return frontlab


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(args, rounds, setups, imports):
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "FRONTLAB_THREADS": os.environ["FRONTLAB_THREADS"],
            "blas_threads": blas_threads(), "seed": args.seed, "rounds": rounds,
            "setup_repeats": setups, "import_repeats": imports, "git_commit": git_commit()}


def workload_module(name):
    import analysis
    import pde
    # (set-up, one round, checks of a round, checks of the set-up)
    return {
        "analysis": (analysis.setup, analysis.run_round, analysis.check_round, None),
        "pde_dynamics": (pde.setup_dynamics, pde.run_dynamics, pde.check_dynamics,
                         pde.check_dynamics_setup),
        "pde_branch": (pde.setup_branch, pde.run_branch, pde.check_branch, None),
    }[name]


#: measures, in a fresh interpreter, the imports a run makes before set-up
IMPORT_PROBE = """import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import frontlab, frontlab.verify
print(time.perf_counter() - t0)
"""


def import_seconds():
    """Seconds of the import, each time in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(res.stdout.split()[-1]))
    return samples


def peak_rss_mib():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Rounds of one workload, with their checks and samples."""

    def __init__(self, inputs, run_round, check_round):
        self.inputs = inputs
        self.run_round = run_round
        self.check_round = check_round
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.counters = {}
        self.long_count = 1

    def record(self, checks):
        for c in checks:
            prev = self.verdicts.get(c.name)
            if prev is None or (prev.ok and not c.ok):
                self.verdicts[c.name] = c

    def rounds(self, lib, seconds, min_rounds, probe=None):
        """Rounds until `seconds` pass (at least `min_rounds`).

        Returns the rounds' wall times and, with a probe, their items as
        (role, seconds of work, probe kernel times sampled during it).
        """
        walls, items = [], []
        started = time.perf_counter()
        while len(walls) < min_rounds or time.perf_counter() - started < seconds:
            if lib.tracer is not None:
                lib.tracer.begin_trace()
            t0 = time.perf_counter()
            with lib.span("bench.round"):
                out = self.run_round(self.inputs, lib)
            walls.append(time.perf_counter() - t0)
            if probe is not None:
                items.append([(role, *probe.item(a, b)) for role, a, b in out["timings"]])
            self.long_count = out["long_count"]
            checks, failed, counters = self.check_round(self.inputs, out)
            self.record(checks)
            self.attempted += out["attempted"]
            self.failed += failed
            self.counters = counters
        return walls, items


def run_workload(args):
    for key, value in THREAD_ENV.items():
        os.environ[key] = value
    fl = import_frontlab()
    import warnings
    warnings.simplefilter("ignore")
    from tracing import Layers, Tracer, span_cost
    from probe import SpeedProbe, at_usual, elasticity, steady_median
    import metrics

    setup, run_round, check_round, check_setup = workload_module(args.workload)
    plain = Layers.plain()
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    seconds = 0.0 if args.smoke else args.seconds
    setup_count = 1 if args.smoke else SETUP_REPEATS
    if args.trace == 0:
        imports = import_seconds()
        setups = []
        for _ in range(setup_count):
            t0 = time.perf_counter()
            inputs = setup(args.seed, plain, fl, smoke=args.smoke)
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(setups)
        with SpeedProbe() as probe:
            run = Run(inputs, run_round, check_round)
            if check_setup is not None:
                run.record(check_setup(inputs))
            walls, items = run.rounds(plain, seconds, min_rounds, probe)
        usual = probe.usual()
        roles, repeats = metrics.item_repeats(items)
        e, pairs = elasticity(repeats, usual)
        values = metrics.end_to_end(
            list(zip(roles, (steady_median(r, usual, e) for r in repeats))),
            run.long_count, setup_s, peak_rss_mib())
        raw = metrics.end_to_end(
            list(zip(roles, (statistics.median(w for w, _ds in r) for r in repeats))),
            run.long_count, setup_s, 0.0)
        units = dict(metrics.END_TO_END)
        rounds = len(walls)
        kept = sum(at_usual(ds, usual) for r in repeats for _w, ds in r)
        rescaled = sum(not any(at_usual(ds, usual) for _w, ds in r) for r in repeats)
        print(f"round wall times (s): {' '.join(f'{w:.3f}' for w in walls)}; "
              f"{len(probe.durations)} probe samples, usual kernel time "
              f"{1e6 * usual:.0f} us; {kept} of {sum(map(len, repeats))} item repeats "
              f"at the usual speed; {rescaled} of {len(repeats)} items rescaled with "
              f"elasticity {e:.2f} from {pairs} pairs")
        print("set-up (s): imports " + " ".join(f"{w:.3f}" for w in imports)
              + "; inputs " + " ".join(f"{w:.3f}" for w in setups))
        print("all repeats, plain medians: " + ", ".join(
            f"{name} = {raw[name]:.6g} {units[name]}" for name in raw if name != "peak_rss_mib"))
    else:
        setup_count, imports = 1, []
        inputs = setup(args.seed, plain, fl, smoke=args.smoke)
        run = Run(inputs, run_round, check_round)
        if check_setup is not None:
            run.record(check_setup(inputs))
        started = time.perf_counter()
        cost = span_cost()
        tracer = Tracer()
        traced = Layers.traced(tracer)
        tracer.begin_trace()
        with traced.span("bench.setup"):
            setup(args.seed, traced, fl, smoke=args.smoke)
        remaining = seconds - (time.perf_counter() - started)
        traced_walls, _items = run.rounds(traced, remaining, min_rounds)
        values = metrics.per_layer(tracer, traced_walls, cost, run.counters)
        units = dict(metrics.per_layer_names())
        rounds = len(traced_walls)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")

    correct = all(c.ok for c in run.verdicts.values())
    for c in sorted(run.verdicts.values(), key=lambda c: c.name):
        print(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    print(f"{args.workload}: {run.attempted} operations attempted, {run.failed} failed "
          f"(planted sets that gamma0_roots gets wrong), {rounds} rounds")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print("environment " + json.dumps(environment(args, rounds, setup_count, len(imports)),
                                      sort_keys=True))
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        res = subprocess.run(cmd, check=False)
        status = status or res.returncode
    return status


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
