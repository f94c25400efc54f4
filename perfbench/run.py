"""grqi benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from its
``src`` tree.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 when every output check holds, 1 when
one fails, and 2 when the checkout has no ``src/grqi``.  ``--smoke`` runs
every workload at its small size, untraced and traced, and checks that
each prints every metric.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys

# One BLAS thread for this process and every process it starts; must be
# set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 3

END_TO_END = (
    ("trials_per_s", "trials/s", "higher"),
    ("gen_s", "s", "lower"),
    ("refine_s", "s", "lower"),
    ("refine_s.pencil", "s", "lower"),
    ("refine_s.generalized", "s", "lower"),
    ("refine_s.hermitian", "s", "lower"),
    ("refine_s.hamiltonian", "s", "lower"),
    ("refine_s.two_sided_p20", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

_TIMED = (
    "kernels.orthonormalize", "kernels.Subspace", "kernels.shifted_solve",
    "kernels.small_eig", "kernels.largest_principal_angle",
    "kernels.residual_angle", "iterations.tsgrqi_step",
    "iterations.grqi_step", "structured.one_sided_step",
    "structured.generalized_hermitian_step", "structured.pencil_tsgrqi_step",
    "structured.full_eigenspace_targets", "structured.apply_j",
)
PER_LAYER = (
    tuple(
        (f"{span}.{kind}", unit, "lower")
        for span in _TIMED
        for kind, unit in (("s", "s"), ("calls", "count"))
    )
    + tuple(
        (f"{span}.s", "s", "lower")
        for span in (
            "kernels.solve_eps", "iterations.iterate",
            "testgen.random_diagonalizable", "testgen.random_hamiltonian",
            "testgen.nearby_subspace", "testgen.trial_rng",
            "experiments.run_table1", "experiments.run_hamiltonian",
            "experiments.summarize", "experiments.write_traces",
            "mmio.write_matrix", "mmio.read_matrix", "cli.gen", "cli.refine",
        )
    )
    + (
        ("kernels.shifted_solve.perturbed", "count", "lower"),
        ("iterations.steps", "count", "lower"),
        ("experiments.write_traces.bytes", "B", "lower"),
        ("mmio.write_matrix.bytes", "B", "lower"),
        ("mmio.read_matrix.bytes", "B", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.outside_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    )
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="run the workload at its small size")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the clock reading, and exit")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload small, untraced and traced")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    return args


def measure_setup(args, clock) -> float:
    """Median over fresh processes of the time from launch to the end of
    set-up, which each process reports as its last line."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--small"] if args.small else []
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = clock()
        out = subprocess.run(
            argv, check=True, stdout=subprocess.PIPE, text=True
        ).stdout
        samples.append(float(out.split()[-1]) - t0)
    return statistics.median(samples)


class SideRuns:
    """Short runs, at their side size, of the workloads that own the
    metrics the main workload lacks.  Their rounds are interleaved, one
    per :meth:`tick`, between the main workload's timed operations, so
    that they sample the machine over the same stretch of time as the
    main metrics: spread evenly over the ``main_ticks`` operations the
    main workload makes at least.  :meth:`finish` runs any rounds still
    pending."""

    def __init__(self, main_cls, main_ticks, args, workdir, providers):
        self.sides = []
        queues = []
        for cls in providers:
            wanted = [m for m in cls.metrics if m not in main_cls.metrics]
            if not wanted:
                continue
            sub = os.path.join(workdir, "side-" + cls.name)
            os.makedirs(sub)
            side = cls(args.seed, "side", sub)
            self.sides.append((side, wanted))
            queues.append([side] * (1 if args.small else side.min_rounds))
        # Round-robin over the side workloads.
        self.pending = [
            side for group in itertools.zip_longest(*queues)
            for side in group if side is not None
        ]
        self.rate = len(self.pending) / main_ticks
        self.due = 0.0

    def tick(self) -> None:
        self.due += self.rate
        while self.pending and self.due >= 1.0:
            self.pending.pop(0).round()
            self.due -= 1.0

    def finish(self):
        while self.pending:
            self.pending.pop(0).round()
        values, errors, attempted, failed = {}, [], 0, 0
        for side, wanted in self.sides:
            got = side.values()
            values.update({m: got[m] for m in wanted})
            errors += side.check()
            attempted += side.attempted
            failed += side.failed
        return values, errors, attempted, failed


def run_untraced(args, cls, wl_factory, providers, clock, workdir):
    setup_s = measure_setup(args, clock)
    wl = wl_factory()
    sides = SideRuns(
        cls, wl.min_rounds * wl.ticks_per_round, args, workdir, providers
    )
    t0 = clock()
    while wl.rounds < wl.min_rounds or clock() - t0 < args.seconds:
        wl.round(tick=sides.tick)
    values = wl.values()
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = wl.peak_rss_mb or (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    errors = wl.check()
    side, side_errors, side_attempted, side_failed = sides.finish()
    values.update(side)
    units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    return (metrics, errors + side_errors, wl.attempted + side_attempted,
            wl.failed + side_failed, wl.notes())


def run_traced(args, wl_factory, clock):
    import tracing

    wl = wl_factory()
    per_pass = wl.pass_rounds
    t0 = clock()
    for _ in range(per_pass):
        wl.round()
    untraced = clock() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    t1 = clock()
    passes = 0
    while passes == 0 or clock() - t0 < args.seconds:
        for _ in range(per_pass):
            wl.round(tracer)
        passes += 1
    t2 = clock()
    counts = dict(tracer.counts)
    totals = tracer.layer_totals(t1, t2)
    errors = wl.check()
    self_s, calls = totals["self_s"], totals["calls"]
    gap = sum(self_s.values()) + totals["outside_s"] - totals["wall_s"]
    if abs(gap) > 1e-6 + 1e-9 * len(tracer.names):
        errors.append(f"trace: self times + outside miss the wall by {gap:.3e} s")
    imports = calls.get("cli.import", 0)
    wall = totals["wall_s"] / passes
    values = {
        "cli.import_s": self_s.get("cli.import", 0.0) / imports if imports else 0.0,
        "trace.wall_s": wall,
        "trace.outside_s": totals["outside_s"] / passes,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_pct": 100.0 * (wall / untraced - 1.0),
    }
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        if kind == "s":
            values[name] = self_s.get(span, 0.0) / passes
        elif kind == "calls":
            values[name] = calls.get(span, 0) / passes
        else:
            values[name] = counts.get(name, 0) / passes
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in PER_LAYER
    }
    return metrics, errors, wl.attempted, wl.failed, wl.notes()


def report(metrics, errors, attempted, failed, notes) -> int:
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}")
    for note in notes:
        print(f"note: {note}")
    for message in errors:
        print(f"CHECK FAILED: {message}")
    if not errors:
        print("checks: all passed")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if errors else 0


def smoke(args) -> int:
    """Run every workload small, untraced and traced, and confirm that each
    run passes its checks and prints every metric."""
    from workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", "0", "--trace", str(trace), "--small"]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{name} trace={trace}: no result line")
                continue
            spec = PER_LAYER if trace else END_TO_END
            names = {n for n, _, _ in spec}
            values = {k: v["value"] for k, v in result["metrics"].items()}
            bad = [
                k for k, v in values.items()
                if not math.isfinite(v) or (not trace and v <= 0)
            ]
            ok = (proc.returncode == 0 and result["correct"]
                  and set(values) == names and not bad
                  and result["failed"] == 0 and result["attempted"] > 0)
            print(f"{name} trace={trace}: {'ok' if ok else 'FAILED'} "
                  f"({len(values)} metrics, {result['attempted']} operations)")
            if not ok:
                problems.append(f"{name} trace={trace}")
                print("\n".join(lines[-30:-1]))
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "grqi", "__init__.py")):
        print(f"no grqi source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.smoke:
        return smoke(args)

    from tracing import clock
    from workloads import PROVIDERS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(
        ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}"
    )
    os.makedirs(workdir)
    try:
        def factory():
            size = "small" if args.small else "full"
            return cls(args.seed, size, os.path.join(workdir, "main"))

        os.makedirs(os.path.join(workdir, "main"))
        if args.setup_only:
            factory()
            print(repr(clock()))
            return 0
        if args.trace:
            result = run_traced(args, factory, clock)
        else:
            result = run_untraced(args, cls, factory, PROVIDERS, clock, workdir)
        return report(*result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
