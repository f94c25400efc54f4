"""The four benchmark workloads.

Each workload builds its inputs in its constructor (the set-up that
``setup_s`` times), runs one round of identical operations per
:meth:`Workload.round`, reports the median of its per-round samples, and
checks the program's outputs afterwards.  Besides its full size, every
workload has a small size, which the smoke mode runs, and the workloads
that own metrics another workload lacks have a side size, which that
workload runs briefly to report them (see ``run.py``).

All calls into grqi go through module attributes (``ex.run_table1``, not
a name imported once), so that span wrappers installed later by
``tracing.install`` see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import scipy.io
import scipy.linalg as sla

from grqi import cli as gcli
from grqi import experiments as ex
from grqi import iterations as it
from grqi import kernels as kn
from grqi import structured as st
from grqi import testgen as tg
from grqi import mmio

import checks
import problems
from tracing import clock

HERE = os.path.dirname(os.path.abspath(__file__))


def remove_files(*paths: str) -> None:
    """Delete earlier outputs before a timed write: on ext4, rewriting a
    file through truncation forces its data to disk at close, a wait whose
    length depends on the host's disk rather than on the program."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def derive(seed: int, tag: str) -> int:
    """A 63-bit integer drawn from the benchmark seed and a tag."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Workload:
    """One workload: set-up in the constructor, then rounds."""

    name = ""
    metrics: tuple[str, ...] = ()
    # Parameters per size: "full" for the workload itself, "small" for the
    # smoke mode, "side" when it reports metrics for another workload.
    # "rounds" is the least number of rounds a run makes, so that the
    # checks always see the same operations.
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = size
        self.cfg = self.SIZES[size]
        self.workdir = workdir
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {m: [] for m in self.metrics}
        self.peak_rss_mb = 0.0
        self.pass_rounds = 1  # rounds in one traced pass
        self.ticks_per_round = 1  # timed operations per round

    @property
    def min_rounds(self) -> int:
        return self.cfg["rounds"]

    def round(self, tracer=None, tick=None) -> None:
        """Run one round; ``tick``, when given, is called between the
        round's timed operations."""
        raise NotImplementedError

    def values(self) -> dict[str, float]:
        return {m: statistics.median(v) for m, v in self.samples.items()}

    def check(self) -> list[str]:
        raise NotImplementedError

    def notes(self) -> list[str]:
        """Outcomes worth printing that are neither metrics nor checks."""
        return []


class _Study(Workload):
    """A paper study run in blocks of trials, each block written out the
    way ``grqi experiment ... --out --trace`` writes it.  Rounds cycle
    through a fixed list of blocks; a run completes every block at least
    once, so the checks cover the same trials on every run.

    A trial that ends with status ``failure`` is an outcome of the method
    that the study itself records, like a trial that misses 1e-12; it
    happens on rare seeds only (one trial in about 35 000), so it is
    reported as a note and judged by the study's checks rather than
    counted as a failed operation."""

    metrics = ("trials_per_s",)
    runner = ""

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        base = derive(seed, self.name)
        # Trial keys are seed XOR trial; the high bits keep blocks apart.
        self.block_seeds = [base ^ (b << 32) for b in range(self.cfg["rounds"])]
        self.pass_rounds = len(self.block_seeds)
        self.results: dict[int, tuple] = {}
        warm = self.config(0, trials=2)
        getattr(ex, self.runner)(warm)

    def config(self, block: int, trials: int | None = None):
        raise NotImplementedError

    def paths(self, block: int) -> tuple[str, str]:
        stem = os.path.join(self.workdir, f"{self.name}-{block}")
        return stem + ".json", stem + ".csv"

    def round(self, tracer=None, tick=None) -> None:
        block = self.rounds % len(self.block_seeds)
        cfg = self.config(block)
        out, trace_path = self.paths(block)
        remove_files(out, trace_path)
        t0 = clock()
        summary, traces = getattr(ex, self.runner)(cfg)
        ex.format_table(summary)
        ex.write_summary(out, summary)
        ex.write_traces(trace_path, traces)
        dt = clock() - t0
        self.samples["trials_per_s"].append(cfg.trials / dt)
        self.results[block] = (summary, traces)
        self.rounds += 1
        self.attempted += cfg.trials
        if tick:
            tick()

    def all_traces(self):
        return [t for b in sorted(self.results) for t in self.results[b][1]]

    def notes(self) -> list[str]:
        lost = sum(t.status == it.FAILURE for t in self.all_traces())
        return [f"{self.name}: {lost} trial(s) ended with status failure"] if lost else []

    def sample_trials(self, tag: str, keep) -> list[int]:
        """Trials of block 0, picked by seed among those ``keep`` accepts."""
        traces = self.results[0][1]
        pool = [i for i, t in enumerate(traces) if keep(t)]
        pick = np.random.default_rng(derive(self.seed, tag))
        return sorted(int(i) for i in pick.choice(pool, self.cfg["sample"], replace=False))

    def check(self) -> list[str]:
        errors = []
        for block, (_, traces) in sorted(self.results.items()):
            back = ex.read_traces(self.paths(block)[1])
            same = len(back) == len(traces) and all(
                r.status == t.status
                and len(r.records) == len(t.records)
                and all(
                    checks.same_float(a.err_sum, b.err_sum)
                    and checks.same_float(a.right_err, b.right_err)
                    and checks.same_float(a.left_err, b.left_err)
                    for a, b in zip(r.records, t.records)
                )
                for r, t in zip(back, traces)
            )
            errors += checks.expect(
                same, f"{self.name}: block {block} CSV read back differs"
            )
        errors += self.check_determinism()
        return errors + self.check_study()

    def check_determinism(self) -> list[str]:
        """Re-running the first few trials of block 0 twice gives
        byte-identical summaries, and their CSV rows are the block's own
        first rows, byte for byte."""
        few = min(5, self.cfg["trials"])
        runs = []
        for k in range(2):
            cfg = self.config(0, trials=few)
            summary, traces = getattr(ex, self.runner)(cfg)
            path = os.path.join(self.workdir, f"rerun-{k}.csv")
            ex.write_traces(path, traces)
            with open(path, "rb") as fh:
                runs.append((ex.summary_json(summary).encode(), fh.read()))
        with open(self.paths(0)[1], "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        prefix = lines[0] + b"".join(
            line for line in lines[1:] if int(line.split(b",")[0]) < few
        )
        return checks.expect(
            runs[0] == runs[1] and runs[0][1] == prefix,
            f"{self.name}: rerun of the first {few} trials is not "
            f"byte-identical",
        )

    def check_study(self) -> list[str]:
        raise NotImplementedError


class Table1(_Study):
    """Error-profile study: n = 20, p = 5, start 0.1, five two-sided
    steps per trial."""

    name = "table1"
    runner = "run_table1"
    SIZES = {
        "full": {"trials": 100, "rounds": 10, "sample": 3},
        "small": {"trials": 20, "rounds": 3, "sample": 1},
        "side": {"trials": 50, "rounds": 5, "sample": 1},
    }

    def config(self, block, trials=None):
        return ex.ExperimentConfig(
            experiment="table1", n=20, p=5,
            trials=trials or self.cfg["trials"], seed=self.block_seeds[block],
            start_distance=0.1, max_iters=5, workers=1,
        )

    def check_study(self) -> list[str]:
        traces = self.all_traces()
        logs = [[np.log10(max(r.err_sum, 1e-300)) for r in t.records]
                for t in traces]
        mean = [np.mean([row[k] for row in logs if len(row) > k])
                for k in range(6)]
        hits = float(np.mean([len(row) > 3 and row[3] <= -13.0 for row in logs]))
        errors = checks.expect(
            mean[1] <= -4 and mean[2] <= -12 and max(mean[3:6]) <= -14,
            f"table1: mean log10 e per iterate {np.round(mean, 2).tolist()} "
            f"misses -4/-12/-14",
        )
        errors += checks.expect(
            hits >= 0.99, f"table1: only {hits:.4f} of trials <= 1e-13 at 3"
        )
        return errors + self.check_recomputed()

    def check_recomputed(self) -> list[str]:
        """Recompute sampled trials (among those that did not fail) through
        the public step and measure every iterate against eigenvectors from
        scipy.linalg.eig."""
        errors = []
        cfg = self.config(0)
        traces = self.results[0][1]
        for trial in self.sample_trials(
            "t1-sample", lambda t: t.status != it.FAILURE
        ):
            rng = tg.trial_rng(cfg.seed, trial)
            prob = tg.random_diagonalizable(cfg.n, cfg.p, rng)
            pair = it.SubspacePair(
                left=tg.nearby_subspace(prob.oracle_left, 0.1, rng),
                right=tg.nearby_subspace(prob.oracle_right, 0.1, rng),
            )
            w, vl, vr = sla.eig(prob.matrix, left=True, right=True)
            pick_idx = [int(np.argmin(abs(w - lam))) for lam in prob.spectrum]
            for k, rec in enumerate(traces[trial].records):
                if k:
                    pair, _ = it.tsgrqi_step(prob.matrix, pair)
                e = checks.max_angle(pair.left.basis, vl[:, pick_idx]) + \
                    checks.max_angle(pair.right.basis, vr[:, pick_idx])
                if abs(e - rec.err_sum) > 1e-12 + 1e-8 * rec.err_sum:
                    errors.append(
                        f"table1: trial {trial} iterate {k}: scipy angle "
                        f"{e:.6e} vs recorded {rec.err_sum:.6e}"
                    )
        return errors


class Hamiltonian(_Study):
    """Hamiltonian success study: n = 20, start 0.1, ten one-sided steps
    toward the full mirror group of largest real part (p = 2 or 4)."""

    name = "hamiltonian"
    runner = "run_hamiltonian"
    SIZES = {
        "full": {"trials": 100, "rounds": 10, "sample": 3},
        "small": {"trials": 10, "rounds": 3, "sample": 1},
    }
    START = 0.1
    THRESHOLD = 0.995  # the paper's success rate at start distance 0.1

    def config(self, block, trials=None):
        return ex.ExperimentConfig(
            experiment="hamiltonian", n=20, p=2,
            trials=trials or self.cfg["trials"], seed=self.block_seeds[block],
            start_distance=self.START, max_iters=10, workers=1,
        )

    @staticmethod
    def success(trace) -> bool:
        """The paper's rule: summed error below 1e-12 at iterate 10."""
        return trace.iterates > 10 and trace.records[10].err_sum < 1e-12

    def check_study(self) -> list[str]:
        traces = self.all_traces()
        wins = sum(self.success(t) for t in traces)
        rate = wins / len(traces)
        errors = checks.expect(
            rate >= self.THRESHOLD,
            f"hamiltonian: success rate {rate:.4f} < {self.THRESHOLD}",
        )
        return errors + self.check_recomputed()

    def check_recomputed(self) -> list[str]:
        """Recompute sampled successful trials; the final right subspace
        must be invariant and its quotient's eigenvalues must pair as
        lambda, -conj(lambda)."""
        errors = []
        cfg = self.config(0)
        for trial in self.sample_trials("ham-sample", self.success):
            rng = tg.trial_rng(cfg.seed, trial)
            c = tg.random_hamiltonian(cfg.n, rng)
            target = st.full_eigenspace_targets(
                c, st.j_matrix(cfg.n), conjugate_closed=True
            )[0]
            y = tg.nearby_subspace(target.right, cfg.start_distance, rng)
            for _ in range(10):
                y, _ = st.hamiltonian_step(c, y, full_output=True)
            basis = y.basis
            lam = sla.eigvals(basis.conj().T @ c @ basis)
            mirror = np.abs(lam[:, None] + lam.conj()[None, :]).min(axis=1)
            scale = np.linalg.norm(c, 2)
            errors += checks.expect(
                mirror.max() <= 1e-8 * scale,
                f"hamiltonian: trial {trial} quotient eigenvalues {lam} "
                f"are not mirror pairs",
            )
            defect = checks.invariance_defect(c, basis)
            errors += checks.expect(
                defect <= 1e-10,
                f"hamiltonian: trial {trial} invariance defect {defect:.3e}",
            )
        return errors


def run_process(argv: list[str], log_path: str, env: dict):
    """Run a command to exit; returns (wall seconds, exit code, peak RSS
    in MiB) with the wall time taken from launch to exit."""
    with open(log_path, "wb") as log:
        t0 = clock()
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=env
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Cli(Workload):
    """``grqi gen`` then ``grqi refine`` with both oracle files, as two
    processes per round.  The start distance is 0.01, at which every seed
    converges in three steps.

    At the side size the two commands run in this process instead, so
    their time is the command bodies at n = 20 without interpreter start;
    a round then alternates them ``repeats`` times and records their means.
    """

    name = "cli_n1000"
    metrics = ("gen_s", "refine_s")
    SIZES = {
        "full": {"n": 1000, "rounds": 2, "repeats": 1, "processes": True},
        "small": {"n": 20, "rounds": 2, "repeats": 1, "processes": True},
        "side": {"n": 20, "rounds": 10, "repeats": 12, "processes": False},
    }
    START = 0.01

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.out = os.path.join(workdir, "problem")
        self.gen_seed = derive(seed, "cli")
        self.exits: list[int] = []
        self.ticks_per_round = 2 * self.cfg["repeats"]

    def argv(self, command: str) -> list[str]:
        f = lambda name: os.path.join(self.out, name)  # noqa: E731
        if command == "gen":
            return [
                "gen", "--kind", "diagonalizable", "--n", str(self.cfg["n"]),
                "--p", "5", "--seed", str(self.gen_seed),
                "--start-distance", str(self.START), "--out", self.out,
            ]
        return [
            "refine", "--matrix", f("matrix.mtx"),
            "--right", f("start_right.mtx"), "--left", f("start_left.mtx"),
            "--oracle-right", f("oracle_right.mtx"),
            "--oracle-left", f("oracle_left.mtx"), "--out", f("trace.csv"),
        ]

    def run_command(self, command: str, tracer) -> tuple[float, int]:
        if not self.cfg["processes"]:
            t0 = clock()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    gcli.cli.main(self.argv(command), standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            return clock() - t0, code
        env = dict(os.environ)
        spans = os.path.join(self.workdir, f"spans-{command}.json")
        if tracer is not None:
            env["PERFBENCH_SPANS"] = spans
            env["PERFBENCH_LAUNCHED"] = repr(clock())
        wall, code, rss = run_process(
            [sys.executable, os.path.join(HERE, "launch.py")]
            + self.argv(command),
            os.path.join(self.workdir, f"{command}.log"), env,
        )
        if tracer is not None:
            with open(spans) as fh:
                tracer.merge(json.load(fh))
        if command == "gen":
            # Untimed: put the new 21 MB problem on disk now, so that the
            # kernel's write-back does not overlap the timings that follow.
            for name in os.listdir(self.out):
                fd = os.open(os.path.join(self.out, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return wall, code

    def round(self, tracer=None, tick=None) -> None:
        repeats = self.cfg["repeats"]
        spent = {"gen": 0.0, "refine": 0.0}
        for _ in range(repeats):
            shutil.rmtree(self.out, ignore_errors=True)
            for command in spent:
                wall, code = self.run_command(command, tracer)
                spent[command] += wall
                self.exits.append(code)
                self.attempted += 1
                self.failed += code != 0
                if tick:
                    tick()
        for command, total in spent.items():
            self.samples[f"{command}_s"].append(total / repeats)
        self.rounds += 1

    def check(self) -> list[str]:
        bad = [c for c in self.exits if c != 0]
        errors = checks.expect(not bad, f"cli: exit codes {self.exits}")
        if bad:
            return errors
        path = os.path.join(self.out, "matrix.mtx")
        c = np.asarray(scipy.io.mmread(path))
        errors += checks.expect(
            np.array_equal(c, mmio.read_matrix(path)),
            "cli: scipy.io.mmread and grqi.read_matrix disagree",
        )
        read = lambda name: np.asarray(  # noqa: E731
            scipy.io.mmread(os.path.join(self.out, name))
        )
        right, left = read("oracle_right.mtx"), read("oracle_left.mtx")
        d_right = checks.invariance_defect(c, right)
        d_left = checks.invariance_defect(c.conj().T, left)
        quotient = np.linalg.solve(left.conj().T @ right, left.conj().T @ c @ right)
        mismatch = checks.spectrum_mismatch(
            sla.eigvals(quotient), sla.eigvals(right.conj().T @ c @ right)
        )
        errors += checks.expect(
            max(d_right, d_left) <= 1e-10 and mismatch <= 1e-9,
            f"cli: oracle pair defects right {d_right:.3e} left "
            f"{d_left:.3e}, spectrum mismatch {mismatch:.3e}",
        )
        with open(os.path.join(self.out, "trace.csv"), newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        errors += checks.expect(
            float(last["e"]) < 1e-12
            and float(last["residual_angle"]) < 1e-12
            and last["status"] == "converged",
            f"cli: last trace row {last}",
        )
        return errors


def pencil_residual(a: np.ndarray, b: np.ndarray, y: kn.Subspace) -> float:
    """Angle by which span(A Y) leaves span(B Y)."""
    ay = a @ y.basis
    q = np.linalg.qr(b @ y.basis)[0]
    leak = ay - q @ (q.conj().T @ ay)
    return float(np.arcsin(min(1.0, np.linalg.norm(leak, 2) / np.linalg.norm(ay, 2))))


class _Refinement:
    """One variant: its problem, start state, step, residual and oracle.
    The last state a step returned is kept for the checks."""

    def __init__(self, var: problems.Variant, cfg):
        self.var = var
        self.final = None
        S = kn.Subspace
        m = var.matrices
        if var.kind in ("two_sided", "pencil"):
            pair = st.PencilPair if var.kind == "pencil" else it.SubspacePair
            key = "hatted_left" if var.kind == "pencil" else "left"
            self.start = pair(**{key: S(var.start_left), "right": S(var.start_right)})
            self.oracle = pair(**{key: S(var.left), "right": S(var.right)})
        else:
            self.start = S(var.start_right)
            self.oracle = S(var.right)
        if var.kind == "two_sided":
            c, ct = m
            self.step = lambda s: it.tsgrqi_step(c, s, cfg)
            self.residual = lambda s: max(
                kn.residual_angle(c, s.right), kn.residual_angle(ct, s.left)
            )
        elif var.kind == "pencil":
            a, b = m
            at, bt = a.T.copy(), b.T.copy()
            self.step = lambda s: st.pencil_tsgrqi_step(a, b, s, cfg=cfg)
            self.residual = lambda s: max(
                pencil_residual(a, b, s.right), pencil_residual(at, bt, s.left)
            )
        elif var.kind == "generalized":
            a, b = m
            self.step = lambda y: st.generalized_hermitian_step(
                a, b, y, cfg, full_output=True
            )
            self.residual = lambda y: pencil_residual(a, b, y)
        elif var.kind == "hermitian":
            (a,) = m
            self.step = lambda y: it.grqi_step(a, y, cfg, full_output=True)
            self.residual = lambda y: kn.residual_angle(a, y)
        else:
            (c,) = m
            self.step = lambda y: st.hamiltonian_step(c, y, cfg, full_output=True)
            self.residual = lambda y: kn.residual_angle(c, y)

    def run(self, cfg):
        def step(state):
            out = self.step(state)
            self.final = out[0]
            return out

        return it.iterate(
            step, self.start, cfg, residual=self.residual, oracle=self.oracle
        )

    def check(self) -> list[str]:
        var, fin = self.var, self.final
        name = f"variants: {var.name}"
        if fin is None:
            return [f"{name}: no step ran"]
        right = fin.right.basis if var.left is not None else fin.basis
        m = var.matrices
        if var.kind in ("pencil", "generalized"):
            a, b = m
            defect = checks.pencil_defect(a, b, right)
        else:
            defect = checks.invariance_defect(m[0], right)
        if var.kind == "two_sided":
            left = fin.left.basis
            defect = max(defect, checks.invariance_defect(m[1], left))
            ritz = sla.eigvals(
                np.linalg.solve(left.conj().T @ right, left.conj().T @ m[0] @ right)
            )
        elif var.kind == "pencil":
            left = fin.hatted_left.basis
            defect = max(defect, checks.pencil_defect(a.T, b.T, left))
            ritz = sla.eig(
                left.conj().T @ a @ right, left.conj().T @ b @ right,
                right=False,
            )
        elif var.kind == "generalized":
            ritz = sla.eigh(right.T @ a @ right, right.T @ b @ right,
                            eigvals_only=True)
        elif var.kind == "hermitian":
            ritz = sla.eigh(right.conj().T @ m[0] @ right, eigvals_only=True)
        else:
            ritz = sla.eigvals(right.conj().T @ m[0] @ right)
        mismatch = checks.spectrum_mismatch(ritz, var.eigenvalues)
        angle = checks.max_angle(right, var.right)
        errors = checks.expect(
            defect <= 1e-10, f"{name}: defining-equation defect {defect:.3e}"
        )
        errors += checks.expect(
            mismatch <= 1e-9, f"{name}: shifts off target by {mismatch:.3e}"
        )
        errors += checks.expect(
            angle <= 1e-10, f"{name}: angle to target {angle:.3e}"
        )
        return errors


VARIANTS = ("pencil", "generalized", "hermitian", "hamiltonian", "two_sided_p20")


class Variants(Workload):
    """Library refinements to convergence at angle tolerance 1e-12 of the
    pencil, generalized Hermitian, Hermitian block, one-sided Hamiltonian
    and two-sided (p = 20) steps, from a start at angle 1e-5 (a
    single-precision estimate), which every seed refines in two steps.

    A round runs each refinement its number of ``repeats`` times,
    interleaved, and each variant's sample is its mean over the round.
    Interleaving spreads every variant's repeats over the whole round, so
    a short slow spell of the machine does not fall on one variant alone;
    the short variants repeat most."""

    name = "variants_n1000"
    metrics = tuple(f"refine_s.{v}" for v in VARIANTS)
    SIZES = {
        "full": {"n": 1000, "rounds": 1, "repeats": dict(zip(
            VARIANTS, (1, 3, 3, 3, 1)))},
        "small": {"n": 40, "rounds": 1, "repeats": dict.fromkeys(VARIANTS, 3)},
        "side": {"n": 40, "rounds": 6, "repeats": dict.fromkeys(VARIANTS, 15)},
    }
    ANGLE = 1e-5

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.step_cfg = it.StepConfig(max_iters=10, angle_tol=1e-12)
        self.refinements = self.build(self.cfg["n"], derive(seed, "variants"))
        self.ticks_per_round = sum(self.cfg["repeats"].values())
        if size == "full":
            for warm in self.build(40, derive(seed, "warm")):
                warm.run(self.step_cfg)

    def build(self, n: int, seed: int) -> list[_Refinement]:
        rng = np.random.default_rng(seed)
        a = self.ANGLE
        built = [
            problems.pencil(rng, n, 5, a),
            problems.generalized(rng, n, 5, a),
            problems.hermitian(rng, n, 5, a),
            problems.hamiltonian(rng, n, a),
            problems.two_sided(rng, n, 20, a),
        ]
        return [_Refinement(v, self.step_cfg) for v in built]

    def round(self, tracer=None, tick=None) -> None:
        repeats = self.cfg["repeats"]
        spent = dict.fromkeys(repeats, 0.0)
        for k in range(max(repeats.values())):
            for ref in self.refinements:
                name = ref.var.name
                if k >= repeats[name]:
                    continue
                t0 = clock()
                trace = ref.run(self.step_cfg)
                spent[name] += clock() - t0
                self.attempted += 1
                self.failed += trace.status != it.CONVERGED
                if tick:
                    tick()
        for name, total in spent.items():
            self.samples[f"refine_s.{name}"].append(total / repeats[name])
        self.rounds += 1

    def check(self) -> list[str]:
        errors = []
        for ref in self.refinements:
            errors += ref.check()
        return errors


WORKLOADS = {w.name: w for w in (Table1, Hamiltonian, Cli, Variants)}
# The workloads whose side runs supply the metrics another one lacks.
PROVIDERS = (Table1, Cli, Variants)
