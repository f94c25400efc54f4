"""Span tracing of the grqi layers, installed from outside the package.

:func:`install` wraps each traced public function in every grqi module that
binds it (``grqi.iterations.orthonormalize`` and
``grqi.experiments.orthonormalize`` are two bindings of one function and
both are wrapped), plus ``Subspace.__post_init__`` and the bodies of the
``gen`` and ``refine`` commands.  Each call records a span (name, start,
end, parent) in memory; :meth:`Tracer.layer_totals` turns the spans into
self times, where a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

# (defining module, attribute) of every traced function; the span name is
# "<module>.<attribute>".
TRACED = (
    ("kernels", "orthonormalize"),
    ("kernels", "shifted_solve"),
    ("kernels", "small_eig"),
    ("kernels", "largest_principal_angle"),
    ("kernels", "residual_angle"),
    ("kernels", "solve_eps"),
    ("iterations", "tsgrqi_step"),
    ("iterations", "grqi_step"),
    ("iterations", "iterate"),
    ("structured", "one_sided_step"),
    ("structured", "generalized_hermitian_step"),
    ("structured", "pencil_tsgrqi_step"),
    ("structured", "full_eigenspace_targets"),
    ("structured", "apply_j"),
    ("testgen", "random_diagonalizable"),
    ("testgen", "random_hamiltonian"),
    ("testgen", "nearby_subspace"),
    ("testgen", "trial_rng"),
    ("experiments", "run_table1"),
    ("experiments", "run_hamiltonian"),
    ("experiments", "summarize"),
    ("experiments", "write_traces"),
    ("mmio", "write_matrix"),
    ("mmio", "read_matrix"),
)
MODULES = (
    "kernels", "iterations", "structured", "testgen", "experiments",
    "mmio", "cli",
)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(float("nan"))
        self.stack.append(i)
        self.starts.append(clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = clock()
        self.stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured elsewhere."""
        self.names.append(name)
        self.parents.append(-1)
        self.starts.append(start)
        self.ends.append(end)

    def merge(self, other: dict) -> None:
        """Append the spans and counts of a dumped tracer (another process)."""
        base = len(self.names)
        self.names += other["names"]
        self.starts += other["starts"]
        self.ends += other["ends"]
        self.parents += [p + base if p >= 0 else -1 for p in other["parents"]]
        self.counts.update(other["counts"])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                    "counts": dict(self.counts),
                },
                fh,
            )

    def layer_totals(self, t0: float, t1: float) -> dict:
        """Self seconds and calls per span name within [t0, t1], the time
        of that window outside any span, and the wall time of the window.

        Self time comes from span durations minus child durations; the
        outside time comes separately from the gaps between top-level
        spans, so their sum matching the wall time is a real check that
        every span closed and none overlapped.
        """
        self_s: Counter = Counter()
        calls: Counter = Counter()
        top = []
        for i, name in enumerate(self.names):
            start, end = self.starts[i], self.ends[i]
            if not (t0 <= start and end <= t1):
                continue
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            parent = self.parents[i]
            if parent >= 0:
                self_s[self.names[parent]] -= dur
            else:
                top.append((start, end))
        top.sort()
        outside, cursor = 0.0, t0
        for start, end in top:
            outside += max(0.0, start - cursor)
            cursor = max(cursor, end)
        outside += t1 - cursor
        return {"self_s": self_s, "calls": calls, "outside_s": outside,
                "wall_s": t1 - t0}


def _path_bytes(path) -> int:
    return os.path.getsize(os.fspath(path))


def _after_hooks(tracer: Tracer) -> dict:
    """Counters read from arguments or results after a call returns."""

    def solve(args, kwargs, out):
        tracer.counts["kernels.shifted_solve.perturbed"] += int(bool(out[1]))

    def steps(args, kwargs, out):
        tracer.counts["iterations.steps"] += out.iterates - 1

    def wrote(name):
        def hook(args, kwargs, out):
            tracer.counts[name] += _path_bytes(args[0])
        return hook

    return {
        "kernels.shifted_solve": solve,
        "iterations.iterate": steps,
        "experiments.write_traces": wrote("experiments.write_traces.bytes"),
        "mmio.write_matrix": wrote("mmio.write_matrix.bytes"),
        "mmio.read_matrix": wrote("mmio.read_matrix.bytes"),
    }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(args, kwargs, out)
        return out

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every grqi module that binds it."""
    grqi = importlib.import_module("grqi")
    mods = [grqi] + [importlib.import_module(f"grqi.{m}") for m in MODULES]
    hooks = _after_hooks(tracer)
    for home, attr in TRACED:
        name = f"{home}.{attr}"
        orig = getattr(importlib.import_module(f"grqi.{home}"), attr)
        wrapped = _wrap(tracer, name, orig, hooks.get(name))
        for mod in mods:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)
    kernels = importlib.import_module("grqi.kernels")
    kernels.Subspace.__post_init__ = _wrap(
        tracer, "kernels.Subspace", kernels.Subspace.__post_init__
    )
    cli = importlib.import_module("grqi.cli")
    for command in (cli.gen, cli.refine):
        command.callback = _wrap(
            tracer, f"cli.{command.name}", command.callback
        )
