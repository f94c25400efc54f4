"""Output checks computed with numpy/scipy, apart from the program.

Each helper returns a list of failure messages (empty when the check
holds) so a workload can report every failed check, not just the first.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla


def max_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle between the column spans of u and v."""
    return float(sla.subspace_angles(u, v).max())


def invariance_defect(c: np.ndarray, y: np.ndarray) -> float:
    """||C Y - Y (Y^+ C Y)||_F / ||C||_F for a basis Y: zero exactly when
    span(Y) is invariant under C."""
    cy = c @ y
    m = np.linalg.lstsq(y, cy, rcond=None)[0]
    return float(np.linalg.norm(cy - y @ m) / np.linalg.norm(c))


def pencil_defect(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> float:
    """||A Y - B Y M||_F / ||A||_F with M the least-squares fit: zero
    exactly when A Y = B Y M for some M."""
    ay, by = a @ y, b @ y
    m = np.linalg.lstsq(by, ay, rcond=None)[0]
    return float(np.linalg.norm(ay - by @ m) / np.linalg.norm(a))


def spectrum_mismatch(got, want) -> float:
    """Largest relative gap between two equal-size spectra, each value
    matched to its nearest counterpart in the other set."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    gap = np.abs(got[:, None] - want[None, :])
    worst = max(gap.min(axis=0).max(), gap.min(axis=1).max())
    return float(worst / np.abs(want).max())


def expect(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))
