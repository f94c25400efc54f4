"""Run a fixed battery of grqi commands and print a digest of its outputs.

    python scripts/output_digest.py OUT_DIR

The battery runs through ``grqi.cli`` in-process with one BLAS thread:
``gen`` of every kind at three (seed, trial) streams with p = 5, and of
the ``diagonalizable`` and ``e-hermitian`` kinds at one stream with
p = 1, whose steps take 1x1 quotients; ``refine`` of each instance by
``tsgrqi``, ``newton``, ``grqi`` and its kind's one-sided structure;
for the e-hermitian instances (C, E), ``pencil`` on (C, E),
``one-sided --structure generalized`` on the Hermitian pencil
((E C + (E C)^H)/2, E), whose A goes to a temporary directory, and
``grqi`` on the Hermitian E; ``pencil`` on a 12x12 pencil with singular
B, which takes the rotated normalization; both studies at seed 11 with
300 trials, the 66-trial Hamiltonian run at seed 5023667284082138044,
and the seed-11 Hamiltonian run again from start distance 0.001.
Outputs go under OUT_DIR (new or empty), with ``runs.txt`` holding each
command's exit code and output other than paths and wall times. One
line ``<file> <sha256>`` is printed per file, and one line
``<file>:<column> <sha256>`` per column of a trace CSV, so a ``diff`` of
two trees' digests names the files and columns that moved.

To compare two source trees, run the same copy of this script on each
and diff the digests:

    PYTHONPATH=TREE_A/src python scripts/output_digest.py OUT_A > a.txt
    PYTHONPATH=TREE_B/src python scripts/output_digest.py OUT_B > b.txt
    diff a.txt b.txt

``--golden DIR`` also writes the digest to ``DIR/output_digest.txt`` and
:func:`platform` to ``DIR/platform.txt``; ``tests/golden`` holds the
digest that ``tests/test_scripts.py`` compares on a matching platform:

    PYTHONPATH=src python scripts/output_digest.py --golden tests/golden OUT
"""
import os

if __name__ == "__main__":  # before numpy loads its BLAS
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import pathlib  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from grqi import (  # noqa: E402
    orthonormalize, read_matrix, subspace_at_angle, write_matrix)
from grqi.cli import cli  # noqa: E402

KINDS = ("diagonalizable", "hamiltonian", "e-hermitian", "e-skew-hermitian")
# (kind, seed, trial, p); the other kinds ignore p.
INSTANCES = (
    *((kind, seed, trial, 5)
      for kind in KINDS for seed, trial in ((0, 0), (3, 7), (11, 42))),
    ("diagonalizable", 0, 0, 1),
    ("e-hermitian", 0, 0, 1),
)


def singular_b_pencil(d: pathlib.Path) -> list[str]:
    """Write a 12x12 pencil (A, B) with B of rank 11, its deflating pair
    for the eigenvalues 1 and 2 and a start 1e-3 away under ``d``; return
    the ``refine`` arguments naming them."""
    rng = np.random.default_rng(12)
    x, z = (
        np.eye(12) + 0.1 * g / np.linalg.norm(g, 2)
        for g in rng.standard_normal((2, 12, 12))
    )
    z_inv = np.linalg.inv(z)
    right = orthonormalize(z[:, :2])
    left = orthonormalize(np.linalg.inv(x).conj().T[:, :2])
    arrays = {
        "matrix": x @ np.diag(np.arange(1.0, 13.0)) @ z_inv,
        "b-matrix": x @ np.diag([1.0] * 11 + [0.0]) @ z_inv,
        "oracle-right": right.basis, "oracle-left": left.basis,
        "right": subspace_at_angle(right, 1e-3, rng).basis,
        "left": subspace_at_angle(left, 1e-3, rng).basis,
    }
    d.mkdir(parents=True)
    args = []
    for flag, value in arrays.items():
        write_matrix(d / f"{flag}.mtx", value)
        args += [f"--{flag}", str(d / f"{flag}.mtx")]
    return args


def hermitian_pencil(d: pathlib.Path, a_path: pathlib.Path) -> list[str]:
    """Write A = (E C + (E C)^H)/2 of the E-Hermitian instance under ``d``
    to ``a_path``; return the ``refine`` arguments of the pencil (A, E),
    whose deflating subspaces are the eigenspaces of C = E^{-1} (E C)."""
    e = read_matrix(d / "e.mtx")
    a = e @ read_matrix(d / "matrix.mtx")
    write_matrix(a_path, (a + a.conj().T) / 2.0)
    return ["--matrix", str(a_path), "--b-matrix", str(d / "e.mtx")]


def battery(out: pathlib.Path, scratch: pathlib.Path):
    """Yield (label, grqi arguments) for every command of the battery;
    inputs that are not outputs go under ``scratch``."""
    for kind, seed, trial, p in INSTANCES:
        name = f"{kind}_s{seed}_t{trial}" + ("" if p == 5 else f"_p{p}")
        d = out / "gen" / name
        yield f"gen {name}", [
            "gen", "--kind", kind, "--n", "20", "--p", str(p),
            "--seed", str(seed), "--trial", str(trial), "--out", str(d),
        ]
        matrix = ["--matrix", str(d / "matrix.mtx")]
        right = ["--right", str(d / "start_right.mtx"),
                 "--oracle-right", str(d / "oracle_right.mtx")]
        left = ["--left", str(d / "start_left.mtx"),
                "--oracle-left", str(d / "oracle_left.mtx")]
        runs = {
            "tsgrqi": matrix + right + left,
            "newton": matrix + right + ["--method", "newton"],
            "grqi": matrix + right + ["--method", "grqi"],
        }
        if kind != "diagonalizable":
            runs[kind] = matrix + right + [
                "--method", "one-sided", "--structure", kind,
            ] + (["--e-matrix", str(d / "e.mtx")] if kind != "hamiltonian"
                 else [])
        if kind == "e-hermitian":
            b = ["--b-matrix", str(d / "e.mtx")]
            runs["pencil"] = matrix + right + left + b + ["--method", "pencil"]
            runs["generalized"] = hermitian_pencil(
                d, scratch / f"{name}_a.mtx"
            ) + right + ["--method", "one-sided", "--structure", "generalized"]
        for method, args in runs.items():
            yield f"refine {name} {method}", [
                "refine", *args,
                "--out", str(out / "refine" / f"{name}_{method}.csv"),
            ]
        if kind == "e-hermitian":
            # E is Hermitian positive definite, so grqi steps on it;
            # every matrix.mtx is non-Hermitian and refused.
            yield f"refine {name} grqi-e", [
                "refine", "--matrix", str(d / "e.mtx"),
                "--right", str(d / "start_right.mtx"), "--method", "grqi",
                "--out", str(out / "refine" / f"{name}_grqi-e.csv"),
            ]
    yield "refine singular_b pencil", [
        "refine", *singular_b_pencil(out / "gen" / "singular_b"),
        "--method", "pencil",
        "--out", str(out / "refine" / "singular_b_pencil.csv"),
    ]
    studies = (
        ("table1", "11", "300", None),
        ("hamiltonian", "11", "300", None),
        ("hamiltonian", "5023667284082138044", "66", None),
        ("hamiltonian", "11", "300", "0.001"),
    )
    for study, seed, trials, start in studies:
        label = f"experiment {study} seed {seed}"
        name = f"{study}_s{seed}_n{trials}"
        args = ["experiment", study, "--seed", seed, "--trials", trials]
        if start:
            label, name = f"{label} start {start}", f"{name}_d{start}"
            args += ["--start-distance", start]
        stem = out / "study" / name
        yield label, args + ["--out", f"{stem}.json", "--trace", f"{stem}.csv"]


def platform() -> str:
    """The numpy and scipy builds and the SIMD features that numpy found.

    Output bits may differ where any of these does: OpenBLAS picks its
    kernels by CPU, without any fault in the program.
    """
    import scipy

    try:
        from numpy._core._multiarray_umath import (
            __cpu_dispatch__, __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (
            __cpu_dispatch__, __cpu_features__)
    found = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f])

    def build(module) -> str:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{module.__version__} ({blas['name']} {blas['version']})"

    return f"numpy {build(np)}, scipy {build(scipy)}, SIMD found: {found}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(out: pathlib.Path):
    """Yield one digest line per file, or per column of a CSV file."""
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        if path.suffix != ".csv":
            yield f"{name} {sha256(path.read_bytes())}"
            continue
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        for j, column in enumerate(header):
            values = "\n".join(row[j] for row in rows)
            yield f"{name}:{column} {sha256(values.encode())}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=pathlib.Path)
    ap.add_argument("--golden", type=pathlib.Path, metavar="DIR",
                    help="also write the digest and platform under DIR")
    opts = ap.parse_args()
    out = opts.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        ap.error(f"{out} is not empty")
    for sub in ("refine", "study"):
        (out / sub).mkdir()

    runner = CliRunner()
    log = []
    with tempfile.TemporaryDirectory() as scratch:
        for label, args in battery(out, pathlib.Path(scratch)):
            result = runner.invoke(cli, args)
            kept = [line for line in result.output.splitlines()
                    if not line.startswith(("wrote ", "wall time: "))]
            log.append(f"{label}: exit {result.exit_code}")
            log += [f"  {line}" for line in kept]
    (out / "runs.txt").write_text("\n".join(log) + "\n")
    text = "".join(f"{line}\n" for line in digest_lines(out))
    print(text, end="")
    if opts.golden:
        opts.golden.mkdir(parents=True, exist_ok=True)
        (opts.golden / "output_digest.txt").write_text(text)
        (opts.golden / "platform.txt").write_text(platform() + "\n")


if __name__ == "__main__":
    main()
