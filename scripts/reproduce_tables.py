"""Run both desk-scale studies and write their JSON summaries."""
import argparse
import pathlib

from grqi import (
    ExperimentConfig,
    format_table,
    run_hamiltonian,
    run_table1,
    write_summary,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--hamiltonian-trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cfg = ExperimentConfig(
        n=20,
        p=5,
        trials=args.trials,
        seed=args.seed,
        start_distance=0.1,
        max_iters=5,
        workers=args.workers,
    )
    summary, _ = run_table1(cfg)
    print(f"error profile ({args.trials} trials, wall {summary.wall_time:.1f}s)")
    print(format_table(summary))
    write_summary(out / "table1.json", summary)

    for start in (0.1, 0.001):
        hcfg = ExperimentConfig(
            experiment="hamiltonian",
            n=20,
            trials=args.hamiltonian_trials,
            seed=args.seed,
            start_distance=start,
            workers=args.workers,
        )
        hsum, _ = run_hamiltonian(hcfg)
        print(
            f"hamiltonian start={start}: success rate "
            f"{hsum.success_rate:.4f} over {hsum.trials} trials, "
            f"block sizes {hsum.p_counts} (wall {hsum.wall_time:.1f}s)"
        )
        write_summary(out / f"hamiltonian_{start}.json", hsum)


if __name__ == "__main__":
    main()
