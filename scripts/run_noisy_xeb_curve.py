#!/usr/bin/env python3
"""Sampled noisy XEB fidelity versus steps, with the exact transfer-matrix
curve and the large-dimension asymptotic for comparison."""

import argparse

from hrcslab import theory
from hrcslab.runner import ExperimentSpec, run_experiment, write_records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-system", type=int, default=2)
    ap.add_argument("--n-bath", type=int, default=2)
    ap.add_argument("--max-steps", type=int, default=5)
    ap.add_argument("--gamma", type=float, default=0.7)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--shots", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="noisy_xeb.jsonl")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    spec = ExperimentSpec(
        kind="noisy_xeb",
        n_system=args.n_system,
        n_bath=args.n_bath,
        steps=tuple(range(1, args.max_steps + 1)),
        gammas=(args.gamma,),
        instances=args.instances,
        shots=args.shots,
        master_seed=args.seed,
    )
    records = run_experiment(spec, workers=args.workers)
    write_records(records, args.out, "jsonl")

    print(f"{'t':>3} {'sampled':>10} {'std err':>9} {'exact':>9} {'asymptotic':>11} {'ideal':>9}")
    for rec in records:
        asym = theory.noisy_xeb_asymptotic(args.n_system, args.n_bath, rec.steps, args.gamma)
        ideal = theory.ideal_xeb(args.n_system, args.n_bath, rec.steps)
        m = rec.measured
        print(f"{rec.steps:>3} {m.mean:>10.4f} {m.std_error:>9.4f} "
              f"{rec.theory_value:>9.4f} {asym:>11.4f} {ideal:>9.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
