#!/usr/bin/env python3
"""Probability-of-probability histogram of the joint distribution, pooled
over an ensemble, with the Porter-Thomas reference curve and KS distance."""

import argparse
import json

import numpy as np

from hrcslab import HrcsConfig, enumerate_joint_distribution, instantiate_circuit, pop_histogram
from hrcslab.estimators import ks_distance_to_porter_thomas


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-system", type=int, default=3)
    ap.add_argument("--n-bath", type=int, default=2)
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--out", default="pop_hist.json")
    args = ap.parse_args()

    cfg = HrcsConfig(
        n_system=args.n_system, n_bath=args.n_bath, steps=args.steps, master_seed=args.seed
    )
    pooled = np.concatenate([
        enumerate_joint_distribution(cfg, instantiate_circuit(cfg, b))
        for b in range(args.instances)
    ])
    hist = pop_histogram(pooled, cfg.n_eff)
    ks = ks_distance_to_porter_thomas(pooled, cfg.n_eff)

    doc = json.loads(hist.to_json())
    doc["porter_thomas_reference"] = hist.reference_curve().tolist()
    doc["ks_distance"] = ks
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    print(f"n_eff={cfg.n_eff}, pooled {pooled.size} outcome probabilities, "
          f"KS to Porter-Thomas {ks:.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
