#!/usr/bin/env python3
"""Large-sample check that the table1 generator reproduces its target
label distribution: per-cell z-scores and premise-count moments.

Exits 1 when the worst per-cell |z| exceeds 3."""

import argparse

import numpy as np

from argstruct.data import MessageLabel, Role
from argstruct.synth import (
    GeneratorConfig,
    HATEFUL_CONCLUSION_WEIGHTS,
    HATEFUL_PREMISE_WEIGHTS,
    HATEFUL_PREMISES_MEAN_STD,
    NON_HATEFUL_PREMISES_MEAN_STD,
    NON_HATEFUL_CONCLUSION_CW_WEIGHTS,
    NON_HATEFUL_PREMISE_CW_WEIGHTS,
    generate,
)


def z_scores(observed, weights, total):
    weight_total = sum(weights.values())
    rows = []
    for key, weight in weights.items():
        p = weight / weight_total
        se = (p * (1 - p) / total) ** 0.5
        p_hat = observed.get(key, 0) / total
        rows.append((key, p_hat, p, (p_hat - p) / se if se else 0.0))
    return rows


def label(key):
    if isinstance(key, tuple):
        cw, hate = key
        return f"{cw.value}/{hate.value}"
    return key.value


Z_BOUND = 3.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-hate", type=int, default=6250)
    parser.add_argument("--n-nohate", type=int, default=3750)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    d = generate(
        GeneratorConfig(
            mode="table1", n_hateful=args.n_hate, n_nonhateful=args.n_nohate,
            seed=args.seed,
        )
    )
    obs = {
        (MessageLabel.HATEFUL, Role.PREMISE): {},
        (MessageLabel.HATEFUL, Role.CONCLUSION): {},
        (MessageLabel.NON_HATEFUL, Role.PREMISE): {},
        (MessageLabel.NON_HATEFUL, Role.CONCLUSION): {},
    }
    premise_counts = {MessageLabel.HATEFUL: [], MessageLabel.NON_HATEFUL: []}
    for m in d:
        premise_counts[m.label].append(m.premise_count)
        for c in m.components:
            key = (c.cw, c.hate) if m.label is MessageLabel.HATEFUL else c.cw
            bucket = obs[(m.label, c.role)]
            bucket[key] = bucket.get(key, 0) + 1

    strata = [
        ("hateful premises", (MessageLabel.HATEFUL, Role.PREMISE),
         HATEFUL_PREMISE_WEIGHTS),
        ("hateful conclusions", (MessageLabel.HATEFUL, Role.CONCLUSION),
         HATEFUL_CONCLUSION_WEIGHTS),
        ("non-hateful premises", (MessageLabel.NON_HATEFUL, Role.PREMISE),
         NON_HATEFUL_PREMISE_CW_WEIGHTS),
        ("non-hateful conclusions", (MessageLabel.NON_HATEFUL, Role.CONCLUSION),
         NON_HATEFUL_CONCLUSION_CW_WEIGHTS),
    ]
    worst = 0.0
    for name, bucket_key, weights in strata:
        bucket = obs[bucket_key]
        total = sum(bucket.values())
        print(f"\n{name} (n={total})")
        for key, p_hat, p, z in z_scores(bucket, weights, total):
            worst = max(worst, abs(z))
            print(f"  {label(key):12s} observed {p_hat:.4f} target {p:.4f} z={z:+.2f}")
    targets = (
        (MessageLabel.HATEFUL, HATEFUL_PREMISES_MEAN_STD[0]),
        (MessageLabel.NON_HATEFUL, NON_HATEFUL_PREMISES_MEAN_STD[0]),
    )
    for lbl, target in targets:
        mean = float(np.mean(premise_counts[lbl]))
        print(f"\n{lbl.value} premise-count mean {mean:.3f} (target {target})")
    print(f"\nworst |z| = {worst:.2f} ({Z_BOUND} is the acceptance bound)")
    return 1 if worst > Z_BOUND else 0


if __name__ == "__main__":
    raise SystemExit(main())
