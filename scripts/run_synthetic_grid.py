#!/usr/bin/env python3
"""Run the full encoding x model grid on a synthetic corpus-scale dataset.

The structural numbers this produces (identical rows across the pure-structure
encodings, a large jump once component hatefulness enters) mirror the
behavior reported on the real corpus.
"""

import argparse
import time

from argstruct.experiment import ExperimentConfig, emit_report, run_grid
from argstruct.synth import CORPUS_SIZES, MODES, GeneratorConfig, generate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", default="table1", choices=MODES)
    parser.add_argument("--n-hate", type=int, default=CORPUS_SIZES[0])
    parser.add_argument("--n-nohate", type=int, default=CORPUS_SIZES[1])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--guarantee", action="store_true",
                        help="force a hateful component into every hateful message")
    parser.add_argument("--out", default=None, help="also write markdown here")
    args = parser.parse_args()

    dataset = generate(
        GeneratorConfig(
            mode=args.mode,
            n_hateful=args.n_hate,
            n_nonhateful=args.n_nohate,
            seed=args.seed,
            ensure_hateful_component=args.guarantee,
        )
    )
    cfg = ExperimentConfig(k=args.k, seed=args.seed, jobs=args.jobs)
    start = time.perf_counter()
    report = run_grid(dataset, cfg)
    elapsed = time.perf_counter() - start
    text = emit_report(report, "markdown")
    print(text)
    print(f"{len(report.rows)} cells x {args.k} folds in {elapsed:.1f}s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
