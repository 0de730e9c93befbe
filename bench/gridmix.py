#!/usr/bin/env python3
"""Pair mix of a grid workload against the whole label grid it samples.

    python3 bench/gridmix.py grid-m5 [--seeds 10]

Runs every ordered pair of the workload's label grid once through
`check_pair`, with the layers traced, one pair at a time (about 8 minutes
for grid-m5 and 16 for grid-m3-long on a 2-CPU machine without gmpy2).
Then it prints, for the whole grid and for the pairs of the requests that
seeds 1..N give a minimum run: the shares of squares, Eig x Eig and
Nil x Nil pairs, each decompose stage's share of decompose time, the
candidate pool's hit ratio, and pairs per second of `check_pair`.  The
workload's figures are read off the same measured pairs, so the rows
compare directly.  bench/README.md records the output.
"""

import argparse
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import hopfore  # noqa: E402
import hopfore.grid  # noqa: E402
from tracing import STAGE_PARENT, STAGES, Tracer  # noqa: E402
from workloads import GRID_BETAS, WORKLOADS, GridWorkload  # noqa: E402


def measure(alg, labels):
    """{(left, right): per-pair figures} over every ordered pair."""
    cache = {lab: hopfore.build_module(alg, lab) for lab in labels}
    tracer = Tracer()

    def totals():
        out = {s: sum(tracer.edges.get((STAGE_PARENT, n), (0, 0.0))[1] for n in names)
               for s, names in STAGES.items()}
        out["decompose"] = tracer.stats.get(STAGE_PARENT, (0, 0.0, 0.0))[2]
        out["pool"] = tracer.sums.get("decompose.pool_size", 0)
        out["hits"] = tracer.sums.get("decompose.pool_hits", 0)
        out["check"] = tracer.stats.get("grid.check_pair", (0, 0.0, 0.0))[2]
        return out

    pairs = {}
    tracer.install()
    try:
        for left in labels:
            for right in labels:
                before = totals()
                if hopfore.grid.check_pair(alg, left, right, cache) is not None:
                    raise SystemExit(f"mismatch on {left} x {right}")
                after = totals()
                pairs[left, right] = {k: after[k] - before[k] for k in after}
    finally:
        tracer.uninstall()
    return pairs


def row(title, keys, pairs):
    rows = [pairs[k] for k in keys]
    n = len(rows)
    decompose = sum(r["decompose"] for r in rows)
    split = " / ".join(f"{100 * sum(r[s] for r in rows) / decompose:.1f}" for s in STAGES)
    kinds = [(a.kind, b.kind) for a, b in keys]
    share = {k: 100 * kinds.count(k) / n
             for k in ((hopfore.EIG, hopfore.EIG), (hopfore.NIL, hopfore.NIL))}
    print(f"| {title} | {100 * sum(a == b for a, b in keys) / n:.1f}% "
          f"| {share[hopfore.EIG, hopfore.EIG]:.1f}% | {share[hopfore.NIL, hopfore.NIL]:.1f}% "
          f"| {split} | {sum(r['hits'] for r in rows) / sum(r['pool'] for r in rows):.3f} "
          f"| {n / sum(r['check'] for r in rows):.2f} |")


def main():
    grids = [n for n, w in WORKLOADS.items() if issubclass(w, GridWorkload)]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=grids)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    cls = WORKLOADS[args.workload]
    state = cls(1).setup()
    alg = state["alg"]
    labels = hopfore.grid_labels(alg, cls.nil_tmax, cls.eig_tmax, GRID_BETAS)
    pairs = measure(alg, labels)
    sampled = []
    for seed in range(1, args.seeds + 1):
        workload = cls(seed)
        for request in workload.requests(state)[:workload.min_cycles * workload.cycle_len]:
            sampled += [(a, b) for a in request for b in request]
    print("| pairs | squares | Eig x Eig | Nil x Nil | "
          + " / ".join(STAGES) + " | pool_hit_ratio | pairs/s |")
    print("| --- " * 7 + "|")
    row(f"m = {cls.m} grid, all {len(pairs)} pairs", list(pairs), pairs)
    row(f"{args.workload}, {args.seeds} seeds", sampled, pairs)


if __name__ == "__main__":
    main()
