#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

    python3 bench/compare.py BASE.log [BASE.log ...] -- NEW.log [NEW.log ...]

Each file is the saved stdout of one or more `bench/run.py` runs; the
"# record" lines are read.  Runs are grouped by workload and trace mode.
For every end-to-end metric of BENCHMARK.json the table gives each side's
median and quartile spread, the change of the median as a share of the
base median (positive is worse), and the verdict against the metric's
bound: "worse" beyond the bound, "unresolved" when the base's own spread
is wider than the bound and the sides overlap, else "ok".  Traced runs
get their per-layer medians side by side, without a verdict.

Runs of the same workload and seed must have the same output digest.

Exit codes: 0 no regression; 1 a regression or a digest mismatch; 2 the
records cannot be compared, for instance because they were measured with
different scalar backends (a number without its backend is not a claim).
"""

import json
import os
import statistics
import sys

MARK = "# record "
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records += [json.loads(line[len(MARK):]) for line in fh
                        if line.startswith(MARK)]
    return records


def spread(values):
    """(median, quartile distance over the median)."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def group(records):
    out = {}
    for rec in records:
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def main(argv):
    if "--" not in argv:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        print("error: no '# record' lines on one side", file=sys.stderr)
        return 2
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"error: runs use different scalar backends {sorted(backends)}; "
              "they cannot be compared", file=sys.stderr)
        return 2
    for key in ("python", "nproc"):
        seen = {r["env"][key] for r in base + new}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(map(str, seen))}")
    with open(SPEC) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    status = 0
    print(f"backend {backends.pop()}")
    base_groups, new_groups = group(base), group(new)
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace = key
        b_runs, n_runs = base_groups[key], new_groups[key]
        digests = {}
        for rec in b_runs + n_runs:
            digests.setdefault(rec["seed"], set()).add(rec["digest"])
        for seed, found in sorted(digests.items()):
            if len(found) > 1:
                print(f"{workload}: seed {seed} gives different outputs")
                status = 1
        failed = [r for r in b_runs + n_runs if not r["correct"]]
        if failed:
            print(f"{workload}: {len(failed)} run(s) had failed operations")
            status = 1
        print(f"\n{workload} (trace {trace}): {len(b_runs)} base runs, "
              f"{len(n_runs)} new runs")
        print(f"  {'metric':34} {'base':>12} {'spread':>7} {'new':>12} {'spread':>7} "
              f"{'change':>8}  verdict")
        for name in b_runs[0]["metrics"]:
            b_vals = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            n_vals = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not n_vals:
                continue
            (b_med, b_spr), (n_med, n_spr) = spread(b_vals), spread(n_vals)
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            verdict = ""
            if name in bounds and not trace:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                if better == "lower":
                    all_better = max(n_vals) < min(b_vals)
                else:
                    all_better = min(n_vals) > max(b_vals)
                if b_spr > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                    status = 1
                else:
                    verdict = "ok"
            unit = b_runs[0]["metrics"][name]["unit"]
            print(f"  {name:34} {b_med:12.6g} {b_spr:7.3f} {n_med:12.6g} {n_spr:7.3f} "
                  f"{change:+8.3f}  {verdict} ({unit})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
