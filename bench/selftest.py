#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny sizes.

    python3 bench/selftest.py

For each workload, in both trace modes, one cycle of tiny requests must
pass the correctness gate and print every metric that BENCHMARK.json names
for that mode, with its unit, and no other.  The same seed must regenerate
the same inputs and the same output digest, and a different seed must
change the inputs.  A wrapped name the package lacks must be listed as
missing without an error, and a decompose stage left unwrapped must raise
the coverage flag.  Exit code 0 when every check holds, 1 otherwise.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(lines):
    record = next(ln for ln in lines if ln.startswith("# record "))
    return json.loads(record[len("# record "):])["digest"]


def check_workload(name, spec):
    problems = []
    digests = []
    for trace, key in ((0, "end_to_end"), (0, "end_to_end"), (1, "per_layer")):
        result, lines = run.run(name, seed=1, seconds=0.01, trace=trace, tiny=True)
        digests.append(digest(lines))
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["attempted"] < 1:
            problems.append(f"trace {trace}: correctness gate failed: "
                            + " | ".join(ln for ln in lines if ln.startswith("# error")))
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, units "
                            f"{sorted(k for k in want if k in got and got[k] != want[k])}")
        for metric, unit in want.items():
            if not any(ln.split()[:1] == [metric] and ln.split()[2:3] == [unit]
                       for ln in lines):
                problems.append(f"trace {trace}: no printed line for {metric} [{unit}]")
    if len(set(digests)) != 1:
        problems.append(f"seed 1 gives different output digests: {digests}")
    cls = WORKLOADS[name]
    state = cls(1, tiny=True).setup()
    first = cls(1, tiny=True).requests(state)
    if first != cls(1, tiny=True).requests(state):
        problems.append("seed 1 does not regenerate its inputs")
    if first == cls(2, tiny=True).requests(state):
        problems.append("seeds 1 and 2 give the same inputs")
    return problems


def check_missing():
    """A wrapped name the package lacks is listed as missing, without an error."""
    saved = tracing.EXTRA_SPANS
    tracing.EXTRA_SPANS = saved + (("linalg", "no_such_function", "linalg.gone"),)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        tracing.EXTRA_SPANS = saved
    if tracer.missing != ["linalg.no_such_function"]:
        return [f"missing names listed as {tracer.missing}"]
    return []


def check_coverage_flag():
    """Leaving the strings stage unwrapped drops coverage below the flag."""
    saved = tracing.EXTRA_SPANS
    tracing.EXTRA_SPANS = tuple(s for s in saved if s[1] != "_count_strings")
    try:
        _, lines = run.run("grid-m3-long", seed=1, seconds=0.01, trace=1, tiny=True)
    finally:
        tracing.EXTRA_SPANS = saved
    if not any(ln.startswith("FLAG trace.coverage_frac") for ln in lines):
        return ["an unwrapped strings stage does not raise the coverage flag"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    failed = False
    if sorted(names) != sorted(WORKLOADS):
        print(f"FAIL workloads: BENCHMARK.json {names}, runner {sorted(WORKLOADS)}")
        failed = True
    for p in check_missing() + check_coverage_flag():
        print(f"FAIL tracing: {p}")
        failed = True
    for name in names:
        if name not in WORKLOADS:
            continue
        problems = check_workload(name, spec)
        for p in problems:
            print(f"FAIL {name}: {p}")
        if not problems:
            print(f"ok   {name}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
