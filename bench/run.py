#!/usr/bin/env python3
"""Benchmark of the hopfore package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: grid-m5, grid-m3-long, rings, cli-tensor (bench/README.md says
why each exists).  The run sets up (at least three times, reporting the median),
then serves whole cycles of seeded requests, one at a time, for S seconds
(to within half a cycle, and at least the workload's minimum of cycles),
and checks every output.  The request list is served again from its start
when the run outlasts it, and rates and latencies are taken from each
request's median over its repeats.

--trace 0 prints the end-to-end metrics.  --trace 1 serves cycles for S/2
seconds untraced, then the same cycles again with every layer wrapped in
spans, and prints the per-layer metrics, the tracing overhead included.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The line before it, "# record {...}", adds the environment
(Python, scalar backend, CPU count, commit) and the output digest; save
stdout to compare two runs with bench/compare.py.  The exit code is 0 when
every output was correct, 1 when one was not, and 2 when the package
cannot be found (no result is printed then).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Set-up runs at least SETUP_REPEATS times, and again until SETUP_SECONDS
# have been spent (at most SETUP_MAX_REPEATS), so that a short set-up is
# still the median of a few seconds of work.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 15
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
MIN_COVERAGE = 0.95

END_TO_END = {
    "pairs_per_s": "pairs/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

def tail_fraction(n):
    """The highest quantile with at least TAIL_BEYOND of n samples beyond
    it, but never below the median."""
    return max(0.5, 1 - TAIL_BEYOND / n)


def rank(fraction, n):
    """Nearest-rank index of the `fraction` quantile of n sorted samples."""
    return min(n - 1, max(0, math.ceil(fraction * n) - 1))


class Loop:
    """Serves whole cycles of requests, one at a time, and keeps what each
    request did."""

    def __init__(self, workload, state, requests, min_cycles, tracer=None):
        self.workload = workload
        self.state = state
        self.requests = requests
        self.min_cycles = min_cycles
        self.tracer = tracer
        self.latencies = []
        self.by_request = [[] for _ in requests]   # latencies per request
        self.pairs = [0] * len(requests)            # pairs per request
        self.outcomes = []
        self.cycles = 0
        self.errors = []
        # The digest covers the requests every run serves: the first pass
        # through the request list, up to the workload's minimum of cycles.
        self.digested = min(len(requests), min_cycles * workload.cycle_len)

    def run(self, seconds=0.0, cycles=None):
        """Exactly `cycles` whole cycles, or else whole cycles until the
        minimum is done and another cycle would end more than half a cycle
        past `seconds`: the run lasts `seconds` to within half a cycle."""
        n = self.workload.cycle_len
        start = time.perf_counter()
        while True:
            base = self.cycles * n % len(self.requests)
            for index in range(base, base + n):
                self._one(index)
            self.cycles += 1
            if cycles is not None:
                if self.cycles >= cycles:
                    return
            elif self.cycles >= self.min_cycles:
                elapsed = time.perf_counter() - start
                if elapsed * (1 + 0.5 / self.cycles) >= seconds:
                    return

    def _one(self, index):
        from workloads import Outcome

        request = self.requests[index]
        tracer = self.tracer
        if tracer is not None:
            tracer.resume()
        t0 = time.perf_counter()
        try:
            served = self.workload.serve(self.state, request, tracer is not None)
        except Exception:  # a failed request is counted, and the loop goes on
            served = None
            self.errors.append(traceback.format_exc())
        self.latencies.append(time.perf_counter() - t0)
        self.by_request[index].append(self.latencies[-1])
        if tracer is not None:
            tracer.pause()
            if served is not None:
                self.workload.absorb(tracer, served)
        first_pass = len(self.outcomes) < self.digested
        outcome = Outcome(0, 1, 1, "error")
        if served is not None:
            try:
                outcome = self.workload.check(self.state, request, served, first_pass)
            except Exception:  # a malformed output is a failed request
                self.errors.append(traceback.format_exc())
        self.pairs[index] = outcome.pairs
        if not first_pass:
            outcome.output = None   # only the first pass's outputs are digested
        self.outcomes.append(outcome)

    @property
    def busy(self):
        return sum(self.latencies)

    def request_medians(self):
        """(pairs, median latency) of every request served, over its
        repeats: a request slowed by a passing load on the host counts
        only when most of its repeats were."""
        return [(self.pairs[i], statistics.median(lat))
                for i, lat in enumerate(self.by_request) if lat]

    def digest(self):
        """sha256 of the first pass's outputs; the same seed must give the
        same digest on every run and commit."""
        first = sorted(o.output for o in self.outcomes[:self.digested])
        return hashlib.sha256("\n".join(first).encode()).hexdigest()


def environment(hopfore):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "backend": hopfore.Rational.__module__.split(".")[0],
        "nproc": nproc,
        "commit": commit,
    }


def end_to_end(workload, loop, setups):
    """Rates and latencies from each request's median over its repeats in
    the run; the tail from the raw latencies, at a quantile fixed per
    workload by its minimum request count, so runs with more requests
    report the same quantile.  Too few requests for a tail: the median."""
    medians = loop.request_medians()
    p50 = statistics.median(m for _, m in medians)
    lat = sorted(loop.latencies)
    fraction = tail_fraction(workload.min_cycles * workload.cycle_len)
    tail = rank(fraction, len(lat))
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    metrics = {
        "pairs_per_s": sum(p for p, _ in medians) / sum(m for _, m in medians),
        "p50_ms": p50 * 1e3,
        "tail_ms": (max(lat[tail], p50) if fraction > 0.5 else p50) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    repeats = [len(r) for r in loop.by_request if r]
    notes = {
        "pairs_per_s": f"{len(medians)} requests, each the median of "
                       f"{min(repeats)} to {max(repeats)} repeats; "
                       f"{loop.cycles} cycles in {loop.busy:.2f} s",
        "p50_ms": f"median of {len(medians)} request medians",
        "tail_ms": (f"p{100 * fraction:.1f} of {len(lat)} requests, "
                    f"{len(lat) - tail - 1} beyond") if fraction > 0.5
                   else "too few requests for a tail: p50_ms",
        "setup_s": f"median of {len(setups)}",
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def per_layer(workload, tracer, untraced, traced, field, dihedral, import_ms):
    """Per-layer metrics; counts and times are per cycle of requests."""
    from probes import FIELD_ORDERS
    from tracing import LAYERS, LINALG, STAGE_PARENT, STAGES

    k = traced.cycles

    def stat(name):
        return tracer.stats.get(name, (0, 0.0, 0.0))

    def edge_total(parent, names):
        return sum(tracer.edges.get((parent, n), (0, 0.0))[1] for n in names) / k

    def count(name):
        return tracer.counts.get(name, (0,))[0] / k

    out = {}
    for op in ("mul", "add", "inverse"):
        for order in FIELD_ORDERS:
            out[f"cyclotomic.{op}_us.o{order}"] = (field[f"{op}.o{order}"], "us")
    for op in ("mul", "add", "inverse"):
        out[f"cyclotomic.{op}.calls"] = (count(f"cyclotomic.{op}"), "1/cycle")
    for fn in LINALG:
        calls, own, _ = stat(f"linalg.{fn}")
        out[f"linalg.{fn}.calls"] = (calls / k, "1/cycle")
        out[f"linalg.{fn}.self_s"] = (own / k, "s/cycle")
    out["modules.build.self_s"] = (stat("modules.build")[1] / k, "s/cycle")
    out["modules.tensor.self_s"] = (stat("modules.tensor")[1] / k, "s/cycle")
    calls, own, _ = stat("modules.element_action")
    out["modules.element_action.calls"] = (calls / k, "1/cycle")
    out["modules.element_action.self_s"] = (own / k, "s/cycle")
    out["modules.tensor_dim.sum"] = (tracer.sums.get("modules.tensor_dim", 0) / k,
                                     "1/cycle")
    calls, _, total = stat(STAGE_PARENT)
    stages = {s: edge_total(STAGE_PARENT, names) for s, names in STAGES.items()}
    out["decompose.calls"] = (calls / k, "1/cycle")
    out["decompose.self_s"] = (total / k - sum(stages.values()), "s/cycle")
    for s, seconds in stages.items():
        out[f"decompose.{s}_s"] = (seconds, "s/cycle")
    pool = tracer.sums.get("decompose.pool_size", 0)
    out["decompose.pool_size.sum"] = (pool / k, "1/cycle")
    out["decompose.pool_hit_ratio"] = (
        tracer.sums.get("decompose.pool_hits", 0) / pool if pool else 0.0, "ratio")
    calls, own, _ = stat("fusion.tensor_labels")
    out["fusion.tensor_labels.calls"] = (calls / k, "1/cycle")
    out["fusion.tensor_labels.self_s"] = (own / k, "s/cycle")
    out["greenring.verify_presentation_s"] = (
        stat("greenring.verify_presentation")[2] / k, "s/cycle")
    calls, own, _ = stat("greenring.ring_mul")
    out["greenring.ring_mul.calls"] = (calls / k, "1/cycle")
    out["greenring.ring_mul.self_s"] = (own / k, "s/cycle")
    for m, seconds in dihedral.items():
        out[f"groups.dihedral_algebra_s.{m}"] = (seconds, "s")
    out["grid.run_grid.self_s"] = (stat("grid.run_grid")[1] / k, "s/cycle")
    out["grid.check_pair.calls"] = (stat("grid.check_pair")[0] / k, "1/cycle")
    pairs = sorted(tracer.samples.get("grid.check_pair", ()))
    # Fixed per workload, like tail_ms, by the pairs of its minimum run.
    pair_fraction = tail_fraction(max(1, workload.min_cycles * workload.pairs_per_cycle))
    pair_tail = rank(pair_fraction, len(pairs)) if pairs else 0
    out["grid.pair_p50_ms"] = (statistics.median(pairs) * 1e3 if pairs else 0.0, "ms")
    out["grid.pair_tail_ms"] = (
        max(pairs[pair_tail], statistics.median(pairs)) * 1e3 if pairs else 0.0, "ms")
    out["syntax.parse_label.self_s"] = (stat("syntax.parse_label")[1] / k, "s/cycle")
    out["cli.import_ms"] = (import_ms, "ms")
    out["cli.process_s"] = ((stat("cli.startup")[2] + stat("cli.exit")[2]) / k, "s/cycle")
    for layer in LAYERS[1:]:
        busy = sum(v[1] for n, v in tracer.stats.items() if n.startswith(layer + "."))
        out[f"{layer}.busy_s"] = (busy / k, "s/cycle")
    out["trace.coverage_frac"] = (tracer.covered / traced.busy, "ratio")
    out["trace.overhead_frac"] = (traced.busy / untraced.busy - 1, "ratio")
    out["trace.missing"] = (len(tracer.missing), "count")
    notes = {
        "grid.pair_tail_ms": f"p{100 * pair_fraction:.1f} of {len(pairs)} pairs, "
                             f"{len(pairs) - pair_tail - 1} beyond" if pairs else "no pairs",
        "trace.overhead_frac": f"{k} cycles: {untraced.busy:.2f} s untraced, "
                               f"{traced.busy:.2f} s traced",
    }
    return out, notes


def run(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result, lines to print before it)."""
    import hopfore
    import probes
    from tracing import Tracer
    from workloads import WORKLOADS, clear_caches

    workload = WORKLOADS[name](seed, tiny)
    setups = []
    while True:
        clear_caches()
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
        if (trace or tiny or len(setups) >= SETUP_MAX_REPEATS
                or (len(setups) >= SETUP_REPEATS and sum(setups) >= SETUP_SECONDS)):
            break
    requests = workload.requests(state)
    min_cycles = 1 if tiny else workload.min_cycles
    flags = []
    if not trace:
        loop = Loop(workload, state, requests, min_cycles)
        loop.run(seconds=seconds)
        loops = [loop]
        metrics, notes = end_to_end(workload, loop, setups)
    else:
        untraced = Loop(workload, state, requests, min_cycles)
        untraced.run(seconds=seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Loop(workload, state, requests, min_cycles, tracer)
            traced.run(cycles=untraced.cycles)
        finally:
            tracer.uninstall()
        loops = [untraced, traced]
        metrics, notes = per_layer(workload, tracer, untraced, traced,
                                   probes.field_ops(seed),
                                   probes.dihedral_builds(), probes.cli_import_ms())
        if metrics["trace.coverage_frac"][0] < MIN_COVERAGE:
            flags.append(f"trace.coverage_frac below {MIN_COVERAGE}")
        if tracer.missing:
            flags.append("missing: " + ", ".join(tracer.missing))
    outcomes = [o for lp in loops for o in lp.outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    extras = workload.extras(loops[0].outcomes)
    extras["failed_frac"] = (failed / attempted, "ratio")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(hopfore), "digest": loops[0].digest(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "notes": notes, "flags": flags,
    }
    env = record["env"]
    lines = [f"# workload {name}  seed {seed}  seconds {seconds}  trace {trace}",
             f"# env python {env['python']}  backend {env['backend']}  "
             f"nproc {env['nproc']}  commit {env['commit']}"]
    for k, (v, u) in list(metrics.items()) + list(extras.items()):
        note = f"  ({notes[k]})" if k in notes else ""
        lines.append(f"{k:<34} {v:>14.6g} {u}{note}")
    lines.append(f"digest {record['digest']}")
    lines += [f"FLAG {f}" for f in flags]
    for err in {e for lp in loops for e in lp.errors}:
        lines.append("# error " + err.strip().replace("\n", "\n# "))
    lines.append("# record " + json.dumps(record, sort_keys=True))
    result = {"correct": record["correct"], "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfore", "__init__.py")):
        print(f"error: no hopfore package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    import hopfore
    if not os.path.abspath(hopfore.__file__).startswith(SRC + os.sep):
        print(f"error: imported hopfore from {hopfore.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
