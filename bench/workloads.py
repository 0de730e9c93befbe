"""The benchmark's workloads: seeded inputs, set-up, requests and checks.

Every workload is a closed loop: one request at a time, the next sent only
when the previous one has returned.  Requests come in fixed cycles whose
structure does not depend on the seed; the seed only picks which concrete
label fills each slot of a cycle.  A slot fixes the label kind, the string
length t and the dimension of the simple, which is what a pair's cost
depends on, so different seeds give different inputs but comparable work.
A run that outlasts the request list serves it again from the start: on
the grids and cli-tensor the list is a single cycle, served at least three
and eight times, so that each request's median over its repeats damps the
host's changes of speed.

A request is split in two: `serve` calls the program and is timed, `check`
verifies and renders what it returned and is not.
"""

import json
import os
import random
import subprocess
import sys
import time
from collections import defaultdict

import hopfore

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

# Eigenvalues of the acceptance grid (tests/test_acceptance.py) and of the
# presentation suites (the `verify presentation` default).
GRID_BETAS = (1, -1, 2, hopfore.Rational(1, 2))
RING_BETAS = (1, -1, 2, -2, hopfore.Rational(1, 2))

CLI_TIMEOUT_S = 60


def clear_caches():
    """Drop every functools cache in the package, so set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "hopfore" or name.startswith("hopfore."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def strata(alg, labels, beta_classes=False):
    """Labels grouped by slot: (kind, t, dimension of the simple), and for
    Eig labels with `beta_classes` also whether beta is +-1 ("unit") or
    not ("other"): products of betas decide which eigenvalue candidates of
    an Eig x Eig pair hit, and so its cost."""
    out = defaultdict(list)
    for lab in labels:
        key = (lab.kind, lab.t, alg.simple_by_label[lab.i].dim)
        if beta_classes and lab.kind == hopfore.EIG:
            key += ("unit" if lab.beta in (1, -1) else "other",)
        out[key].append(lab)
    return out


class Decks:
    """Seeded draws from each stratum without replacement, reshuffled when
    used up, so a stratum drawn twice in a cycle gives two labels."""

    def __init__(self, rng, groups):
        self.rng = rng
        self.groups = groups
        self.left = {}

    def draw(self, slots):
        """One label per slot."""
        out = []
        for slot in slots:
            if not self.left.get(slot):
                self.left[slot] = list(self.groups[slot])
                self.rng.shuffle(self.left[slot])
            out.append(self.left[slot].pop())
        return tuple(out)


def nil(t, d):
    return (hopfore.NIL, t, d)


def eig(t, d, beta_class=None):
    return (hopfore.EIG, t, d) + ((beta_class,) if beta_class else ())


def pair_text(left, right):
    return f"{hopfore.format_label(left)} x {hopfore.format_label(right)}"


def labels_text(labels):
    return ", ".join(hopfore.format_label(lab) for lab in labels)


class Outcome:
    """What one request did: work counts, failures, and its output text."""

    __slots__ = ("pairs", "checks", "attempted", "failed", "output", "times")

    def __init__(self, pairs, attempted, failed, output, checks=0, times=None):
        self.pairs = pairs
        self.checks = checks
        self.attempted = attempted
        self.failed = failed
        self.output = output
        self.times = times or {}


class Workload:
    """A workload: subclasses define the cycle and the three request steps."""

    name = ""
    children = False    # True when the program runs in child processes
    min_cycles = 1      # cycles a timed run serves at least
    pairs_per_cycle = 0     # pairs a cycle sends through `check_pair`

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def setup(self):
        """Build algebras, label grids and modules; returns the state."""
        raise NotImplementedError

    def requests(self, state):
        """The seeded request list, made of whole cycles of `cycle_len`."""
        raise NotImplementedError

    def serve(self, state, request, traced=False):
        """Call the program for one request; the only timed step."""
        raise NotImplementedError

    def check(self, state, request, served, render):
        """Verify what `serve` returned; returns an Outcome.  Its output
        text, which feeds the digest, is rendered only when asked for."""
        raise NotImplementedError

    def absorb(self, tracer, served):
        """Hand spans recorded outside this process to the tracer."""

    def extras(self, outcomes):
        """Rates of this workload's own, reported beside the metrics."""
        return {}


# -- grids --------------------------------------------------------------------

class GridWorkload(Workload):
    """`run_grid(alg, labels)` per request on a few grid labels: every
    ordered pair of them, squares included, through both routes, as
    `verify fusion` and the acceptance test call it."""

    m = 0
    nil_tmax = 0
    eig_tmax = 0
    beta_classes = False
    cycle_slots = ()
    tiny_slots = ((nil(1, 1), eig(1, 1)), (nil(2, 2), eig(1, 2)))
    min_cycles = 3

    @property
    def slots(self):
        return self.tiny_slots if self.tiny else self.cycle_slots

    @property
    def cycle_len(self):
        return len(self.slots)

    @property
    def pairs_per_cycle(self):
        return sum(len(labels) ** 2 for labels in self.slots)

    def setup(self):
        alg = hopfore.dihedral_algebra(3 if self.tiny else self.m)
        labels = hopfore.grid_labels(alg, self.nil_tmax, self.eig_tmax, GRID_BETAS)
        for lab in labels:
            hopfore.build_module(alg, lab)
        beta_classes = self.beta_classes and not self.tiny
        return {"alg": alg, "groups": strata(alg, labels, beta_classes)}

    def requests(self, state):
        """One cycle, repeated by the run: one label per slot."""
        decks = Decks(random.Random(self.seed), state["groups"])
        return [decks.draw(labels) for labels in self.slots]

    def serve(self, state, request, traced=False):
        return hopfore.run_grid(state["alg"], list(request))

    def check(self, state, request, served, render):
        want = len(request) ** 2
        bad = len(served["mismatches"]) if served["pairs"] == want else want
        text = labels_text(request) + ": " + json.dumps(served, sort_keys=True)
        return Outcome(served["pairs"], want, bad, text)


class GridM5(GridWorkload):
    name = "grid-m5"
    m = 5
    nil_tmax = 3
    eig_tmax = 2
    beta_classes = True
    # Two requests of four labels, two Nil and two Eig each: 32 pairs from
    # eight of the acceptance grid's fourteen strata, chosen so that their
    # mean cost per pair is the whole grid's (bench/README.md compares the
    # two).  The second request holds the dear Eig x Eig pairs on the
    # two-dimensional simples, with both beta classes.
    cycle_slots = (
        (eig(1, 1, "unit"), eig(1, 1, "other"), nil(1, 2), nil(3, 1)),
        (eig(1, 2, "unit"), eig(2, 2, "other"), nil(2, 1), nil(3, 2)),
    )


class GridM3Long(GridWorkload):
    name = "grid-m3-long"
    m = 3
    nil_tmax = 6
    eig_tmax = 3
    beta_classes = True
    # Two requests of four labels, two Nil and two Eig each: 32 pairs with
    # Nil strings of length 1, 3, 5 and 6 and Eig strings of length 1, 2, 2
    # and 3, chosen so that their mean cost per pair and their decompose
    # stage split are the long-string grid's (bench/README.md compares them).
    cycle_slots = (
        (eig(2, 2, "other"), eig(3, 1, "unit"), nil(5, 1), nil(6, 1)),
        (eig(1, 1, "unit"), eig(2, 1, "other"), nil(1, 1), nil(3, 2)),
    )


# -- rings --------------------------------------------------------------------

class Rings(Workload):
    """Per request, at one m: `verify_presentation` (combined suite) and the
    closed rules on one third of that m's label grid, in seeded order."""

    name = "rings"
    chunks = 3
    min_cycles = 20

    @property
    def ms(self):
        return (3,) if self.tiny else (3, 5, 7)

    @property
    def cycle_len(self):
        return len(self.ms)

    def setup(self):
        state = {}
        for m in self.ms:
            alg = hopfore.dihedral_algebra(m)
            state[m] = (alg, hopfore.grid_labels(alg, 3, 2, RING_BETAS))
        return state

    def requests(self, state):
        rng = random.Random(self.seed)
        per_m = {}
        for m in self.ms:
            labels = state[m][1]
            pairs = [(a, b) for a in labels for b in labels]
            rng.shuffle(pairs)
            if self.tiny:
                pairs = pairs[:60]
            size = -(-len(pairs) // self.chunks)
            per_m[m] = [pairs[k:k + size] for k in range(0, len(pairs), size)]
        return [(m, per_m[m][c]) for c in range(self.chunks) for m in self.ms]

    def serve(self, state, request, traced=False):
        m, pairs = request
        alg = state[m][0]
        t0 = time.perf_counter()
        report = hopfore.verify_presentation(alg, "combined", RING_BETAS, 6)
        t1 = time.perf_counter()
        products = [hopfore.tensor_labels(alg, a, b) for a, b in pairs]
        t2 = time.perf_counter()
        return report, products, t1 - t0, t2 - t1

    def check(self, state, request, served, render):
        m, pairs = request
        alg = state[m][0]
        report, products, presentation_s, closed_s = served
        failed = report["failed"]
        lines = []
        for (a, b), prod in zip(pairs, products):
            want = hopfore.label_dim(alg, a) * hopfore.label_dim(alg, b)
            if hopfore.multiset_dim(alg, prod) != want:
                failed += 1
            if render:
                lines.append(pair_text(a, b) + " = " + hopfore.format_multiset(alg, prod))
        text = f"m={m} identities={report['checks']} failed={report['failed']}\n"
        return Outcome(len(pairs), report["checks"] + len(pairs), failed,
                       text + "\n".join(sorted(lines)), checks=report["checks"],
                       times={"presentation_s": presentation_s, "closed_s": closed_s})

    def extras(self, outcomes):
        checks = sum(o.checks for o in outcomes)
        pairs = sum(o.pairs for o in outcomes)
        return {
            "checks_per_s": (checks / sum(o.times["presentation_s"] for o in outcomes),
                             "checks/s"),
            "closed_pairs_per_s": (pairs / sum(o.times["closed_s"] for o in outcomes),
                                   "pairs/s"),
        }


# -- CLI ----------------------------------------------------------------------

class CliTensor(Workload):
    """Cold `python -m hopfore.cli tensor --method both` processes, one at a
    time; cheap pairs, so start-up, parsing and the algebra build dominate."""

    name = "cli-tensor"
    # Three m = 3 calls and two m = 5 calls per cycle, one cycle served again
    # and again: the median falls on an m = 3 call's own median and the tail
    # among the m = 5 calls.
    cycle_slots = (
        (3, (nil(2, 1), eig(1, 1))),
        (3, (eig(1, 2), nil(1, 2))),
        (5, (nil(2, 2), eig(1, 1))),
        (3, (nil(3, 1), nil(2, 2))),
        (5, (eig(1, 1), eig(1, 2))),
    )
    min_cycles = 8
    children = True

    @property
    def slots(self):
        if self.tiny:
            return tuple(s for s in self.cycle_slots if s[0] == 3)
        return self.cycle_slots

    @property
    def cycle_len(self):
        return len(self.slots)

    def setup(self):
        state = {}
        for m in sorted({m for m, _ in self.slots}):
            alg = hopfore.dihedral_algebra(m)
            state[m] = (alg, strata(alg, hopfore.grid_labels(alg, 3, 2, GRID_BETAS)))
        return state

    def requests(self, state):
        """One cycle of (argv, expected closed line) per call; the
        expectation comes from the closed rules, run in this process."""
        decks = {m: Decks(random.Random(f"{self.seed}/{m}"), state[m][1]) for m in state}
        out = []
        for m, slots in self.slots:
            alg = state[m][0]
            left, right = decks[m].draw(slots)
            argv = ("tensor", "--m", str(m),
                    "--left", hopfore.format_label(left),
                    "--right", hopfore.format_label(right), "--method", "both")
            closed = hopfore.tensor_labels(alg, left, right)
            out.append((argv, hopfore.format_multiset(alg, closed)))
        return out

    def serve(self, state, request, traced=False):
        argv, _ = request
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        spawn = time.perf_counter()
        if traced:
            cmd = [sys.executable, CHILD, repr(spawn), *argv]
        else:
            cmd = [sys.executable, "-m", "hopfore.cli", *argv]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        return proc, time.perf_counter()

    def absorb(self, tracer, served):
        proc, end = served
        if proc is not None:
            tracer.merge_child(proc.stderr, end)

    def check(self, state, request, served, render):
        argv, want = request
        proc = served[0]
        if proc is None:
            return Outcome(1, 1, 1, " ".join(argv) + ": timeout")
        lines = proc.stdout.splitlines()
        ok = (proc.returncode == 0 and "agree: true" in lines
              and "closed: " + want in lines and "matrix: " + want in lines)
        return Outcome(1, 1, 0 if ok else 1,
                       " ".join(argv) + f" -> {proc.returncode}\n" + proc.stdout)


WORKLOADS = {w.name: w for w in (GridM5, GridM3Long, Rings, CliTensor)}
