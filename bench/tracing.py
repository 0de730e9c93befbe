"""Layer spans for the traced run, recorded from the benchmark's side.

The package carries no instrumentation.  `Tracer.install` replaces the
public functions of each layer module (and a few named methods and private
helpers) with wrappers that time a span around the call, in every hopfore
module that holds a reference to them, and `uninstall` puts the originals
back.  Spans are aggregated in memory as they close: per name the calls,
self time and total time, and per (parent, child) edge the calls and total
time, which is what the decompose stage split needs.  A layer's self time
is its spans' durations minus the parts covered by child spans.

Field operations are counted, not timed: they run millions of times per
grid, and a timed span around each would cost more than the operation.

Coverage counts the time that a named per-layer metric accounts for: the
subtrees of the decompose stages and of the spans in COVERED_TOTAL, and
the self time of the spans in COVERED_SELF outside decompose.  The self
time of orchestration spans (`grid.run_grid`, `grid.check_pair`,
`decompose.decompose`, the CLI's own functions), of any span inside
decompose but outside its stages, and of every other span is not covered.

A name listed here that the package no longer has is reported with zero
calls and listed in `missing`; the run carries on.
"""

import importlib
import json
import sys
import time
import types

LAYERS = ("cyclotomic", "linalg", "groups", "modules", "decompose", "fusion",
          "greenring", "grid", "syntax", "cli")

# (module, attribute path, span name) timed on top of the public functions.
EXTRA_SPANS = (
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "Matrix.tensor_product", "linalg.tensor_product"),
    ("modules", "ExplicitModule.element_action", "modules.element_action"),
    ("modules", "module_nilpotent", "modules.build"),
    ("modules", "module_eigen", "modules.build"),
    ("decompose", "_count_strings", "decompose.count_strings"),
)

# (module, attribute path, counter name): counted, not timed.
COUNTED = (
    ("cyclotomic", "Cyclotomic.__mul__", "cyclotomic.mul"),
    ("cyclotomic", "Cyclotomic.__add__", "cyclotomic.add"),
    ("cyclotomic", "Cyclotomic.inverse", "cyclotomic.inverse"),
)

# Durations kept one by one, for percentiles.
SAMPLED = ("grid.check_pair",)

LINALG = ("matmul", "tensor_product", "sp_rref", "sp_kernel", "sp_preimage",
          "sp_intersect", "sp_column_echelon", "sp_trace_restrict")

# decompose's direct children, by stage; time in decompose outside them is
# reported as decompose.self_s.
STAGES = {
    "group_action": ("modules.element_action", "linalg.sp_from_matrix",
                     "linalg.sp_restrict"),
    "eigen_split": ("linalg.sp_matmul", "linalg.sp_scalar_shift",
                    "linalg.sp_kernel", "linalg.sp_preimage"),
    "strings": ("decompose.count_strings",),
    "isotypic_check": ("decompose.isotypic_multiplicities",),
}
STAGE_PARENT = "decompose.decompose"
STAGE_CHILDREN = frozenset(n for names in STAGES.values() for n in names)

# Spans whose self time a per-layer metric reports.
COVERED_SELF = frozenset(
    [f"linalg.{fn}" for fn in LINALG]
    + ["modules.build", "modules.tensor", "modules.element_action",
       "fusion.tensor_labels", "greenring.ring_mul", "syntax.parse_label"])

# Spans whose whole time a metric reports, callees included.
COVERED_TOTAL = frozenset((
    "greenring.verify_presentation", "groups.dihedral_algebra",
    "cli.startup", "cli.import", "cli.exit"))

# Coverage state of an open span, inherited by the spans it opens.
FREE, COVERED, UNSTAGED = 0, 1, 2

CHILD_MARK = "HOPFORE-BENCH-TRACE "


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self):
        self.stats = {}      # name -> [calls, self_s, total_s]
        self.edges = {}      # (parent name, name) -> [calls, total_s]
        self.samples = {name: [] for name in SAMPLED}
        self.counts = {}     # counter name -> [calls]
        self.sums = {}       # value sums taken from arguments and results
        self.missing = []
        self.covered = 0.0   # seconds a named metric accounts for
        self._stack = [["", 0.0, FREE]]
        self._on = [True]
        self._patches = []
        self._hooks = {
            "modules.tensor": self._tensor_hook,
            "decompose.decompose": self._decompose_hook,
        }

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.get(name)
        hook = self._hooks.get(name)
        on = self._on
        named_self = name in COVERED_SELF
        tracer = self

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            parent = stack[-1]
            state = parent[2]
            if state == FREE:
                if name in COVERED_TOTAL:
                    state = COVERED
                elif name == STAGE_PARENT:
                    state = UNSTAGED
            elif state == UNSTAGED and parent[0] == STAGE_PARENT \
                    and name in STAGE_CHILDREN:
                state = COVERED
            frame = [name, 0.0, state]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat[0] += 1
                own = elapsed - frame[1]
                stat[1] += own
                stat[2] += elapsed
                if state == COVERED or (state == FREE and named_self):
                    tracer.covered += own
                edge = edges.get((parent[0], name))
                if edge is None:
                    edges[(parent[0], name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])
        on = self._on

        def wrapper(*args):
            if on[0]:
                cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key, value):
        self.sums[key] = self.sums.get(key, 0) + value

    def _tensor_hook(self, args, result):
        self._add("modules.tensor_dim", result.dim)

    def _decompose_hook(self, args, result):
        # The candidate pool is {0} | provenance (decompose's docstring); a
        # candidate hits when its generalized eigenspace is nonzero.
        module = args[0]
        pool = {module.alg.zero()} | set(module.provenance)
        hits = len(result.eigenvalues_found)
        hits += any(lab.kind == "nil" for lab, _ in result.multiset)
        self._add("decompose.pool_size", len(pool))
        self._add("decompose.pool_hits", hits)

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap the layer modules, importing those not imported yet."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module("hopfore." + layer)
            except ImportError:
                self.missing.append("hopfore." + layer)
        targets = {}   # id(original) -> (original, wrapper)
        for layer, path, name in EXTRA_SPANS + COUNTED:
            mod = modules.get(layer)
            fn = _resolve(mod, path) if mod else None
            if not isinstance(fn, types.FunctionType):
                self.missing.append(f"{layer}.{path}")
                continue
            make = self._counted if (layer, path, name) in COUNTED else self._timed
            targets[id(fn)] = (fn, make(name, fn))
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or id(obj) in targets or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                targets[id(obj)] = (obj, self._timed(f"{layer}.{attr}", obj))
        self._patch(targets)

    def _patch(self, targets):
        holders = [m for n, m in list(sys.modules.items())
                   if n == "hopfore" or n.startswith("hopfore.")]
        holders += [obj for m in list(holders) for obj in vars(m).values()
                    if isinstance(obj, type) and obj.__module__.startswith("hopfore")]
        seen = set()
        for holder in holders:
            if id(holder) in seen:
                continue
            seen.add(id(holder))
            for attr, obj in list(vars(holder).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(holder, attr, hit[1])
                    self._patches.append((holder, attr, obj))

    def pause(self):
        """Stop recording; the wrappers stay in place."""
        self._on[0] = False

    def resume(self):
        self._on[0] = True

    def uninstall(self):
        for holder, attr, obj in reversed(self._patches):
            setattr(holder, attr, obj)
        self._patches.clear()

    # -- spans from other processes -------------------------------------------

    def add_span(self, name, seconds):
        """A top-level span measured elsewhere, with no child spans."""
        if name in COVERED_TOTAL or name in COVERED_SELF:
            self.covered += seconds
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        stat[2] += seconds
        edge = self.edges.setdefault(("", name), [0, 0.0])
        edge[0] += 1
        edge[1] += seconds

    def dump(self, end):
        """This tracer's aggregates as one line of text; `end` is the clock
        reading at which the process stops doing its own work."""
        return CHILD_MARK + json.dumps({
            "end": end, "stats": self.stats, "covered": self.covered,
            "edges": [[p, n, v] for (p, n), v in self.edges.items()],
            "samples": self.samples, "counts": self.counts, "sums": self.sums,
            "missing": self.missing,
        })

    def merge_child(self, stderr, end):
        """Fold in the aggregates a traced CLI child printed on stderr,
        plus its exit: the time from its last span to `end`."""
        line = next((ln for ln in reversed(stderr.splitlines())
                     if ln.startswith(CHILD_MARK)), None)
        if line is None:
            return
        data = json.loads(line[len(CHILD_MARK):])
        self.covered += data["covered"]
        for name, (calls, own, total) in data["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += own
            stat[2] += total
        for parent, name, (calls, total) in data["edges"]:
            edge = self.edges.setdefault((parent, name), [0, 0.0])
            edge[0] += calls
            edge[1] += total
        for name, values in data["samples"].items():
            self.samples.setdefault(name, []).extend(values)
        for name, (calls,) in data["counts"].items():
            self.counts.setdefault(name, [0])[0] += calls
        for key, value in data["sums"].items():
            self._add(key, value)
        for name in data["missing"]:
            if name not in self.missing:
                self.missing.append(name)
        self.add_span("cli.exit", max(0.0, end - data["end"]))
