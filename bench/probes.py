"""Layer probes of the traced run, measured outside the workload's loop.

- field operations at the three dihedral field orders, on seeded operands;
- cold `dihedral_algebra(m)` builds for m = 3, 5, 7;
- the cold `import hopfore.cli` of a fresh interpreter.
"""

import os
import random
import statistics
import subprocess
import sys
import time

import hopfore

from workloads import SRC, clear_caches

FIELD_ORDERS = (6, 10, 14)     # Q(zeta_2m) for m = 3, 5, 7
DIHEDRAL_MS = (3, 5, 7)
OPERANDS = 48
REPEATS = 5
IMPORT_RUNS = 5


def _element(rng, order, degree):
    while True:
        coeffs = [hopfore.Rational(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(degree)]
        if any(coeffs):
            return hopfore.Cyclotomic(order, coeffs)


def _per_op_us(op, xs, ys):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for x, y in zip(xs, ys):
            op(x, y)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(xs) * 1e6


def field_ops(seed):
    """Median microseconds per mul, add and inverse at each field order."""
    rng = random.Random(seed)
    out = {}
    for order in FIELD_ORDERS:
        degree = len(hopfore.Cyclotomic.one(order).coeffs)
        xs = [_element(rng, order, degree) for _ in range(OPERANDS)]
        ys = [_element(rng, order, degree) for _ in range(OPERANDS)]
        out[f"mul.o{order}"] = _per_op_us(lambda x, y: x * y, xs, ys)
        out[f"add.o{order}"] = _per_op_us(lambda x, y: x + y, xs, ys)
        out[f"inverse.o{order}"] = _per_op_us(lambda x, y: x.inverse(), xs, ys)
    return out


def dihedral_builds():
    """Seconds for each cold `dihedral_algebra(m)`."""
    out = {}
    for m in DIHEDRAL_MS:
        clear_caches()
        t0 = time.perf_counter()
        hopfore.dihedral_algebra(m)
        out[f"m{m}"] = time.perf_counter() - t0
    return out


def cli_import_ms():
    """Median milliseconds of `import hopfore.cli` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    code = ("import time; t = time.perf_counter(); import hopfore.cli; "
            "print(time.perf_counter() - t)")
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        runs.append(float(proc.stdout.split()[-1]))
    return statistics.median(runs) * 1e3
