"""One workload process: imports tworank from the checkout's src/, runs a
battery of CLI commands through tworank.cli.run, and prints one JSON line.

    python3 perfbench/worker.py '<json job>'

The job's "mode" is one of
    setup   import tworank and stop (a set-up time sample)
    plain   run the battery untraced
    trace   run it with spans around the public entry points
    count   run it with call counters on the leaf operations
    micro   time Mat.__mul__ and FieldSpec.add_code in a loop
The parent times the spawn; the result carries the moment tworank was
ready, so set-up time is measured across the process boundary on the
monotonic clock both processes share.
"""

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Modules whose attributes the traced run replaces; all are imported before
# patching so every re-exported name is found.
TRACED_MODULES = (
    "tworank.acceptance_instances", "tworank.constructions", "tworank.dense",
    "tworank.elements", "tworank.gf", "tworank.groups", "tworank.lemma_a",
    "tworank.matgroup", "tworank.plane", "tworank.tower",
)


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_battery(run, commands):
    """Run each argv through cli.run; time from the first call until the
    last verdict is written."""
    outputs = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = run(argv)
        except Exception:
            error = traceback.format_exc()
        outputs.append({"argv": argv, "rc": rc, "stdout": out.getvalue(), "error": error})
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": _cpu_seconds() - cpu0, "outputs": outputs}


def _micro(seed):
    """Operations per second of 2x2 products over GF(13) and of additions
    in GF(49), median of three timed loops over seeded operands."""
    import random

    from tworank.elements import Mat
    from tworank.gf import field_make

    rng = random.Random(seed)
    f13, f49 = field_make(13), field_make(7, 2)
    mats = []
    while len(mats) < 64:
        vals = [rng.randrange(13) for _ in range(4)]
        if (vals[0] * vals[3] - vals[1] * vals[2]) % 13:
            mats.append(Mat(f13, 2, vals))
    pairs = [(rng.choice(mats), rng.choice(mats)) for _ in range(2000)]
    codes = [(rng.randrange(49), rng.randrange(49)) for _ in range(2000)]
    add = f49.add_code

    def rate(loop):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            n = loop()
            times.append(n / (time.perf_counter() - t0))
        return sorted(times)[1]

    def mat_loop():
        for _ in range(50):
            for a, b in pairs:
                a * b
        return 50 * len(pairs)

    def add_loop():
        for _ in range(100):
            for x, y in codes:
                add(x, y)
        return 100 * len(codes)

    return {"elements.mat_mul.per_s": rate(mat_loop), "gf.add_code.per_s": rate(add_loop)}


def main(job):
    sys.path.insert(0, str(SRC))
    import tworank.cli

    if not Path(tworank.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tworank imported from {tworank.cli.__file__}, not from {SRC}")
    result = {"ready": time.monotonic()}
    mode = job["mode"]
    if mode == "setup":
        return result
    if mode == "micro":
        result["rates"] = _micro(job["seed"])
        return result
    run = tworank.cli.run
    tracer = leaves = None
    if mode in ("trace", "count"):
        for name in TRACED_MODULES:
            __import__(name)
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
        run = tracer.root(run)
    elif mode == "count":
        from tracing import install_leaf_counters

        leaves = install_leaf_counters()
    result.update(run_battery(run, job["commands"]))
    if tracer is not None:
        calls, self_s = tracer.self_times()
        result["spans"] = {"calls": calls, "self_s": self_s, "counts": tracer.counts}
        tracer.write(job["spans_out"])
    if leaves is not None:
        result["leaf_calls"] = {name: get() for name, get in leaves.items()}
    return result


if __name__ == "__main__":
    out = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    os._exit(0)
