"""tworank benchmark: the command that runs one workload (or all of them).

    python3 perfbench/run.py --workload lattice|stream|tower|plane|all \
        --seed N --seconds S --trace 0|1

Runs the workload's battery of CLI commands again and again, each time in a
fresh interpreter and one process at a time, at least twice and until S
seconds have passed; checks every verdict against the workload's anchors;
and reports medians.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS, reports_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE = ROOT / ".perfbench"

SETUP_SAMPLES = 20  # set-up-only spawns per run, besides one per battery
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "groups.closure.calls": "count",
    "groups.closure.elements": "count",
    "groups.closure.self_s": "s",
    "groups.conj_class.self_s": "s",
    "groups.normal_subgroups.calls": "count",
    "groups.normal_subgroups.self_s": "s",
    "groups.quotient.self_s": "s",
    "dense.groups_built": "count",
    "dense.row_requests": "count",
    "dense.rows_built": "count",
    "dense.row_hit_ratio": "ratio",
    "dense.row.self_s": "s",
    "dense.close.calls": "count",
    "dense.close.self_s": "s",
    "lemma_a.lattice.classes": "count",
    "lemma_a.lattice_build.self_s": "s",
    "lemma_a.exhaustive.self_s": "s",
    "lemma_a.stream.candidates": "count",
    "lemma_a.stream.emitted": "count",
    "lemma_a.stream.useful_ratio": "ratio",
    "lemma_a.stream.self_s": "s",
    "lemma_a.check.calls": "count",
    "lemma_a.check.self_s": "s",
    "matgroup.structured.self_s": "s",
    "elements.mat_mul.calls": "count",
    "elements.mat_mul.per_s": "1/s",
    "gf.add_code.calls": "count",
    "gf.add_code.per_s": "1/s",
    "gf.field_make.self_s": "s",
    "plane.pg2.calls": "count",
    "plane.pg2.self_s": "s",
    "plane.conj_class_of.self_s": "s",
    "plane.check.self_s": "s",
    "tower.campaign.self_s": "s",
    "tower.identity.self_s": "s",
    "tower.build_tower.self_s": "s",
    "cli.render.self_s": "s",
    "bench.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(job):
    """Run one worker to completion, one at a time.  Returns its result
    with the spawn-to-ready set-up time and the process's peak RSS, read
    for this child alone with wait4."""
    # fixed string hashing, so set and dict order cannot differ between runs
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        text = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = text.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {job['mode']} exited {proc.returncode}:\n{text[-4000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t_spawn
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


class Checker:
    """Checks every command's output; one command is one check."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def battery(self, outputs):
        """Items verified in one battery run."""
        items = 0
        for out in outputs:
            self.attempted += 1
            argv = out["argv"]
            key = " ".join(argv)
            problems = []
            if out["error"]:
                problems.append("raised:\n" + out["error"])
            elif out["rc"] != 0:
                problems.append(f"exit code {out['rc']}")
            else:
                digest = hashlib.sha256(out["stdout"].encode()).hexdigest()
                if self.digests.setdefault(key, digest) != digest:
                    problems.append("stable output differs between runs of the same command")
                try:
                    n, missed = self.workload.check(argv, reports_of(out["stdout"]))
                    items += n
                    problems.extend(missed)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
            if problems:
                self.failures.append((key, problems))
        return items

    @property
    def failed(self):
        return len(self.failures)


def more_time(t0, runs, seconds, least):
    """Whether to start another battery: always until `least` have run,
    then while the next, if as long as the mean so far, would end at most
    half a battery after `seconds`."""
    elapsed = time.monotonic() - t0
    return runs < least or elapsed + elapsed / runs / 2 <= seconds


def measure_plain(workload, seed, seconds, checker):
    commands = workload.commands(seed)
    setups = [spawn({"mode": "setup"})["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps = []
    t0 = time.monotonic()
    while more_time(t0, len(reps), seconds, least=2):
        r = spawn({"mode": "plain", "commands": commands})
        r["items"] = checker.battery(r["outputs"])
        reps.append(r)
        setups.append(r["setup_s"])
    return {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "items_per_s": median([r["items"] / r["wall_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }, len(reps)


def layer_metrics(spans, leaf_calls, rates):
    calls, self_s, counts = spans["calls"], spans["self_s"], spans["counts"]
    m = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "calls" and stem in calls:
            m[name] = calls[stem]
        elif kind == "self_s" and stem in self_s:
            m[name] = self_s[stem]
        elif name in counts:
            m[name] = counts[name]
    requests = counts.get("dense.row_requests", 0)
    if requests:
        m["dense.row_hit_ratio"] = 1 - counts["dense.rows_built"] / requests
    offered = counts.get("lemma_a.stream.offered", 0)
    if offered:
        m["lemma_a.stream.useful_ratio"] = counts["lemma_a.stream.emitted"] / offered
    m["bench.unattributed_s"] = self_s.get("bench.run", 0.0)
    m.update(leaf_calls)
    m.update(rates)
    return m


def measure_traced(workload, seed, seconds, checker):
    """Untraced and traced runs in turn until the time is up, then one
    counting pass and the micro-timings.  Per-layer values are medians over
    the traced runs; counts repeat exactly."""
    commands = workload.commands(seed)
    STATE.mkdir(exist_ok=True)
    plain, traced = [], []
    t0 = time.monotonic()
    while more_time(t0, len(traced), seconds, least=1):
        r = spawn({"mode": "plain", "commands": commands})
        checker.battery(r["outputs"])
        plain.append(r["wall_s"])
        run_id = f"{workload.name}-{seed}-{len(traced)}"
        r = spawn({"mode": "trace", "commands": commands, "run_id": run_id,
                   "spans_out": str(STATE / f"spans-{workload.name}.tsv.gz")})
        checker.battery(r["outputs"])
        traced.append(r)
    counted = spawn({"mode": "count", "commands": commands})
    checker.battery(counted["outputs"])
    micro = spawn({"mode": "micro", "seed": seed})
    per_run = [layer_metrics(r["spans"], counted["leaf_calls"], micro["rates"]) for r in traced]
    metrics = {name: median([m[name] for m in per_run]) for name in PER_LAYER}
    metrics["trace.overhead_ratio"] = median([r["wall_s"] for r in traced]) / median(plain)
    return metrics, len(traced)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    checker = Checker(workload)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "git_sha": git_sha(), "loadavg_before": os.getloadavg(),
    }
    measure = measure_traced if trace else measure_plain
    metrics, runs = measure(workload, seed, seconds, checker)
    units = PER_LAYER if trace else END_TO_END
    record.update(
        loadavg_after=os.getloadavg(), runs=runs,
        commands=[{"argv": argv, "sha256": digest} for argv, digest in checker.digests.items()],
    )
    fail_ratio = checker.failed / checker.attempted
    print(f"workload {name}  seed {seed}  runs {runs}  checks {checker.attempted}  failed {checker.failed}")
    for key, problems in checker.failures:
        print(f"  FAILED {key}: " + "; ".join(p.splitlines()[-1] for p in problems))
    for metric, value in metrics.items():
        shown = f"{int(value):14d}" if float(value).is_integer() else f"{value:14.6g}"
        print(f"  {metric:32s} {shown} {units[metric]}")
    print(f"  {'fail_ratio':32s} {fail_ratio:14.6g} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return checker.failed == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tworank" / "cli.py").is_file():
        print(f"no tworank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        ok = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
