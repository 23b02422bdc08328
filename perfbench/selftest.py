"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, with the seeded
campaigns cut to a few trials, and checks that every end-to-end and
per-layer metric of BENCHMARK.json is printed with its unit and that no
check fails.  Then it breaks one anchor on purpose and checks that
fail_ratio turns nonzero and the exit code nonzero, so the gate can fail.
Takes about two minutes; exits 0 when all of this holds.
"""

import contextlib
import io
import json
import re
import sys

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def printed(lines):
    """metric -> (value, unit) from the human-readable block."""
    shown = {}
    for line in lines:
        m = re.fullmatch(r"  (\S+) +(\S+) (\S+)", line)
        if m:
            shown[m.group(1)] = (float(m.group(2)), m.group(3))
    return shown


def main():
    workloads.STREAM_CAMPAIGNS = 1
    workloads.STREAM_TRIALS = 8
    workloads.TOWER_TRIALS = 3
    problems = []
    wanted = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for name in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            code, lines = invoke(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
            result = json.loads(lines[-1])
            label = f"{name} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, result {result}")
            in_json = {m: v["unit"] for m, v in result["metrics"].items()}
            if in_json != wanted[trace]:
                problems.append(f"{label}: JSON metrics {in_json} != {wanted[trace]}")
            shown = printed(lines)
            for metric, unit in {**wanted[trace], "fail_ratio": "ratio"}.items():
                if shown.get(metric, (0, None))[1] != unit:
                    problems.append(f"{label}: {metric} not printed with unit {unit}")
            print(f"ok {label}", file=sys.stderr)

    workloads.LATTICE_ANCHORS["subgroups"] = 85
    code, lines = invoke(["--workload", "lattice", "--seconds", "0"])
    result = json.loads(lines[-1])
    fail_ratio = printed(lines)["fail_ratio"][0]
    if code == 0 or result["correct"] or result["failed"] == 0 or fail_ratio == 0:
        problems.append(f"a wrong anchor passed: exit {code}, fail_ratio {fail_ratio}, result {result}")
    else:
        print("ok wrong anchor fails the run", file=sys.stderr)

    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
