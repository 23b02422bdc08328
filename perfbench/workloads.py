"""The benchmark's workloads: the CLI commands each one runs, what counts
as an item, and the anchors every verdict must meet.

Each workload is a battery of `tworank` CLI commands run in one fresh
interpreter.  The reasons for each choice, and the inputs left out, are in
README.md next to this file.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable

STABLE = "--stable-output"

# stream: campaigns per battery and trials per campaign.  GL_2(7) keeps one
# random closure cheap, so a battery holds thousands of them and its time
# depends little on which seed drew them.
STREAM_CAMPAIGNS = 20
STREAM_TRIALS = 100

# tower: the campaign runs on one fixed seed, as in README and criterion 7;
# its cost varies too much from seed to seed to compare runs otherwise.
TOWER_SEED = 1
TOWER_TRIALS = 100

PLANE_Q = 25


@dataclass
class Workload:
    name: str
    commands: Callable  # seed -> list of argv lists
    check: Callable  # (argv, reports) -> (items, list of anchor failures)


def reports_of(text):
    """Parse one command's stdout: NDJSON reports, or one JSON document."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def verdict_failures(reports):
    """A report fails if its verdict is neither verified nor not-applicable."""
    return [
        f"{r.get('lemma_id')} {r.get('params')}: verdict {r.get('verdict')}"
        for r in reports
        if "verdict" in r and r["verdict"] not in ("verified", "not-applicable")
    ]


def expect(failures, what, ok):
    if not ok:
        failures.append(f"anchor missed: {what}")


# -- lattice -------------------------------------------------------------------

LATTICE_ANCHORS = {"subgroups": 84, "bound": 8, "max_part_at_most": 8}


def lattice_commands(seed):
    return [["verify", "lemma-a", "--n", "2", "--q", "7", "--mode", "exhaustive", STABLE]]


def lattice_check(argv, reports):
    failures = verdict_failures(reports)
    (agg,) = reports
    c = agg["counts"]
    expect(failures, f"subgroups == {LATTICE_ANCHORS['subgroups']}",
           c.get("subgroups") == LATTICE_ANCHORS["subgroups"])
    expect(failures, f"bound == {LATTICE_ANCHORS['bound']}", c.get("bound") == LATTICE_ANCHORS["bound"])
    expect(failures, f"max_part <= {LATTICE_ANCHORS['max_part_at_most']}",
           c.get("max_part", 1 << 60) <= LATTICE_ANCHORS["max_part_at_most"])
    expect(failures, "violations == 0", c.get("violations") == 0)
    expect(failures, "verdict verified", agg.get("verdict") == "verified")
    return c.get("subgroups", 0), failures


# -- stream --------------------------------------------------------------------

def stream_commands(seed):
    rng = random.Random(seed)
    return [
        ["verify", "lemma-a", "--n", "2", "--q", "7", "--mode", "random",
         "--seed", str(rng.randrange(1, 2**31)), "--trials", str(STREAM_TRIALS), STABLE]
        for _ in range(STREAM_CAMPAIGNS)
    ]


def stream_check(argv, reports):
    failures = verdict_failures(reports)
    (agg,) = reports
    c = agg["counts"]
    trials = int(argv[argv.index("--trials") + 1])
    expect(failures, "verdict verified", agg.get("verdict") == "verified")
    expect(failures, "violations == 0", c.get("violations") == 0)
    expect(failures, f"subgroups >= {trials}", c.get("subgroups", 0) >= trials)
    return c.get("subgroups", 0), failures


# -- tower ---------------------------------------------------------------------

def tower_commands(seed):
    return [["verify", "tower", "--seed", str(TOWER_SEED), "--trials", str(TOWER_TRIALS), STABLE]]


def tower_check(argv, reports):
    failures = verdict_failures(reports)
    trials = int(argv[argv.index("--trials") + 1])
    singles = [r for r in reports if r.get("lemma_id") != "identity-campaign"]
    aggs = [r for r in reports if r.get("lemma_id") == "identity-campaign"]
    expect(failures, f"{trials} reports", len(singles) == trials)
    expect(failures, "one campaign aggregate", len(aggs) == 1)
    expect(failures, "0 violated", bool(aggs) and aggs[0]["counts"].get("violated") == 0)
    return len(singles), failures


# -- plane ---------------------------------------------------------------------

def plane_commands(seed):
    return [
        ["plane", "build", "--q", str(PLANE_Q), STABLE],
        ["verify", "counting", "--q", "9", STABLE],
        ["verify", "fixtrans", STABLE],
    ]


def plane_check(argv, reports):
    failures = verdict_failures(reports)
    if argv[0] == "plane":
        (doc,) = reports
        q = int(argv[argv.index("--q") + 1])
        points = q * q + q + 1
        lines = doc.get("lines", [])
        expect(failures, f"{points} points", doc.get("num_points") == points)
        expect(failures, f"{points} lines", len(lines) == points)
        expect(failures, f"{q + 1} points on each line", all(len(l) == q + 1 for l in lines))
        return sum(len(l) for l in lines), failures
    if argv[1] == "counting":
        (rep,) = reports
        c = rep["counts"]
        expect(failures, "verdict verified", rep.get("verdict") == "verified")
        expect(failures, "ratio == 7", c.get("ratio") == 7 and c.get("expected_ratio") == 7)
        # every conjugate fixes 13 = 3^2 + 3 + 1 points, a subplane of order 3
        expect(failures, "13 fixed points per conjugate",
               c.get("double_count") == 13 * c.get("class_size", -1))
        return 0, failures
    truths = {r["counts"].get("normalizer_transitive_on_fix") for r in reports}
    expect(failures, "at least 10 fixtrans instances", len(reports) >= 10)
    expect(failures, "both truth values", truths == {0, 1})
    expect(failures, "a K with 13 fixed points",
           any(r["counts"].get("fix_size") == 13 for r in reports))
    return 0, failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lattice", lattice_commands, lattice_check),
        Workload("stream", stream_commands, stream_check),
        Workload("tower", tower_commands, tower_check),
        Workload("plane", plane_commands, plane_check),
    )
}
