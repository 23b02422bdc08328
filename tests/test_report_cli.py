import csv
import io
import itertools
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from tworank import constructions as lib
from tworank import report
from tworank.cli import COMMANDS, run
from tworank.groups import closure
from tworank.lemma_a import lemma_a_campaign, sn_bound_check
from tworank.matgroup import verify_sylowtwoingln
from tworank.plane import (
    PlaneGroup,
    counting_identity_check,
    fixpoint_transitivity_check,
    frobenius_collineation,
    gl3_collineation_generators,
    odd_transitive_search,
    pg2,
)
from tworank.report import (
    NOT_APPLICABLE,
    SKIPPED,
    VERIFIED,
    VIOLATED,
    VerificationReport,
    dump_reports,
    exit_code,
    load_reports,
)
from tworank.tower import (
    build_tower,
    random_identity_campaign,
    verify_oddnormal,
    verify_sylow_fusion,
    verify_tower_identity,
)

S3 = lib.symmetric(3)


def make(verdict, **kw):
    return VerificationReport("demo", {"x": 1}, verdict, **kw)


def test_report_roundtrip():
    r = VerificationReport(
        "sylow2-gl.3", {"n": 2, "q": 7}, VERIFIED,
        counts={"involutions": 9}, elapsed_ms=12, seed=3,
    )
    back = VerificationReport.from_json(r.to_json())
    assert back == r
    d = r.to_dict()
    assert d["schema"] == 1 and d["lemma_id"] == "sylow2-gl.3"


def test_reader_tolerates_unknown_fields():
    d = json.loads(make(VERIFIED).to_json())
    d["future_field"] = {"a": 1}
    r = VerificationReport.from_dict(d)
    assert r.verdict == VERIFIED


def test_violated_requires_witness():
    with pytest.raises(ValueError):
        make(VIOLATED)
    r = make(VIOLATED, witness={"g": "x"})
    assert r.witness == {"g": "x"}


def test_stable_output_drops_timing():
    r = make(VERIFIED, elapsed_ms=500)
    assert "elapsed_ms" not in r.to_dict(stable=True)
    assert r.to_dict(stable=True) == make(VERIFIED, elapsed_ms=7).to_dict(stable=True)


def test_exit_codes():
    assert exit_code([make(VERIFIED), make(NOT_APPLICABLE)]) == 0
    assert exit_code([make(VERIFIED), make(VIOLATED, witness={})]) == 1
    assert exit_code([make(VERIFIED), make(SKIPPED)]) == 2


def test_dump_and_load_reports():
    buf = io.StringIO()
    reports = [make(VERIFIED), make(SKIPPED)]
    dump_reports(reports, buf)
    buf.seek(0)
    assert load_reports(buf) == reports


def test_cli_sylow2_statement3(capsys):
    code = run(["verify", "sylow2", "--n", "2", "--q", "7", "--statement", "3",
                "--stable-output"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["counts"]["involutions"] == 9
    assert payload["verdict"] == "verified"


def test_cli_sylow2_all_statements(capsys):
    code = run(["verify", "sylow2", "--n", "2", "--q", "7", "--stable-output"])
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 0
    assert len(lines) == 5
    verdicts = {l["params"]["statement"]: l["verdict"] for l in lines}
    assert verdicts[3] == "verified"
    assert verdicts[1] == "not-applicable"  # q = 7 excluded from statement 1


def test_cli_stable_output_is_deterministic(capsys):
    run(["verify", "tower", "--seed", "5", "--trials", "6", "--stable-output"])
    first = capsys.readouterr().out
    run(["verify", "tower", "--seed", "5", "--trials", "6", "--stable-output"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_census_csv(tmp_path, capsys):
    out = tmp_path / "census.csv"
    code = run(["census", "sylow2", "--n", "2", "--q", "7", "--format", "csv",
                "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "n,q,construction,order,involutions,central,bound,verdict"
    assert rows[1] == "2,7,Presentation4q1,32,9,1,9,within-bound"


def test_cli_plane_build(tmp_path):
    out = tmp_path / "plane.json"
    code = run(["plane", "build", "--q", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["num_points"] == 13
    code = run(["plane", "build", "--q", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 13


def test_cli_report_merge(tmp_path, capsys):
    p1 = tmp_path / "a.ndjson"
    p2 = tmp_path / "b.ndjson"
    with open(p1, "w") as fh:
        dump_reports([make(VERIFIED)], fh)
    with open(p2, "w") as fh:
        dump_reports([make(SKIPPED)], fh)
    merged = tmp_path / "merged.ndjson"
    code = run(["report", "merge", str(p1), str(p2), "--out", str(merged)])
    assert code == 2  # skip present
    with open(merged) as fh:
        assert len(load_reports(fh)) == 2


def test_cli_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["verify", "--help"]) == 0
    assert "fixtrans" in capsys.readouterr().out


def test_cli_usage_errors():
    assert run(["frobnicate"]) == 3
    assert run(["verify"]) == 3  # a missing subcommand, in every group
    assert run(["census"]) == 3
    assert run(["verify", "sylow2", "--n", "2"]) == 3  # missing --q
    assert run(["verify", "fixtrans", "--q", "25"]) == 3  # fixtrans takes no --q
    assert run(["verify", "fixtrans", "--q", "9"]) == 3
    assert run(["verify", "tower", "--cap", "5"]) == 3  # --cap only where a cap is read
    # a bad --q or --n is a usage error, not a violation (exit 1)
    for argv in (
        "verify counting --q 7",  # not a square
        "verify counting --q 6",
        "plane build --q 6",
        "verify lemma-a --n 2 --q 6",
        "verify lemma-a --n 0 --q 7",
        "census sylow2 --n 2 --q 8",  # even q
        "verify tower --trials 0",
        "verify lemma-a --n 2 --q 7 --mode random --trials -5",
        "verify lemma-a --n 2 --q 7 --mode random --trials 0",
        "verify lemma-a --n 2 --q 7 --mode random --trials 5 --cap 0",
        "verify lemma-a --n 2 --q 7 --mode random --trials 5 --cap -3",
        "verify sylow2 --n 2 --q 7 --cap 0",
        # exports render json and csv only
        "plane build --q 3 --format md",
        "census sylow2 --n 2 --q 7 --format md",
    ):
        assert run(argv.split()) == 3, argv


# a cheap input for every subcommand; report merge reads the file the test
# writes in place of {reports}
CHEAP_ARGS = {
    "verify sylow2": "--n 2 --q 7 --statement 3",
    "verify tower": "--seed 1 --trials 5",
    "verify counting": "--q 9",
    "verify fixtrans": "",
    "verify lemma-a": "--n 2 --q 7 --mode random --seed 1 --trials 5",
    "verify sn-bounds": "",
    "verify quaternion": "",
    "census sylow2": "--n 2 --q 7",
    "plane build": "--q 3",
    "report merge": "{reports}",
}
FORMAT_RUNS = [(command, fmt) for command, (_, formats, _) in COMMANDS.items() for fmt in formats]


@pytest.mark.parametrize("command, fmt", FORMAT_RUNS, ids=[f"{c} {f}" for c, f in FORMAT_RUNS])
def test_cli_renders_each_declared_format(command, fmt, tmp_path, capsys):
    reports = tmp_path / "reports.ndjson"
    with open(reports, "w") as fh:
        dump_reports([make(VERIFIED), make(NOT_APPLICABLE)], fh)
    argv = f"{command} {CHEAP_ARGS[command]}".format(reports=reports).split()
    assert run(argv + ["--format", fmt, "--stable-output"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    if fmt == "json":
        assert all(isinstance(json.loads(line), dict) for line in lines)
    elif fmt == "csv":
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[0])
        rows = list(csv.reader(lines))
        assert len({len(row) for row in rows}) == 1 and len(rows[0]) > 1
        if command != "plane build":  # the incidence matrix has no header
            assert not any(field.isdigit() for field in rows[0])
    else:
        assert all(line.startswith("|") for line in lines) and lines[1] == "|---|---|---|"


def test_cli_markdown_format(capsys):
    code = run(["verify", "sylow2", "--n", "2", "--q", "7", "--statement", "3",
                "--format", "md", "--stable-output"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("|") and "sylow2-gl.3" in out


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tworank.cli", "verify", "sylow2", "--n", "2",
         "--q", "7", "--statement", "3", "--stable-output"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert '"verdict": "verified"' in proc.stdout


def test_cli_census_cap_in_gl2_torus_case(capsys):
    # n = 2, q = 3 mod 4: the Sylow 2-subgroup of order 32 closes over --cap 3
    code = run(["census", "sylow2", "--n", "2", "--q", "7", "--cap", "3", "--stable-output"])
    (line,) = capsys.readouterr().out.splitlines()
    assert code == 2
    assert json.loads(line)["verdict"] == SKIPPED


def test_cli_sylow2_statement3_honours_cap(capsys):
    # the 2x2 group of statement 3 has order 32 and closes over --cap 3
    code = run(["verify", "sylow2", "--n", "2", "--q", "7", "--statement", "3",
                "--cap", "3", "--stable-output"])
    (line,) = capsys.readouterr().out.splitlines()
    assert code == 2
    assert json.loads(line)["verdict"] == SKIPPED


def test_cli_import_loads_no_engine_module():
    """Importing the CLI, as the benchmark's set-up time does, loads only
    the modules it needs to parse arguments and write reports."""
    probe = ("import json, sys, tworank.cli; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tworank'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, check=True)
    assert json.loads(proc.stdout) == [
        "tworank", "tworank.cli", "tworank.errors", "tworank.report",
    ]


def test_cli_resource_cap_exit_code(capsys):
    code = run(["verify", "sylow2", "--n", "4", "--q", "31", "--statement", "2",
                "--cap", "100", "--stable-output"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out.strip())["verdict"] == "skipped-resource"


# GF(q) is capped at 2^16 elements: every command that needs a field above
# the cap stops at once with a skipped-resource report; statement 1 of
# sylow2 is a formula in n and q and builds no field.
FIELD_CAP_RUNS = [
    ("verify sylow2 --n 2 --q 1048583 --statement 3", 2, SKIPPED),
    ("verify lemma-a --n 2 --q 1048583", 2, SKIPPED),
    ("plane build --q 1048583", 2, SKIPPED),
    ("verify sylow2 --n 2 --q 65539 --statement 3", 2, SKIPPED),
    ("verify lemma-a --n 2 --q 65539 --mode random --trials 3", 2, SKIPPED),
    ("verify counting --q 66049", 2, SKIPPED),  # 257^2
    ("verify sylow2 --n 3 --q 65539 --statement 1", 0, VERIFIED),
]


@pytest.mark.parametrize("argv, code, verdict", FIELD_CAP_RUNS, ids=[a for a, _, _ in FIELD_CAP_RUNS])
def test_cli_field_above_cap(argv, code, verdict, capsys):
    assert run(argv.split() + ["--stable-output"]) == code
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["verdict"] == verdict


def test_cli_lemma_a_random_csv(tmp_path, capsys):
    out = tmp_path / "verdicts.csv"
    code = run(["verify", "lemma-a", "--n", "2", "--q", "7", "--mode", "random",
                "--trials", "5", "--seed", "2", "--format", "csv",
                "--out", str(out), "--stable-output"])
    capsys.readouterr()
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "order,involutions,best_index,part,bound,verdict"
    assert len(rows) >= 6
    assert all(r.endswith(("satisfied", "odd-order-skip")) for r in rows[1:])


def test_cli_jobs_flag(capsys):
    code = run(["verify", "sylow2", "--n", "2", "--q", "7", "--jobs", "2",
                "--stable-output"])
    assert code == 3  # the flag is gone
    assert capsys.readouterr().out == ""


@pytest.fixture
def ticking_clock(monkeypatch):
    """report.time.perf_counter advances one second per reading, so a
    report's elapsed_ms is nonzero whenever its Check reads the clock at the
    start and again when the report is built."""
    ticks = itertools.count()
    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))


def test_elapsed_ms_on_skipped_sylow2_report(ticking_clock):
    from tworank.matgroup import verify_sylowtwoingln

    r = verify_sylowtwoingln(2, 4, 31, cap=100)
    assert r.verdict == SKIPPED
    assert r.elapsed_ms == 1000


def test_elapsed_ms_on_odd_transitive_report(ticking_clock):
    from oracles import singer_collineation
    from tworank.plane import PlaneGroup, odd_transitive_search, pg2

    P = pg2(3)
    _, rep = odd_transitive_search(PlaneGroup(P, [singer_collineation(P)]))
    assert rep.verdict == VERIFIED
    assert rep.elapsed_ms == 1000



def _intransitive_pg9():
    P = pg2(9)
    fr = frobenius_collineation(P)
    return PlaneGroup(P, [fr]), fr


def _counting_membership_over_cap():
    # fr lies in G: the transvection t commutes with it, so (fr t)^3 = fr.
    # No generator is an involution, so the class walk cannot show it, and
    # testing its membership closes G, which stops at the cap
    P = pg2(9)
    fr = frobenius_collineation(P)
    gens = gl3_collineation_generators(P)
    G = PlaneGroup(P, gens + [fr * gens[1]], cap=10)
    assert not any((g * g).is_identity() for g in G.gens)
    return counting_identity_check(G, fr)


def _fixtrans_over_cap():
    P = pg2(3)
    G = PlaneGroup(P, gl3_collineation_generators(P), cap=10)
    return fixpoint_transitivity_check(G, closure([G.gens[0]]))


def _tower_no_applicable_involution():
    _, reports = random_identity_campaign(1, 30)
    return reports[26]


def _tower_all_odd():
    H = lib.direct_product(lib.cyclic(3), lib.cyclic(3))
    return verify_tower_identity(build_tower(H, 2), H.identity)


@pytest.mark.parametrize(
    "make_report, verdict",
    [
        pytest.param(lambda: lemma_a_campaign(2, 13, mode="exhaustive")[0], SKIPPED,
                     id="lemma-a-over-cap"),
        pytest.param(lambda: lemma_a_campaign(2, 11, "random", trials=5)[0], NOT_APPLICABLE,
                     id="lemma-a-hypothesis"),
        pytest.param(lambda: sn_bound_check("oddsn", lib.symmetric(4)), NOT_APPLICABLE,
                     id="sn-bounds-even-order"),
        pytest.param(lambda: sn_bound_check("sninvolutions", lib.cyclic(4)), NOT_APPLICABLE,
                     id="sn-bounds-imprimitive"),
        pytest.param(lambda: counting_identity_check(*_intransitive_pg9()), NOT_APPLICABLE,
                     id="counting-intransitive"),
        pytest.param(lambda: odd_transitive_search(_intransitive_pg9()[0])[1], NOT_APPLICABLE,
                     id="odd-transitive-intransitive"),
        pytest.param(lambda: odd_transitive_search(lib.symmetric(4))[1], NOT_APPLICABLE,
                     id="odd-transitive-lattice-no"),
        pytest.param(_counting_membership_over_cap, SKIPPED, id="counting-membership-over-cap"),
        pytest.param(_fixtrans_over_cap, SKIPPED, id="fixtrans-over-cap"),
        pytest.param(
            lambda: odd_transitive_search(
                PlaneGroup(pg2(3), gl3_collineation_generators(pg2(3)), cap=10))[1],
            SKIPPED, id="odd-transitive-over-cap"),
        pytest.param(lambda: verify_sylowtwoingln(1, 2, 7), NOT_APPLICABLE,
                     id="sylow2-side-conditions"),
        pytest.param(lambda: verify_oddnormal(S3, S3, S3.identity), NOT_APPLICABLE,
                     id="odd-normal-identity"),
        pytest.param(lambda: verify_sylow_fusion(S3, S3, S3.identity), NOT_APPLICABLE,
                     id="sylow-fusion-identity"),
        pytest.param(_tower_all_odd, NOT_APPLICABLE, id="tower-all-odd"),
        pytest.param(_tower_no_applicable_involution, NOT_APPLICABLE,
                     id="tower-no-applicable-involution"),
    ],
)
def test_elapsed_ms_on_early_return(ticking_clock, make_report, verdict):
    """Early-return reports carry the time from their Check's start."""
    r = make_report()
    assert r.verdict == verdict
    assert r.elapsed_ms > 0


def test_check_result_keeps_witness_only_on_violation():
    check = report.Check("demo", {"x": 1}, seed=4)
    ok = check.result(True, {"n": 1}, {"why": "kept only on violation"})
    bad = check.result(False, {"n": 1}, {"why": "kept only on violation"})
    assert (ok.verdict, ok.witness, ok.seed) == (VERIFIED, None, 4)
    assert (bad.verdict, bad.witness) == (VIOLATED, {"why": "kept only on violation"})
