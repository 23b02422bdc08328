"""Acceptance criteria, one test per criterion.

Each criterion asserts its exact expected values and its stated wall-clock
budget, and prints a single pass/fail line (run with -s or look at the
captured output).  Budgets are generous on current hardware; every check
is exact integer arithmetic, no tolerances.
"""

import time

import pytest

from tworank import constructions as lib
from tworank.groups import classify_quaternion_structure, is_generalized_quaternion
from tworank.matgroup import (
    sylow2_gl,
    verify_sylowtwoingln,
    wreath_involution_count,
)
from tworank.partarith import geom_sum, gl_order_two_part

from oracles import sylow2_group, two_rank


class Criterion:
    def __init__(self, number, budget_s):
        self.number = number
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if elapsed < self.budget else "OVER-BUDGET"
        print(f"ACCEPTANCE {self.number:02d} [{status}] {elapsed:.2f}s/"
              f"{self.budget:.0f}s  {detail}")
        assert elapsed < self.budget, f"criterion {self.number} exceeded its budget"


def test_criterion_01_sylow2_gl2_7():
    c = Criterion(1, 1.0)
    desc = sylow2_gl(2, 7)
    assert desc.order == 32
    assert desc.census_total == 9
    c.done("Sylow-2 of GL_2(7): order 32, 9 involutions")


def test_criterion_02_sylow2_gl2_31():
    c = Criterion(2, 5.0)
    desc = sylow2_gl(2, 31)
    assert desc.order == 128
    assert desc.census_total == 33
    assert desc.census_central == 1
    c.done("Sylow-2 of GL_2(31): order 128, 33 involutions, 1 central")


def test_criterion_03_statement3_censuses():
    c = Criterion(3, 10.0)
    for q in (7, 19, 31):
        r = verify_sylowtwoingln(3, 2, q)
        assert r.verdict == "verified", (q, r.counts)
        assert r.counts["involutions"] <= q + 2
        assert r.counts["non_central"] <= q + 1
    c.done("statement 3 censuses for q in {7, 19, 31}")


def test_criterion_04_statement1_arithmetic():
    c = Criterion(4, 1.0)
    checked = 0
    for q in (19, 31):
        for n in range(3, 7):
            if (q, n) == (31, 4):
                continue
            assert gl_order_two_part(n, q) < geom_sum(q, n), (n, q)
            r = verify_sylowtwoingln(1, n, q)
            assert r.verdict == "verified", (n, q)
            checked += 1
    assert checked == 7
    c.done("statement 1 arithmetic for q in {19, 31}, 3 <= n <= 6")


def test_criterion_05_statement2_census():
    c = Criterion(5, 60.0)
    r = verify_sylowtwoingln(2, 4, 31)
    assert r.verdict == "verified"
    assert r.counts["sylow2_order"] == 32768
    assert r.counts["involutions"] == 1283
    assert r.counts["involutions"] < 30784 == geom_sum(31, 4)
    c.done(f"Sylow-2 of GL_4(31): exactly {r.counts['involutions']} involutions < 30784")


def test_criterion_06_gl4_7_census_and_oracle():
    c = Criterion(6, 10.0)
    desc = sylow2_gl(4, 7)
    assert desc.order == 2048
    assert desc.census_total == 131
    assert wreath_involution_count(9, 32) == (9 + 1) ** 2 - 1 + 32 == 131
    assert desc.census_total == wreath_involution_count(9, 32)
    assert desc.census_total < geom_sum(7, 4) == 400
    c.done("Sylow-2 of GL_4(7): order 2048, 131 involutions = wreath formula < 400")


def test_criterion_07_identity_campaign():
    c = Criterion(7, 120.0)
    from tworank.tower import random_identity_campaign

    agg, reports = random_identity_campaign(seed=1, trials=200)
    assert agg.verdict == "verified"
    assert agg.counts["violated"] == 0
    assert len(reports) == 200
    c.done(
        f"200 seeded identity instances: {agg.counts['verified']} verified, "
        f"{agg.counts['not-applicable']} not-applicable, 0 failures"
    )


def test_criterion_08_counting_identity_pg9():
    c = Criterion(8, 60.0)
    from tworank.acceptance_instances import counting_battery

    reports = counting_battery(q=9)
    ratio_report, baer_report = reports
    assert ratio_report.verdict == "verified"
    assert ratio_report.counts["ratio"] == 7 == 3 * 3 - 3 + 1
    assert baer_report.verdict == "verified"
    assert baer_report.counts["fixed_points"] == 13
    assert baer_report.counts["subplane_order"] == 3
    c.done("PG(2,9) counting ratio 7; Baer fixed structure = 13-point subplane of order 3")


def test_criterion_09_fixpoint_transitivity():
    c = Criterion(9, 120.0)
    from tworank.acceptance_instances import fixtrans_battery

    reports = fixtrans_battery()
    assert len(reports) >= 10
    assert all(r.verdict == "verified" for r in reports)
    sides = {
        (r.counts["normalizer_transitive_on_fix"], r.counts["fusion_equal"])
        for r in reports
    }
    assert (1, 1) in sides and (0, 0) in sides
    c.done(f"{len(reports)} instances, equivalence holds, both truth values exercised")


def test_criterion_10_lemma_a_exhaustive_gl2_7():
    c = Criterion(10, 600.0)
    from tworank.lemma_a import lemma_a_campaign

    rep, verdicts = lemma_a_campaign(2, 7, mode="exhaustive")
    assert rep.verdict == "verified"
    assert rep.counts["violations"] == 0
    assert rep.counts["bound"] == 8
    even = [v for v in verdicts if v.verdict != "odd-order-skip"]
    assert all(v.verdict == "satisfied" for v in even)
    assert all(v.index_part <= 8 for v in even)
    # base-case ceiling: the observed worst part is at most q + 1
    assert rep.counts["max_part"] <= 7 + 1
    assert rep.counts["base_case_ceiling_q_plus_1"] == 1
    c.done(
        f"{rep.counts['subgroups']} subgroup classes of GL_2(7), all even-order "
        f"classes satisfied, max part {rep.counts['max_part']} <= 8"
    )


@pytest.mark.parametrize("n,q", [(2, 13), (3, 7)])
def test_criterion_11_lemma_a_random(n, q):
    c = Criterion(11, 600.0)
    from tworank.lemma_a import lemma_a_campaign

    rep, verdicts = lemma_a_campaign(n, q, mode="random", seed=1, trials=1000)
    assert rep.verdict == "verified"
    assert rep.counts["violations"] == 0
    assert rep.counts["subgroups"] >= 1000
    c.done(
        f"GL_{n}({q}) random campaign: {rep.counts['subgroups']} subgroups, "
        f"0 violations, bound {rep.counts['bound']}"
    )


def test_criterion_12_two_rank_characterization():
    c = Criterion(12, 10.0)
    family = [
        lib.cyclic(2), lib.cyclic(4), lib.cyclic(8), lib.cyclic(16),
        lib.dihedral(8), lib.dihedral(16), lib.dihedral(32),
        lib.generalized_quaternion(8), lib.generalized_quaternion(16),
        lib.generalized_quaternion(32),
        sylow2_group(sylow2_gl(2, 7)),          # semidihedral of order 32
        lib.elementary_abelian_two(3),        # V_4 x C_2
        lib.sl2(7).sylow_p(2),
    ]
    for H in family:
        P = H.sylow_p(2)
        rank_one = two_rank(H) == 1
        cyclic_or_quaternion = P.is_cyclic() or (
            P.order >= 8 and is_generalized_quaternion(P)
        )
        assert rank_one == cyclic_or_quaternion, H
    c.done(f"2-rank = 1 iff cyclic or generalized quaternion, {len(family)} groups")


def test_criterion_13_structure_recognition_and_odd_witness():
    c = Criterion(13, 60.0)
    tag, _ = classify_quaternion_structure(lib.generalized_quaternion(16))
    assert tag == "TwoGroup"
    tag, info = classify_quaternion_structure(lib.sl2(7))
    assert tag == "SL2qD" and info["q"] == 7 and info["d"] == 1
    from tworank.acceptance_instances import singer_normalizer_group
    from tworank.plane import odd_transitive_search

    SN = singer_normalizer_group(9)
    witness, rep = odd_transitive_search(SN)
    assert rep.verdict == "verified"
    assert witness is not None
    assert witness.order % 2 == 1 and 273 % witness.order == 0
    c.done(
        f"Q_16 -> TwoGroup, SL_2(7) -> SL2qD; odd transitive witness of order "
        f"{witness.order} | 273"
    )


def test_criterion_14_sn_bound_harness():
    c = Criterion(14, 60.0)
    from tworank.acceptance_instances import sn_bound_battery

    reports = sn_bound_battery()
    applicable = [r for r in reports if r.verdict != "not-applicable"]
    assert len(applicable) >= 10
    assert all(r.verdict == "verified" for r in applicable)
    degrees = {r.params["degree"] for r in applicable}
    assert max(degrees) <= 13
    kinds = {r.params["kind"] for r in applicable}
    assert kinds == {"oddsn", "sninvolutions"}
    c.done(f"{len(applicable)} primitive groups of degree <= 13, both bound kinds hold")
