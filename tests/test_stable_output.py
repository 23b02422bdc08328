"""Byte-for-byte pins on the stable output of the cheap CLI batteries.

Each digest is the sha256 of the command's stdout under --stable-output.
A refactor that keeps behaviour leaves every digest as it is; a change
that means to alter output updates the digest and says why.
"""

import hashlib
import json
import sys

import pytest

from tworank.cli import run

DIGESTS = [
    ("verify sylow2 --n 2 --q 7", "3d16b7b0406bd24b933dc177a2c4c427831096dd674454573db1b0dc0f1de021"),
    # OddSplit: the 2x2 wreath blocks plus a -1 on the last coordinate
    ("verify sylow2 --n 3 --q 7", "99d3220530b0454c9fddeb1f387d2d1f4a0f2ec76e4cd5d0554514ad2ee0d182"),
    ("verify sn-bounds", "a3509adbde42cb82e99acf36f32703a9a2320f127208d6ad92c998788828197e"),
    # was 04c8b674...: the odd-transitive report dropped its "seed": 0 when
    # the witness became an exact decision with nothing random left
    ("verify quaternion", "348403547a2bb0bf4d22152273d0f7f7610758d03ede59de9eb2cf36a6a815c5"),
    ("verify fixtrans", "116f2e6ab2e8399c62416b7ef3b863aa1337daf64c6633313c626f0796291262"),
    ("verify counting --q 9", "e66c6d8f237c1a79ef1679060a03f6330d687b09eb27df5a38bfc4ef607019e8"),
    ("census sylow2 --n 4 --q 7", "01f17dab7348f8965d355a5665f41a37c047865f7af764122bc36e2a954f12fd"),
    # DiagonalWreath: the 2-part of the diagonal torus wreathed by S_4's Sylow 2
    ("census sylow2 --n 4 --q 5", "1f423b59820973f7c25c3cf969e807e3aea3eba5c5a26efa5198230572b15626"),
    # det, inv and the Frobenius twist over an extension field with a > 2
    ("census sylow2 --n 2 --q 27", "077f25b93bb8c4c595abdfc9f4b5dbcf0760e0f6161cf1e77c84a2639cd92b75"),
    # the census bound in both cases: q + 2 inclusive, the geometric sum strict
    ("census sylow2 --n 2 --q 7 --format csv",
     "b439b457d55a2454fffa2e872a1ea754e05165800e4411229df2f306ee435733"),
    ("census sylow2 --n 4 --q 7 --format csv",
     "8bce468b4ad48db7b5a39d933b3eaf22824b8dfffabd459d647b439fdb2d5613"),
    ("plane build --q 9", "ddc403a5970136d5ebb39349208e52dea6bd70a5582c1a5bac992dd418643413"),
    ("plane build --q 25", "026a2248e0054f530a486fba4bb27e6170f36086c8c85d13b6276f077cdd9d23"),
    # the incidence matrix, one row per line
    ("plane build --q 9 --format csv", "1bc80c498e7e222d1c83ec2b8db0527460002453b511c1c39dc8139b00425c44"),
    ("verify lemma-a --n 2 --q 7 --mode exhaustive",
     "42f8705ef9cf50c084f7832f1258f6e61ceb19a638f3a41b2d2d1b875ea3bcde"),
    ("verify lemma-a --n 2 --q 7 --mode random --seed 1 --trials 100",
     "16798f3e65db08c1fb21693cd17461d8f10c5045e5287e3a459de3b384e8a4fa"),
    ("verify lemma-a --n 2 --q 13 --mode random --seed 1 --trials 40",
     "b40be4214b30470aec9a16458e899eee54daf9ead081ab828a3324d818c9e97b"),
    ("verify lemma-a --n 2 --q 7 --mode random --seed 3 --trials 100 --cap 1500",
     "8cf6e7dc3ae0e7e7f559f1da9f23ca8bd0f79e12d816e608e498c679dda03bd0"),
    ("verify lemma-a --n 2 --q 13 --mode random --seed 1 --trials 40 --cap 20000",
     "859986c33ac2246a176f7c64488277ad94882363ba5277cc25e8889da503094a"),
    ("verify lemma-a --n 2 --q 7 --mode random --seed 1 --trials 100 --cap 400",
     "bb62ed088cc76441c0c4714bf036100e6c638f8c34d523a4be02b2c0b5243873"),
    ("verify lemma-a --n 2 --q 19 --mode random --seed 1 --trials 20",
     "540a290f3321190f9dcd629d9be2f4483e2fe790d8f00967725f99ac690d008e"),
    ("verify lemma-a --n 3 --q 7 --mode random --seed 2 --trials 20",
     "b712cf95359e75c61f9a32d75702b598026bf9fe9bf0d8cdd19f41a0a76e1f08"),
    ("verify tower --seed 1 --trials 30", "9e9742d42921f29e0b01bbc70676c5aa8e0cdc8346b185462fe4855582a87113"),
    ("verify tower --seed 1 --trials 100", "2ace15f08d3445701941da27a535ac570ee6859e95fe5ddff5387d676485c4b3"),
    ("verify tower --seed 3 --trials 40", "6d4d152ec99a138e1c36577ee4653ea1edd56d93a1d2fb82711aad7e060f7eec"),
    # the one pinned tower battery whose quotient indices reach 6 and 36
    ("verify tower --seed 7 --trials 100", "a08dba7ef48545718a99735b97b5dcef59307c79d064fe5d9e020f1f32935fe9"),
]


@pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_stable_output_digest(command, digest, capsys):
    code = run(command.split() + ["--stable-output"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sn_bounds_runs_without_mpmath(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert run(["verify", "sn-bounds", "--stable-output"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == dict(DIGESTS)["verify sn-bounds"]


# the Baer class of PG(2, 25): 409,500 conjugates, 19,500 of them fixing
# point 0; pinned apart from DIGESTS so the command runs once
COUNTING_Q25 = ("verify counting --q 25", "8d18052648c4344b12e81d1402a2d56384406a4052b68f5ddb7d12730e085444")


def test_counting_q25_digest_and_counts(capsys):
    command, digest = COUNTING_Q25
    assert run(command.split() + ["--stable-output"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    counts = json.loads(out)["counts"]
    assert counts["ratio"] == 21
    assert counts["class_size"] == 409_500


# one row per lattice class, in discovery order; pinned apart from DIGESTS
# so the command runs once.  The digest was fcd86d2a... until the lattice
# extended each class only by prime-power elements whose p-th power lies in
# it: that moved the discovery order, not the rows, whose sorted lines
# still hash to the last value
EXHAUSTIVE_CSV = (
    "verify lemma-a --n 2 --q 7 --mode exhaustive --format csv",
    "8861cb866696665dfcb752adc396ae7e857a8ef41b294d8c9fc47111209040ec",
    "966d749dc3a3b70d804e02493f9701d164e5f12fe81ef6dba00a0c710d8da0d0",
)


def test_exhaustive_csv_digest_and_sorted_rows(capsys):
    command, digest, sorted_digest = EXHAUSTIVE_CSV
    assert run(command.split() + ["--stable-output"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    rows = "".join(sorted(out.splitlines(keepends=True)))
    assert hashlib.sha256(rows.encode()).hexdigest() == sorted_digest
