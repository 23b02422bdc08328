"""Verification reports and their serialization.

One report per checked claim.  A verifier makes one `Check` when it starts
and builds every report it returns through it: the Check holds the lemma
id, params and seed, and stamps each report with the whole milliseconds
elapsed from its start to the moment the report is built.

JSON schema (versioned, unknown-field tolerant on read):

    {schema: 1, lemma_id, params, verdict, witness?, counts, elapsed_ms, seed?}

Campaign output is newline-delimited JSON, one object per check.  In stable
output mode the timing field is dropped so byte-identical reruns can be
diffed.
"""

import json
import time
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

VERIFIED = "verified"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"
SKIPPED = "skipped-resource"

_VERDICTS = (VERIFIED, VIOLATED, NOT_APPLICABLE, SKIPPED)


@dataclass
class VerificationReport:
    lemma_id: str
    params: dict
    verdict: str
    counts: dict = field(default_factory=dict)
    witness: dict | None = None
    elapsed_ms: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VIOLATED and self.witness is None:
            raise ValueError("a violated report must carry a witness")

    def to_dict(self, stable=False):
        d = {
            "schema": SCHEMA_VERSION,
            "lemma_id": self.lemma_id,
            "params": self.params,
            "verdict": self.verdict,
            "counts": self.counts,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        if not stable:
            d["elapsed_ms"] = self.elapsed_ms
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            lemma_id=d["lemma_id"],
            params=d.get("params", {}),
            verdict=d["verdict"],
            counts=d.get("counts", {}),
            witness=d.get("witness"),
            elapsed_ms=d.get("elapsed_ms", 0),
            seed=d.get("seed"),
        )

    def to_json(self, stable=False):
        return json.dumps(self.to_dict(stable=stable), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def summary_line(self):
        bits = [f"{self.lemma_id}", self.verdict]
        if self.params:
            bits.insert(1, ",".join(f"{k}={v}" for k, v in sorted(self.params.items())))
        if self.counts:
            bits.append(" ".join(f"{k}={v}" for k, v in sorted(self.counts.items())))
        return "  ".join(str(b) for b in bits)


class Check:
    """One run of a verifier.  The clock starts when the Check is made;
    each report it builds carries the lemma id, params and seed given here
    and the milliseconds elapsed up to the moment the report is built."""

    def __init__(self, lemma_id, params, seed=None):
        self.lemma_id = lemma_id
        self.params = params
        self.seed = seed
        self._start = time.perf_counter()

    def report(self, verdict, counts=None, witness=None):
        elapsed_ms = int((time.perf_counter() - self._start) * 1000)
        return VerificationReport(
            self.lemma_id, self.params, verdict, {} if counts is None else counts, witness,
            elapsed_ms, self.seed,
        )

    def not_applicable(self, **counts):
        return self.report(NOT_APPLICABLE, counts)

    def skipped(self, exc):
        """The report for a run cut short by a ResourceLimitError."""
        return self.report(SKIPPED, {"partial": exc.partial or 0})

    def result(self, ok, counts, witness):
        """Verified, or violated with the witness, which is dropped when ok."""
        if ok:
            return self.report(VERIFIED, counts)
        return self.report(VIOLATED, counts, witness)


def dump_reports(reports, fh, stable=False):
    for r in reports:
        fh.write(r.to_json(stable=stable))
        fh.write("\n")


def load_reports(fh):
    out = []
    for line in fh:
        line = line.strip()
        if line:
            out.append(VerificationReport.from_json(line))
    return out


def exit_code(reports):
    """0 if everything verified/not-applicable, 1 on any violation,
    2 when resource-limited skips are present."""
    if any(r.verdict == VIOLATED for r in reports):
        return 1
    if any(r.verdict == SKIPPED for r in reports):
        return 2
    return 0
