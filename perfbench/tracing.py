"""Spans and counters around tworank's public entry points, installed from
outside the package by replacing module and class attributes.

A span records name, start, end, parent span and run id.  Spans are kept in
flat arrays while the workload runs and written out when it ends.  A span's
self time is its duration minus the time its child spans cover; the root
span (one per `cli.run` call) has the self time nobody else claimed.
"""

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

ROOT = "bench.run"

# (span name, module, attribute path).  Several entry points may share one
# span name; every module attribute bound to the same function object (the
# `from ... import` re-exports) is replaced too.
SPANS = [
    ("groups.closure", "tworank.groups", "closure"),
    ("groups.conj_class", "tworank.groups", "FiniteGroup.conj_class"),
    ("groups.normal_subgroups", "tworank.groups", "FiniteGroup.normal_subgroups"),
    ("groups.quotient", "tworank.groups", "FiniteGroup.quotient"),
    ("dense.row", "tworank.dense", "DenseGroup.rrow"),
    ("dense.row", "tworank.dense", "DenseGroup.lrow"),
    ("dense.close", "tworank.dense", "DenseGroup.close"),
    ("lemma_a.lattice_build", "tworank.lemma_a", "SubgroupLattice.build"),
    ("lemma_a.exhaustive", "tworank.lemma_a", "exhaustive_campaign"),
    ("lemma_a.stream", "tworank.lemma_a", "random_stream_campaign"),
    ("lemma_a.check", "tworank.lemma_a", "lemma_a_check"),
    ("matgroup.structured", "tworank.matgroup", "sylow2_gl"),
    ("matgroup.structured", "tworank.matgroup", "borel_subgroup"),
    ("matgroup.structured", "tworank.matgroup", "monomial_subgroup"),
    ("matgroup.structured", "tworank.matgroup", "singer_normalizer"),
    ("gf.field_make", "tworank.gf", "field_make"),
    ("plane.pg2", "tworank.plane", "pg2"),
    ("plane.conj_class_of", "tworank.plane", "PlaneGroup.conj_class_of"),
    ("plane.check", "tworank.plane", "counting_identity_check"),
    ("plane.check", "tworank.plane", "fixpoint_transitivity_check"),
    ("tower.campaign", "tworank.tower", "random_identity_campaign"),
    ("tower.identity", "tworank.tower", "verify_oddnormal"),
    ("tower.identity", "tworank.tower", "verify_sylow_fusion"),
    ("tower.identity", "tworank.tower", "verify_tower_identity"),
    ("tower.build_tower", "tworank.tower", "build_tower"),
    ("cli.render", "tworank.cli", "_render_reports"),
]

# Leaf operations, counted in a pass of their own: wrapping millions of
# calls would inflate the self time of the spans above them.
LEAVES = [
    ("elements.mat_mul", "tworank.elements", "Mat.__mul__"),
    ("gf.add_code", "tworank.gf", "FieldSpec.add_code"),
]


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _patch(module, path, make_wrapper):
    """Replace the function at module.path, and every other tworank module
    attribute bound to the same object, with make_wrapper(original)."""
    owner, attr = _resolve(module, path)
    original = getattr(owner, attr)
    wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(owner, attr, wrapper)
    if owner is sys.modules[module]:
        for name, mod in list(sys.modules.items()):
            if name.startswith("tworank") and mod is not None and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self._dense = []  # keeps DenseGroups alive so their ids stay unique
        self._rows = set()

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn, after=None):
        nid = self._name_id(name)
        stack, start, end, names, parent = self._stack, self.start, self.end, self.name, self.parent
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters taken at span boundaries ------------------------------------

    def _closure_done(self, args, group):
        self.counts["groups.closure.elements"] += group.order

    def _dense_built(self, fn):
        def wrapper(D, *args, **kwargs):
            fn(D, *args, **kwargs)
            self._dense.append(D)
            self.counts["dense.groups_built"] += 1
        return wrapper

    def _row_done(self, side):
        rows, counts = self._rows, self.counts

        def after(args, row):
            counts["dense.row_requests"] += 1
            key = (id(args[0]), side, args[1])
            if key not in rows:
                rows.add(key)
                counts["dense.rows_built"] += 1
        return after

    def _lattice_done(self, args, classes):
        self.counts["lemma_a.lattice.classes"] += len(classes)

    def _stream_done(self, args, result):
        stats = result[1]
        self.counts["lemma_a.stream.candidates"] += stats.candidates
        self.counts["lemma_a.stream.emitted"] += stats.emitted
        self.counts["lemma_a.stream.offered"] += stats.emitted + stats.duplicates + stats.truncated

    def install(self):
        after = {
            "closure": self._closure_done,
            "DenseGroup.rrow": self._row_done("r"),
            "DenseGroup.lrow": self._row_done("l"),
            "SubgroupLattice.build": self._lattice_done,
            "random_stream_campaign": self._stream_done,
        }
        for name, module, path in SPANS:
            hook = after.get(path)
            _patch(module, path, lambda fn, name=name, hook=hook: self.span(name, fn, hook))
        _patch("tworank.dense", "DenseGroup.__init__", self._dense_built)
        self._name_id(ROOT)

    def root(self, fn):
        return self.span(ROOT, fn)

    # -- results --------------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path):
        """All spans as tab-separated lines: run id, span id, parent, name,
        start and end (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run_id}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def install_leaf_counters():
    """Count calls of the leaf operations; returns metric name -> callable
    giving the count so far."""
    totals = {}
    for name, module, path in LEAVES:
        box = [0]

        def make(fn, box=box):
            def wrapper(*args):
                box[0] += 1
                return fn(*args)
            return wrapper

        _patch(module, path, make)
        totals[f"{name}.calls"] = lambda box=box: box[0]
    return totals
