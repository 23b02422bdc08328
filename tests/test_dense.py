"""Dense rows from one walk and the Schreier tree, against the
object-product oracle."""

import random

import pytest

from tworank import constructions as lib
from tworank.dense import DenseGroup
from tworank.elements import Perm
from tworank.groups import FiniteGroup, closure
from tworank.matgroup import gl_context_q, gl_generators
from tworank.orbit import orbit
from tworank.tower import random_identity_campaign


def assert_rows_match_oracle(D, js):
    elems, index = D.elems, D.index
    for j in js:
        g = elems[j]
        assert D.rrow(j) == [index[x * g] for x in elems], j
        assert D.lrow(j) == [index[g * x] for x in elems], j
        assert D.crow(j) == [index[(g * x) * g.inv()] for x in elems], j


def shuffled_s4():
    """S4 with its elements in a seeded order that no BFS produces."""
    S4 = lib.symmetric(4)
    elems = list(S4.elements)
    random.Random(5).shuffle(elems)
    G = FiniteGroup._from_elements(elems, S4.gens)
    assert G.elements != S4.elements and G.elements[0] != G.identity
    return G


@pytest.mark.parametrize(
    "build",
    [
        lambda: lib.symmetric(4),
        lambda: lib.direct_product(lib.symmetric(3), lib.dihedral(8)),
        shuffled_s4,
        lambda: FiniteGroup._from_elements([Perm.identity_of(3)], []),
    ],
    ids=["S4", "S3xD8", "S4-shuffled", "trivial"],
)
def test_rows_match_object_products(build):
    D = DenseGroup(build())
    assert_rows_match_oracle(D, range(D.n))


def test_rows_match_object_products_gl27_sample():
    G = closure(gl_generators(gl_context_q(2, 7)))
    D = DenseGroup(G)
    assert D.n == 2016
    assert_rows_match_oracle(D, random.Random(11).sample(range(D.n), 24))


def test_rows_match_object_products_on_tower_groups(monkeypatch):
    """Every DenseGroup the tower campaign builds, on a seeded sample of
    indices, after the campaign has used its rows."""
    real = DenseGroup.__init__
    built = []

    def recording(self, group):
        real(self, group)
        built.append(self)

    monkeypatch.setattr(DenseGroup, "__init__", recording)
    random_identity_campaign(seed=1, trials=10)
    assert len(built) >= 5 and max(D.n for D in built) > 24
    rng = random.Random(7)
    for D in built:
        assert_rows_match_oracle(D, rng.sample(range(D.n), min(D.n, 8)))


def test_build_makes_one_product_per_element_and_generator(monkeypatch):
    """The walk fills the generators' right rows; left rows take no
    object products."""
    G = lib.symmetric(4).materialize()
    real = Perm.__mul__
    products = []

    def counting(a, b):
        products.append(None)
        return real(a, b)

    monkeypatch.setattr(Perm, "__mul__", counting)
    D = DenseGroup(G)
    assert len(products) == len(G.gens) * D.n


def test_generators_short_of_the_elements_raise():
    S4 = lib.symmetric(4)
    G = FiniteGroup._from_elements(S4.elements, [Perm.from_cycles(4, (0, 1))])
    with pytest.raises(RuntimeError):
        DenseGroup(G)


# -- the Lagrange stop of close against a plain orbit ---------------------------


def plain_close(D, seeds, gen_idxs):
    """The closure with no stop: the whole orbit under the right rows."""
    return set(orbit([D.id_idx, *seeds], [D.rrow(j) for j in gen_idxs]))


def test_close_matches_plain_orbit_gl27_sample():
    G = closure(gl_generators(gl_context_q(2, 7)))
    D = DenseGroup(G)
    rng = random.Random(3)
    whole = proper = 0
    for _ in range(60):
        hgens = rng.sample(range(D.n), rng.choice((1, 1, 2)))
        H = sorted(plain_close(D, [], hgens))
        gens = hgens + [rng.randrange(D.n)]
        got = D.close(H, gens)
        assert len(got) == len(set(got))
        assert set(got) == plain_close(D, H, gens)
        whole += len(got) == D.n
        proper += len(got) < D.n
    assert whole >= 5 and proper >= 5


def test_close_matches_plain_orbit_on_tower_joins(monkeypatch):
    """Every close the tower campaign makes (normal-subgroup joins and
    spans) gives the element set of the plain orbit."""
    real = DenseGroup.close
    calls = []

    def checked(self, seeds, gen_idxs):
        got = real(self, seeds, gen_idxs)
        assert set(got) == plain_close(self, seeds, gen_idxs)
        calls.append(len(got) == self.n > 1)
        return got

    monkeypatch.setattr(DenseGroup, "close", checked)
    random_identity_campaign(seed=1, trials=10)
    assert len(calls) > 100 and any(calls)
