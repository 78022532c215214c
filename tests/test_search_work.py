"""Work the width search leaves undone.

Separator candidates are bare variable masks; a candidate's atoms are
unranked from its index only for the vertices of the tree that is built.
A state answers its memo hits itself and yields only misses to the driver.
A candidate that has a component known to fail inside the state's
component is dropped from the state's candidate bitset before it is split,
and the search keeps no per-component cache, so a refutation's memory is
its memo, one kill bitset per variable and the index's components per
separator.  ``hypertree_width`` searches no k=1 on a cyclic query, and its
k steps share one index.
"""

import random
import tracemalloc

import pytest

from htd import decompose, hypertree_width, is_acyclic, parse_query
from htd import detect
from htd.components import _Index

import util


@pytest.fixture
def unranked(monkeypatch):
    """The candidate indices unranked while the test runs."""
    calls = []
    candidate_atoms = _Index.candidate_atoms

    def counted(self, p):
        calls.append(p)
        return candidate_atoms(self, p)

    monkeypatch.setattr(_Index, "candidate_atoms", counted)
    return calls


@pytest.fixture
def searches(monkeypatch):
    """Every _Search the library builds while the test runs; each asserts
    that no key it yields is in its memo already."""
    made = []

    class Checked(detect._Search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def _state(self, comp):
            state = super()._state(comp)
            w = None
            while True:
                try:
                    key = state.send(w)
                except StopIteration as done:
                    return done.value
                assert key not in self.memo, key
                w = yield key

    monkeypatch.setattr(detect, "_Search", Checked)
    return made


@pytest.fixture
def splits(monkeypatch, searches):
    """The number of tries that reach the split step: each asks the
    index's cache for its separator's components within the state's
    component once; a candidate that the kill sets drop makes no try.  The
    searches are still recorded and checked by ``searches``."""
    calls = [0]
    components = _Index.components

    def counted(self, sep, *within):
        calls[0] += bool(within)
        return components(self, sep, *within)

    monkeypatch.setattr(_Index, "components", counted)
    return calls


def test_dead_masks_bound_the_tries(searches, splits):
    """A try that passes the kill sets either solves its state or fails on
    a component that no kill set held yet.  Here the refutation splits
    5,227 times, once per distinct separator, against 5,228 states; with
    per-separator dead masks in place of the kill sets it split 5,449
    times, and with neither 66,556 times."""
    assert decompose(util.reduction_query(), 3) is None  # no exact cover
    (search,) = searches
    assert splits[0] > 0
    cached = search.idx._comps
    assert splits[0] <= len(cached) + len(search.memo), (
        splits[0],
        len(cached),
        len(search.memo),
    )


def grid_query(n):
    """The n x n grid graph, one binary atom per edge, row by row."""
    atoms = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                atoms.append(f"e(X{r}_{c}, X{r}_{c + 1})")
            if r + 1 < n:
                atoms.append(f"e(X{r}_{c}, X{r + 1}_{c})")
    return parse_query("ans <- " + ", ".join(atoms) + ".")


@pytest.mark.slow
def test_grid_refutation_memory():
    """decompose(grid_6x6, 3) refutes within 50 MB of traced allocations.
    A cache of the candidates meeting each component held a 36,050-bit
    bitset for each of the 33,000 components visited: about 150 MB."""
    q = grid_query(6)
    assert len(q.body) == 60
    tracemalloc.start()
    try:
        assert decompose(q, 3) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, peak


def test_unranking_only_for_the_tree(unranked, searches):
    q = util.reduction_query()
    assert decompose(q, 3) is None  # no exact cover
    assert unranked == []
    h = decompose(q, 4)
    assert h is not None
    assert len(searches) == 2
    found = sum(w is not None for w in searches[1].memo.values())
    assert 0 < len(unranked) <= found, (len(unranked), found)
    assert len(unranked) == len(h.vertices)
    assert any(p >= len(_Index(q).var_atoms) for p in unranked)


@pytest.fixture
def indexes(monkeypatch):
    """The number of _Index objects built while the test runs."""
    made = [0]
    init = _Index.__init__

    def counted(self, q):
        made[0] += 1
        init(self, q)

    monkeypatch.setattr(_Index, "__init__", counted)
    return made


@pytest.mark.parametrize(
    "family, n, width", [("cycle", 40, 2), ("grid2x", 16, 2), ("clique", 5, 3)]
)
def test_hypertree_width_skips_k1_on_cyclic_queries(searches, indexes, family, n, width):
    """The acyclicity test refutes k=1, so a search runs for each k from 2
    on, every one with pairs of atoms among its candidates, on one index."""
    q = util.family_query(family, n, random.Random(n))
    k, h = hypertree_width(q)
    assert k == width == h.width()
    assert indexes[0] == 1
    assert len(searches) == width - 1
    for search in searches:
        assert search.idx is searches[0].idx
        assert len(search.cands) > len(search.idx.var_atoms)


def test_hypertree_width_one_on_a_long_cycle(searches, indexes):
    q = util.family_query("cycle", 2000, random.Random(2000))
    assert hypertree_width(q, 1) is None
    assert searches == []
    assert indexes[0] == 1


def test_acyclic_queries_search_k1_on_one_index(searches, indexes):
    """One search at k=1, on the index the acyclicity test read; is_acyclic
    searches only when the test passes."""
    for family in ("path", "star", "tree"):
        q = util.family_query(family, 30, random.Random(family))
        assert hypertree_width(q)[0] == 1
        (search,) = searches
        assert len(search.cands) == len(q.body)
        assert indexes[0] == 1
        assert is_acyclic(q) is not None
        assert len(searches) == 2
        searches.clear()
        indexes[0] = 0
    assert is_acyclic(util.family_query("cycle", 30, random.Random(30))) is None
    assert searches == [] and indexes[0] == 1


def witness_corpus():
    """Family members, cyclic ones of width up to 4 among them, and a
    seeded rand_query corpus."""
    rng = random.Random(31)
    for family, sizes in (
        ("path", (1, 10, 40)),
        ("star", (1, 10, 40)),
        ("tree", (10, 40)),
        ("cycle", (3, 4, 10, 40)),
        ("grid2x", (2, 5, 16)),
        ("clique", (3, 4, 5, 6, 7)),
    ):
        for n in sizes:
            yield util.family_query(family, n, rng, ground=n % 2)
    for seed in range(1000):
        rng = random.Random(seed)
        yield util.rand_query(
            rng,
            max_atoms=rng.choice([4, 7]),
            max_vars=rng.choice([5, 8]),
            max_arity=rng.choice([2, 3]),
        )


def test_hypertree_width_witness_is_decompose_witness():
    """The k steps of one call share an index, and with it the component
    cache: the witness must still be decompose's, vertex for vertex."""
    widths = set()
    for q in witness_corpus():
        k, h = hypertree_width(q)
        widths.add(k)
        assert k == 1 or decompose(q, k - 1) is None, q
        assert list(h.vertices.values()) == list(decompose(q, k).vertices.values()), q
    assert widths >= {1, 2, 3, 4}
