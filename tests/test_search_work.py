"""Work the width search leaves undone.

Separator candidates are bare variable masks; a candidate's atoms are
unranked from its index only for the vertices of the tree that is built.
A state answers its memo hits itself and yields only misses to the driver.
A candidate that has a component known to fail inside the state's
component is dropped from the state's candidate bitset before it is split,
and the search keeps no per-component cache, so a refutation's memory is
its memo, one kill bitset per variable and the index's components per
separator.
"""

import tracemalloc

import pytest

from htd import decompose, parse_query
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
