"""The width search splits each separator only inside the component being
searched, and caches per separator the components found so far.

``_Search._splits[var_s] = (known, comps)`` must always hold exactly the
[var_s]-components inside ``known``, in the order ``_Index.components``
gives, so that the search sees the same substates as a search that splits
the whole query for every candidate.

A state is its component alone: every memo key is a component of its
border, the variables outside it on the atoms that meet it.
``_Search._killed[x]`` must hold exactly the candidates that have as a
component some failed memo key whose least variable bit is x.
"""

import random
from functools import partial

import pytest

from htd import X3CInstance, decompose, x3c_to_query
from htd import detect
from htd.components import _Index
from htd.hypertree import validate_hd

import util


@pytest.fixture
def searches(monkeypatch):
    """Every _Search the library builds while the test runs."""
    made = []

    class Recorded(detect._Search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(detect, "_Search", Recorded)
    return made


def assert_splits_are_components(search):
    idx = search.idx
    for var_s, (known, comps) in search._splits.items():
        union = 0
        for c in comps:
            union |= c
        assert known == var_s | union, var_s
        assert comps == [c for c in idx.components(var_s) if not c & ~known], var_s


def assert_memo_keys_are_components(search):
    idx = search.idx
    for comp in search.memo:
        border = 0
        for m in idx.atom_masks:
            if m & comp:
                border |= m
        border &= ~comp
        assert comp in idx.components(border), comp


def assert_kill_sets_are_failed_components(search):
    idx = search.idx
    failed = {c for c, w in search.memo.items() if w is None}
    want = {}
    for p, var_s in enumerate(search.cands):
        for c in idx.components(var_s):
            if c in failed:
                x = c & -c
                want[x] = want.get(x, 0) | 1 << p
    assert {x: b for x, b in search._killed.items() if b} == want


def test_split_cache_on_random_queries(searches):
    for seed in range(150):
        rng = random.Random(seed)
        q = util.rand_query(
            rng,
            max_atoms=rng.choice([4, 6, 8]),
            max_vars=rng.choice([5, 7, 9]),
            max_arity=rng.choice([2, 3, 4]),
        )
        for k in (1, 2, 3):
            decompose(q, k)
    assert any(s._splits for s in searches)
    for search in searches:
        assert_splits_are_components(search)


def test_split_cache_on_reduction_query(searches):
    inst = X3CInstance(
        ("g1", "g2", "g3", "g4", "g5", "g6"),
        (frozenset({"g1", "g2", "g3"}), frozenset({"g1", "g4", "g5"})),
    )
    q = x3c_to_query(inst)
    assert decompose(q, 3) is None  # no exact cover
    assert decompose(q, 4) is not None
    assert len(searches) == 2
    for search in searches:
        assert search._splits
        assert_splits_are_components(search)


@pytest.mark.parametrize("family", ["star", "path", "cycle"])
def test_split_cache_on_shapes(searches, family):
    for n in (3, 8, 30):
        q = util.family_query(family, n, random.Random(n), ground=1)
        for k in (1, 2):
            decompose(q, k)
    for search in searches:
        assert_splits_are_components(search)


def random_corpus():
    for seed in range(150):
        rng = random.Random(seed)
        q = util.rand_query(
            rng,
            max_atoms=rng.choice([4, 6, 8]),
            max_vars=rng.choice([5, 7, 9]),
            max_arity=rng.choice([2, 3, 4]),
        )
        for k in (1, 2, 3):
            decompose(q, k)


def reduction_corpus():
    inst = X3CInstance(
        ("g1", "g2", "g3", "g4", "g5", "g6"),
        (frozenset({"g1", "g2", "g3"}), frozenset({"g1", "g4", "g5"})),
    )
    q = x3c_to_query(inst)
    assert decompose(q, 3) is None  # no exact cover
    assert decompose(q, 4) is not None


def shape_corpus(family):
    for n in (3, 8, 30):
        q = util.family_query(family, n, random.Random(n), ground=1)
        for k in (1, 2):
            decompose(q, k)


CORPORA = {
    "random": random_corpus,
    "reduction": reduction_corpus,
    **{f: partial(shape_corpus, f) for f in ("star", "path", "cycle")},
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_memo_keys_and_dead_masks(searches, corpus):
    """Every memo key is a component of its border, and the kill sets hold
    exactly the candidates that the failed keys rule out."""
    CORPORA[corpus]()
    assert searches
    for search in searches:
        assert_memo_keys_are_components(search)
        assert_kill_sets_are_failed_components(search)
    if corpus not in ("star", "path"):  # acyclic: no k fails
        assert any(s._killed for s in searches)


def test_star_split_work_is_linear(monkeypatch):
    """The atoms meeting free, summed over every pieces call: the top-level
    split and the root's first candidate each walk the star once, and each
    leaf's separator has nothing left to split.  Splitting the whole query
    for each candidate would make this about n squared."""
    n = 400
    q = util.family_query("star", n, random.Random(n))
    met = []
    pieces = _Index.pieces

    def counted(self, free):
        met.append(sum(1 for m in self.atom_masks if m & free))
        return pieces(self, free)

    monkeypatch.setattr(_Index, "pieces", counted)
    h = decompose(q, 1)
    assert h is not None and h.width() == 1
    assert sum(met) <= 3 * n, sum(met)


@pytest.mark.slow
@pytest.mark.parametrize("family", ["star", "tree"])
def test_decompose_large_acyclic(family):
    """No timing bound is set."""
    q = util.family_query(family, 2000, random.Random(2000))
    h = decompose(q, 1)
    assert h is not None and h.width() == 1
    assert validate_hd(q, h).valid
