"""The width search splits each separator only inside the component being
searched, and the index caches per separator the components found so far.

``_Index._comps[sep] = (known, comps)`` must always hold exactly the
[sep]-components inside ``known``, by least bit, and ``known`` must be sep
and their variables (every bit, once the whole query is split), so that the
search sees the same substates as a search that splits the whole query for
every candidate.

A state is its component alone: every memo key is a component of its
border, the variables outside it on the atoms that meet it.
``_Search._killed[x]`` must hold exactly the candidates that have as a
component some failed memo key whose least variable bit is x.
"""

import random
from functools import partial

import pytest

from htd import decompose
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
    """Check each entry of the index's cache against a split of the
    complement that bypasses the cache, and return the separators split
    only inside some of their components.

    Run it before the helpers below: they ask the same index for whole
    splits, which fill the cache it checks."""
    idx = search.idx
    all_vars = (1 << len(idx.vars)) - 1
    partial_entries = []
    for sep, (known, comps) in idx._comps.items():
        union = 0
        for c in comps:
            union |= c
        assert known & all_vars == sep | union, sep
        whole = idx.pieces(all_vars & ~sep)
        assert comps == tuple(c for c in whole if not c & ~known), sep
        if known & all_vars != all_vars:
            partial_entries.append(sep)
    return partial_entries


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
    q = util.reduction_query()
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


def test_split_cache_on_random_queries(searches):
    random_corpus()
    assert any([assert_splits_are_components(s) for s in searches])


def test_split_cache_on_reduction_query(searches):
    reduction_corpus()
    assert len(searches) == 2
    for search in searches:
        assert assert_splits_are_components(search)


@pytest.mark.parametrize("family", ["star", "path", "cycle"])
def test_split_cache_on_shapes(searches, family):
    shape_corpus(family)
    partial_seps = [sep for s in searches for sep in assert_splits_are_components(s)]
    # a star's root separator splits the whole query, and each leaf's
    # separator finds nothing left to split in its leaf
    assert partial_seps or family == "star"


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_memo_keys_and_dead_masks(searches, corpus):
    """Every memo key is a component of its border, and the kill sets hold
    exactly the candidates that the failed keys rule out."""
    CORPORA[corpus]()
    assert searches
    for search in searches:
        assert_splits_are_components(search)
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
