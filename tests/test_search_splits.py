"""The width search splits each separator only inside the component being
searched, and the index keeps no components: every split the search asks
for must be the pieces of the component minus the separator that a merge
over every atom finds, so that the search sees the same substates as a
search that splits the whole query for every candidate.

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


def shape_corpus(family, sizes=(3, 8, 30)):
    for n in sizes:
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


SPLIT_CORPORA = {
    **CORPORA,
    **{f: partial(shape_corpus, f) for f in ("tree", "grid2x")},
    "clique": partial(shape_corpus, "clique", (3, 5, 7)),
}


@pytest.mark.parametrize("corpus", list(SPLIT_CORPORA))
def test_search_pieces_are_the_whole_split(monkeypatch, corpus):
    """For every state and every separator it tries, the components inside
    the state's component are the pieces of comp minus the separator that a
    merge over every atom finds, whether the one-neighbour rule or a merge
    over the atoms meeting comp found them.  A state of one variable, which
    never merges, hands over no atoms."""
    ruled = merged = 0
    components, pieces = _Index.components, _Index.pieces
    merges = []

    def counted(self, free, *atoms):
        merges.append(bool(atoms))
        return pieces(self, free, *atoms)

    def checked(self, sep, within=-1, atoms=None):
        nonlocal ruled, merged
        if atoms is None:
            return components(self, sep, within)
        if within & (within - 1):
            assert atoms == [m for m in self._merge_order if m & within]
        else:
            assert atoms == []
        merges.clear()
        out = components(self, sep, within, atoms)
        ruled += not merges
        merged += any(merges)
        assert list(out) == pieces(self, within & ~sep), sep
        return out

    monkeypatch.setattr(_Index, "pieces", counted)
    monkeypatch.setattr(_Index, "components", checked)
    SPLIT_CORPORA[corpus]()
    assert ruled > 0
    assert merged > 0 or corpus == "path"


def test_path_split_work_is_linear(monkeypatch):
    """The atoms meeting free, summed over every pieces call: the top-level
    split walks the path once, and so does the root's first candidate,
    which cuts it in two.  Below, every separator leaves its state's rest
    one neighbour, so nothing is merged; re-merging the rest at each level
    would make this about n squared."""
    n = 400
    q = util.family_query("path", n, random.Random(n))
    met = []
    pieces = _Index.pieces

    def counted(self, free, *atoms):
        met.append(sum(1 for m in self.atom_masks if m & free))
        return pieces(self, free, *atoms)

    monkeypatch.setattr(_Index, "pieces", counted)
    h = decompose(q, 1)
    assert h is not None and len(h.vertices) == n
    assert len(met) <= 2 and sum(met) <= 2 * n, met


def test_star_split_work_is_linear(monkeypatch):
    """The atoms meeting free, summed over every pieces call: the top-level
    split and the root's first candidate each walk the star once, and each
    leaf's separator has nothing left to split.  Splitting the whole query
    for each candidate would make this about n squared."""
    n = 400
    q = util.family_query("star", n, random.Random(n))
    met = []
    pieces = _Index.pieces

    def counted(self, free, *atoms):
        met.append(sum(1 for m in self.atom_masks if m & free))
        return pieces(self, free, *atoms)

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
