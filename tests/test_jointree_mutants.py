"""hd_to_jointree on seeded width-1 decompositions with extra vertices.

The search's width-1 witnesses have one vertex per atom, so they never make
hd_to_jointree group an extra vertex.  Here each witness, completed or not,
is mutated by edge splits, repeating leaves, a new root and shuffled ids.
Every valid, complete mutant must give a valid join tree with each atom
once; any other mutant must raise InvalidDecompositionError.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from htd import decompose
from htd.errors import InvalidDecompositionError
from htd.hypertree import (
    Hypertree,
    HtVertex,
    complete_hd,
    hd_to_jointree,
    is_complete,
    validate_hd,
    validate_jointree,
)

import util


def part(rng, labels):
    """A random subset of labels, all of them about half the time."""
    if rng.random() < 0.5:
        return labels
    return frozenset(x for x in sorted(labels) if rng.random() < 0.6)


def mutate(rng, verts):
    """verts with one vertex added, or with its ids shuffled."""
    by_id = {v.id: v for v in verts}
    new = max(by_id) + 1
    op = rng.randrange(4)
    if op == 0:  # split the edge above v: chi from both ends, lam from one
        below = [v for v in verts if v.parent is not None]
        if not below:
            return verts
        v = rng.choice(below)
        p = by_id[v.parent]
        lam = rng.choice([v.lam, p.lam])
        w = HtVertex(new, p.id, part(rng, v.chi & p.chi), lam)
        return [replace(v, parent=new) if u is v else u for u in verts] + [w]
    if op == 1:  # a leaf repeating part of its parent's labels
        v = rng.choice(verts)
        chi = part(rng, v.chi)
        lam = v.lam if chi or rng.random() < 0.8 else frozenset()
        return verts + [HtVertex(new, v.id, chi, lam)]
    if op == 2:  # a new root above the old one
        (r,) = [v for v in verts if v.parent is None]
        w = HtVertex(new, None, part(rng, r.chi), r.lam)
        if rng.random() < 0.2:
            w = HtVertex(new, None, frozenset(), frozenset())
        return [replace(r, parent=new) if v is r else v for v in verts] + [w]
    ids = sorted(by_id)
    to = dict(zip(ids, rng.sample(ids, len(ids))))
    return [replace(v, id=to[v.id], parent=to.get(v.parent)) for v in verts]


def check_seed(seed):
    rng = random.Random(seed)
    q = util.rand_query(
        rng,
        max_atoms=rng.choice([2, 4, 6]),
        max_vars=rng.choice([3, 5, 7]),
        max_arity=rng.choice([2, 3]),
    )
    seen = Counter()
    h = decompose(q, 1)
    if h is None or len(h) == 0:
        return seen
    if rng.random() < 0.8:
        h = complete_hd(q, h)
    for _ in range(2):
        verts = list(h)
        for _ in range(rng.randint(1, 4)):
            verts = mutate(rng, verts)
        t = Hypertree(verts)
        valid = validate_hd(q, t).valid
        if valid and is_complete(q, t):
            jt = hd_to_jointree(q, t)
            assert validate_jointree(q, jt).valid, verts
            assert sorted(v.atom for v in jt) == list(range(len(q.body))), verts
            seen["join trees"] += 1
            seen["extra vertices"] += len(t) - len(q.body)
        else:
            with pytest.raises(InvalidDecompositionError) as e:
                hd_to_jointree(q, t)
            if valid:
                assert str(e.value) == "decomposition is not complete"
                seen["incomplete"] += 1
            else:
                assert str(e.value).startswith("not a valid hypertree decomposition")
                seen["invalid"] += 1
    return seen


def test_mutants_give_valid_jointrees():
    seen = Counter()
    for seed in range(3000):
        seen += check_seed(seed)
    assert seen["join trees"] > 3000 and seen["extra vertices"] > 5000
    assert seen["incomplete"] > 200 and seen["invalid"] > 1000


@pytest.mark.slow
def test_mutants_give_valid_jointrees_larger_corpus():
    seen = Counter()
    for seed in range(3000, 30000):
        seen += check_seed(seed)
    assert seen["join trees"] > 10000
