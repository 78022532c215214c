"""decompose against a linear-scan reference search.

``reference_decompose`` is the plain form of the search: every state scans
the whole candidate list in order and recursion follows the tree.  The
indexed engine must return the identical vertex list (ids, parents, chi,
lambda), which holds only if it tries candidates in the same order and skips
none that could succeed.
"""

import random
from itertools import combinations

from htd import Atom, ConjunctiveQuery, X3CInstance, decompose, x3c_to_query
from htd.detect import _Index
from htd.hypertree import Hypertree, HtVertex

import util


def reference_decompose(q, k):
    idx = _Index(q)
    cands = []  # built here, not by idx.candidates, which is under test
    for size in range(1, k + 1):
        for s in combinations(idx.var_atoms, size):
            cands.append((s, idx.mask(v for i in s for v in q.body[i].variables())))
    memo = {}

    def solve(comp, var_r):
        key = (comp, var_r)
        if key not in memo:
            border = 0
            for p in idx.atoms_of(comp):
                border |= idx.atom_masks[p] & var_r
            memo[key] = None
            for s, var_s in cands:
                if not var_s & comp or border & ~var_s:
                    continue
                kids = []
                for sub in idx.components(var_s):
                    if sub & comp:
                        child = solve(sub, var_s)
                        if child is None:
                            break
                        kids.append((sub, child))
                else:
                    memo[key] = (s, kids)
                    break
        return memo[key]

    verts = []

    def build(node, comp, chi_parent, parent_id):
        s, kids = node
        var_s = 0
        for i in s:
            var_s |= idx.atom_masks[i]
        chi = var_s & (chi_parent | comp)
        vid = len(verts)
        lam = frozenset(i for i in s if idx.atom_masks[i] & chi)
        verts.append(HtVertex(vid, parent_id, idx.unmask(chi), lam))
        for sub, child in kids:
            build(child, sub, chi, vid)

    witnesses = [(comp, solve(comp, 0)) for comp in idx.components(0)]
    if any(w is None for _, w in witnesses):
        return None
    for comp, w in witnesses:
        build(w, comp, 0, 0 if verts else None)
    return Hypertree(verts)


def same(q, k):
    got, want = decompose(q, k), reference_decompose(q, k)
    if want is None:
        return got is None
    return got is not None and list(got) == list(want)


def test_identical_on_random_queries():
    for seed in range(400):
        rng = random.Random(seed)
        q = util.rand_query(
            rng,
            max_atoms=rng.choice([4, 6, 8]),
            max_vars=rng.choice([5, 7, 9]),
            max_arity=rng.choice([2, 3, 4]),
        )
        if not any(a.variables() for a in q.body):
            continue
        for k in (1, 2, 3, 4):
            assert same(q, k), (seed, k, str(q))


def test_identical_on_shuffled_reduction_queries():
    q0 = x3c_to_query(X3CInstance(tuple("abc"), (frozenset("abc"),)))
    for seed in range(3):
        body = list(q0.body)
        random.Random(seed).shuffle(body)
        q = ConjunctiveQuery(
            q0.head,
            tuple(Atom(a.relation, a.args, i) for i, a in enumerate(body)),
        )
        assert same(q, 3) and same(q, 4), seed


def test_identical_on_families():
    """The shapes where one separator is split within several components
    in turn, each at a few sizes."""
    for family in sorted(util.FAMILIES):
        rng = random.Random(family)
        for n in (3, 5, 8, 12, 20):
            if family == "clique" and n > 8:
                continue
            q = util.family_query(family, n, rng, ground=1)
            for k in (1, 2):
                assert same(q, k), (family, n, k, str(q))
