import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from htd import decompose, gyo_acyclic, parse_query
from htd.components import (
    _Index,
    atoms_of_component,
    component_of,
    v_adjacent,
    v_components,
)

import util


def members(q, v):
    return {c.members for c in v_components(q, v)}


def test_adjacency_triangle(triangle):
    assert v_adjacent(triangle, {"Y"}, "X", "Z")
    assert not v_adjacent(triangle, {"Z", "X"}, "X", "Y")
    assert v_adjacent(triangle, set(), "X", "X")


def test_adjacency_unknown_variable(triangle):
    with pytest.raises(ValueError):
        v_adjacent(triangle, set(), "X", "Q9")


def test_adjacency_q1(q1):
    # S and A never share an atom
    assert not v_adjacent(q1, set(), "S", "A")


def test_components_triangle(triangle):
    assert members(triangle, {"Y"}) == {frozenset("XZ")}
    assert members(triangle, set()) == {frozenset("XYZ")}
    assert members(triangle, set("XYZ")) == set()


def test_components_q5_root_separator(q5):
    a_vars = q5.body[0].variables()
    b_vars = q5.body[1].variables()
    got = members(q5, a_vars | b_vars)
    # the three leftover variables are pairwise separated
    assert got == {frozenset({"Z"}), frozenset({"Z'"}), frozenset({"J"})}


def test_absorbed_variables_have_no_component():
    q = parse_query("ans <- r(X,Y), s(Y).")
    # Y occurs only inside V-contained atoms once X,Y separated
    assert members(q, {"X", "Y"}) == set()


def test_atoms_of_component(triangle):
    (c,) = v_components(triangle, {"Y"})
    assert {a.index for a in atoms_of_component(triangle, c)} == {0, 1, 2}


def test_component_of(triangle):
    c = component_of(triangle, {"Y"}, "X")
    assert c is not None and "Z" in c
    assert component_of(triangle, {"Y"}, "Y") is None


def test_component_of_unknown_variable(triangle):
    # the same error as v_adjacent, also when the name is in V
    for v in (set(), {"Q9"}):
        with pytest.raises(ValueError, match="unknown variable Q9"):
            component_of(triangle, v, "Q9")


def test_representative_is_least(q1):
    for c in v_components(q1, set()):
        assert c.representative == min(c.members)


def brute_components(q, v):
    """All-pairs path search over the adjacency relation."""
    vset = frozenset(v)
    edges = [a.variables() - vset for a in q.body]
    nodes = sorted({x for e in edges for x in e})
    reach = {x: {x} for x in nodes}
    changed = True
    while changed:
        changed = False
        for e in edges:
            for x in nodes:
                if x in e and not e <= reach[x]:
                    reach[x] |= e
                    changed = True
    comps = set()
    for x in nodes:
        closure = set(reach[x])
        grew = True
        while grew:
            grew = False
            for y in list(closure):
                if not reach[y] <= closure:
                    closure |= reach[y]
                    grew = True
        comps.add(frozenset(closure))
    return comps


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_components_match_path_search_oracle(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng, max_atoms=5, max_vars=8)
    vs = sorted(q.variables())
    v = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
    assert members(q, v) == brute_components(q, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_partition_and_atom_assignment(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng)
    vs = sorted(q.variables())
    v = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
    comps = v_components(q, v)
    seen = set()
    for c in comps:
        assert c.members
        assert not c.members & v
        assert not c.members & seen
        seen |= c.members
    for a in q.body:
        if a.variables() - v:
            holders = [c for c in comps if a in atoms_of_component(q, c)]
            assert len(holders) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_monotone_refinement(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng)
    vs = sorted(q.variables())
    v = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
    v2 = v | frozenset(rng.sample(vs, rng.randint(0, len(vs))))
    coarse = members(q, v)
    for fine in members(q, v2):
        assert any(fine <= c for c in coarse)


def bfs_components(q, idx, sep):
    """[V]-components by definition, for V the variables of sep: x and y are
    adjacent when some atom holds both outside V; breadth-first search over
    variable names, started at each unvisited variable in sorted order, so
    the components come out by least variable, as masks of idx."""
    v = idx.unmask(sep)
    adj = {}
    for a in q.body:
        rest = a.variables() - v
        for x in rest:
            adj.setdefault(x, set()).update(rest)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for x in queue:
            for y in adj[x] - seen:
                seen.add(y)
                queue.append(y)
        comps.append(idx.mask(queue))
    return tuple(comps)


def test_index_components_match_bfs():
    """The merge order inside _Index must not change what components()
    returns, order included."""
    for seed in range(300):
        rng = random.Random(seed)
        q = util.rand_query(
            rng,
            max_atoms=rng.choice([4, 8, 12]),
            max_vars=rng.choice([6, 10, 14]),
            max_arity=rng.choice([2, 3, 4]),
        )
        idx = _Index(q)
        seps = {0, (1 << len(idx.vars)) - 1}
        seps.update(rng.getrandbits(len(idx.vars)) for _ in range(10))
        seps.update(idx.candidates(2))
        for sep in seps:
            assert idx.components(sep) == bfs_components(q, idx, sep), (seed, sep)


@pytest.mark.parametrize("family", sorted(util.FAMILIES))
def test_index_components_on_families(family):
    rng = random.Random(family)
    for n in (3, 8, 20):
        q = util.family_query(family, n, rng, ground=1)
        idx = _Index(q)
        for sep in idx.candidates(2 if family != "clique" else 1):
            assert idx.components(sep) == bfs_components(q, idx, sep)


def test_index_on_5000_atom_path():
    """Building the merge order takes one pass; no timing bound is set."""
    q = util.family_query("path", 5000, random.Random(5000))
    idx = _Index(q)
    assert len(idx.components(0)) == 1
    middle = next(m for m in idx.atom_masks if idx.unmask(m) >= {"V2500"})
    assert idx.components(middle) == bfs_components(q, idx, middle)


def test_pieces_match_bfs():
    """pieces(free) on the complement of a separator gives its components;
    on a union of some of them, just those; on 0, none."""
    for seed in range(200):
        rng = random.Random(seed)
        q = util.rand_query(
            rng,
            max_atoms=rng.choice([4, 8, 12]),
            max_vars=rng.choice([6, 10, 14]),
            max_arity=rng.choice([2, 3, 4]),
        )
        idx = _Index(q)
        all_vars = (1 << len(idx.vars)) - 1
        assert idx.pieces(0) == []
        seps = {0, all_vars}
        seps.update(rng.getrandbits(len(idx.vars)) for _ in range(6))
        for sep in seps:
            comps = list(bfs_components(q, idx, sep))
            assert idx.pieces(all_vars & ~sep) == comps, (seed, sep)
            some = [c for c in comps if rng.random() < 0.5]
            union = 0
            for c in some:
                union |= c
            assert idx.pieces(union) == some, (seed, sep, union)


def assert_lazy_fills_agree(q, rng, seps):
    """For each separator, split within one component, then within the
    union of two others (with some separator bits), then whole, on one
    index; the whole split first and then the same partial ones on another.
    Each answer holds exactly the components inside what was asked, by
    least bit, whatever either index was asked before."""
    lazy, eager = _Index(q), _Index(q)
    for sep in dict.fromkeys(seps):
        want = bfs_components(q, _Index(q), sep)
        picks = rng.sample(want, min(3, len(want)))
        first = picks[0] if picks else 0
        rest = sep & rng.getrandbits(len(lazy.vars))
        for c in picks[1:]:
            rest |= c
        asks = [first, rest, -1]  # -1, every bit: the default
        got = {within: lazy.components(sep, within) for within in asks}
        for within in reversed(asks):
            assert eager.components(sep, within) == got[within], (sep, within)
            inside = tuple(c for c in want if not c & ~within)
            assert got[within] == inside, (sep, within)
        assert lazy.components(sep) == want, sep


def test_lazy_fills_agree_in_any_order():
    for seed in range(150):
        rng = random.Random(seed)
        q = util.rand_query(
            rng,
            max_atoms=rng.choice([4, 8, 12]),
            max_vars=rng.choice([6, 10, 14]),
            max_arity=rng.choice([2, 3, 4]),
        )
        idx = _Index(q)
        seps = [0, *idx.candidates(2)]
        seps += [rng.getrandbits(len(idx.vars)) for _ in range(6)]
        assert_lazy_fills_agree(q, rng, seps)
    for family in sorted(util.FAMILIES):
        rng = random.Random(family)
        for n in (3, 8, 20):
            q = util.family_query(family, n, rng, ground=1)
            seps = _Index(q).candidates(2 if family != "clique" else 1)
            assert_lazy_fills_agree(q, rng, [0, *seps])


def plain_candidates(q, idx, k):
    """The (atoms, mask) list and per-atom bitsets, one combination at a
    time."""
    cands, bits = [], {i: 0 for i in idx.var_atoms}
    for size in range(1, k + 1):
        for s in combinations(idx.var_atoms, size):
            for i in s:
                bits[i] |= 1 << len(cands)
            cands.append((s, idx.mask(v for i in s for v in q.body[i].variables())))
    return cands, bits


def assert_bulk_build_is_plain(q, k):
    idx = _Index(q)
    cands, bits = plain_candidates(q, idx, k)
    assert idx.candidates(k) == [m for _, m in cands], (k, str(q))
    for p, (s, _) in enumerate(cands):
        assert idx.candidate_atoms(p) == s, (k, p, str(q))
    assert idx.candidate_bits(k) == bits, (k, str(q))


def test_candidates_match_plain_build():
    """The level-by-level masks, the unranked atom sets and the bitsets
    built by recurrence equal the per-combination build, constants
    (variable-free atoms) included."""
    for seed in range(200):
        rng = random.Random(seed)
        q = util.rand_query(
            rng,
            max_atoms=rng.choice([3, 6, 9]),
            max_vars=rng.choice([4, 7]),
            max_arity=rng.choice([1, 2, 3]),
            consts=["a", "b"],
        )
        for k in range(1, 7):
            assert_bulk_build_is_plain(q, k)


def test_candidates_beyond_the_atom_count():
    for text in ("ans <- r(X).", "ans <- r(X,Y), s(Y,Z), t(Z,X)."):
        for k in range(1, 7):
            assert_bulk_build_is_plain(parse_query(text), k)
    # sizes above the atom count add nothing and cost nothing
    idx = _Index(parse_query("ans <- r(X,Y), s(Y,Z), t(Z,X)."))
    assert idx.candidates(10**6) == idx.candidates(3)
    assert idx.candidate_bits(10**6) == idx.candidate_bits(3)
    with pytest.raises(IndexError):
        idx.candidate_atoms(len(idx.candidates(3)))


def test_candidates_skip_variable_free_atoms():
    q = parse_query("ans <- g, r(X,Y), h(a), s(Y,Z), t(Z,X), u(b,c), w(X).")
    idx = _Index(q)
    assert idx.var_atoms == [1, 3, 4, 6]
    for k in range(1, 7):
        assert_bulk_build_is_plain(q, k)
    assert len(idx.candidates(4)) == 15
    # at k=2: (1) (3) (4) (6) (1,3) (1,4) (1,6) (3,4) (3,6) (4,6)
    assert idx.candidate_bits(2)[6] == sum(1 << p for p in (3, 6, 8, 9))


# --- the linear acyclicity test ---------------------------------------------


def assert_acyclic_agrees(q):
    """_Index.acyclic, the oracle's ear removal and the width-1 search agree."""
    fast = _Index(q).acyclic()
    assert fast == gyo_acyclic(q) == (decompose(q, 1) is not None), (fast, q)
    return fast


@pytest.mark.parametrize(
    "text, acyclic",
    [
        ("ans <- .", True),
        ("ans <- g, h(a), u(b,c).", True),  # only variable-free atoms
        ("ans <- r(X,Y), r(X,Y), s(Y,X).", True),  # duplicate edges
        ("ans <- r(X,Y), s(Y,Z), t(Z,X), r(X,Y), s(Y,Z).", False),
        ("ans <- r(X,X), s(X,Y,Y), g.", True),  # repeated variables
        ("ans <- r(X,Y), s(Y,Z), t(Z,X), u(X,Y,Z).", True),  # covered triangle
        ("ans <- r(X,Y), s(Y,Z), t(Z,X), u(A,B), w(B,C).", False),
        ("ans <- r(X,Y), s(Y,Z), u(A,B), w(B,C), t(C,A).", False),
        ("ans <- r(X,Y), s(Y,Z), u(A,B), w(B,C), g(a).", True),  # two parts
        ("ans <- r(X,Y,Z), s(X,Y,W), t(X,Z,W).", False),
        ("ans <- r(X,Y,Z,W), s(X,Y), t(Y,Z), u(Z,W), w(W,X).", True),
    ],
)
def test_acyclic_hand_cases(text, acyclic):
    assert assert_acyclic_agrees(parse_query(text)) == acyclic


def test_acyclic_agrees_on_rand_query():
    found = set()
    for seed in range(1000):
        rng = random.Random(seed)
        q = util.rand_query(
            rng,
            max_atoms=rng.choice([3, 5, 8]),
            max_vars=rng.choice([4, 6, 9]),
            max_arity=rng.choice([1, 2, 3, 4]),
            consts=["a"],
        )
        found.add(assert_acyclic_agrees(q))
    assert found == {True, False}


def family_members(max_atoms, sizes=None):
    """(family, n) for every family member of at most max_atoms atoms, or
    only for the sizes given."""
    for family, edges in sorted(util.FAMILIES.items()):
        for n in sizes or range(1, max_atoms + 1):
            if len(edges(n, random.Random(n))) <= max_atoms:
                yield family, n


def family_acyclic(family, n):
    """Paths, stars and trees are acyclic; a cycle or clique from n = 3 on,
    and a 2 x n grid from n = 2 on, is not."""
    return family in ("path", "star", "tree") or n < (2 if family == "grid2x" else 3)


@pytest.mark.parametrize(
    "family, n", family_members(200, (1, 2, 3, 4, 5, 6, 9, 16, 33, 64, 200))
)
def test_acyclic_agrees_on_families(family, n):
    q = util.family_query(family, n, random.Random(n), ground=n % 2)
    assert assert_acyclic_agrees(q) == family_acyclic(family, n)


@pytest.mark.slow
def test_acyclic_agrees_on_every_family_member():
    for family, n in family_members(200):
        q = util.family_query(family, n, random.Random(n), ground=n % 2)
        assert assert_acyclic_agrees(q) == family_acyclic(family, n)


def test_acyclic_on_long_cycles():
    """2,000-atom cycles and ladders, whose k=1 search takes seconds, are
    cyclic; a path of the same size is not."""
    for family in ("cycle", "grid2x", "path"):
        q = util.family_query(family, 2000, random.Random(family))
        assert _Index(q).acyclic() == (family == "path") == gyo_acyclic(q)
