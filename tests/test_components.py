import random

import pytest
from hypothesis import given, settings, strategies as st

from htd import parse_query
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
        seps.update(m for _, m in idx.candidates(2))
        for sep in seps:
            assert idx.components(sep) == bfs_components(q, idx, sep), (seed, sep)


@pytest.mark.parametrize("family", sorted(util.FAMILIES))
def test_index_components_on_families(family):
    rng = random.Random(family)
    for n in (3, 8, 20):
        q = util.family_query(family, n, rng, ground=1)
        idx = _Index(q)
        for _, sep in idx.candidates(2 if family != "clique" else 1):
            assert idx.components(sep) == bfs_components(q, idx, sep)


def test_index_on_5000_atom_path():
    """Building the merge order takes one pass; no timing bound is set."""
    q = util.family_query("path", 5000, random.Random(5000))
    idx = _Index(q)
    assert len(idx.components(0)) == 1
    middle = next(m for m in idx.atom_masks if idx.unmask(m) >= {"V2500"})
    assert idx.components(middle) == bfs_components(q, idx, middle)
