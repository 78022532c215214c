import random

import pytest
from hypothesis import given, settings, strategies as st

from htd import (
    DecompositionFormatError,
    InvalidDecompositionError,
    brute_force_qw,
    decompose,
    normalize_hd,
    parse_query,
)
from htd import hypertree
from htd.components import _Index
from htd.hypertree import (
    Hypertree,
    HtVertex,
    JoinTree,
    JtVertex,
    QdVertex,
    QueryDecomposition,
    complete_hd,
    hd_to_jointree,
    hd_width,
    hypertree_from_json,
    hypertree_to_json,
    is_complete,
    qd_from_json,
    qd_to_hd,
    qd_to_json,
    treecomp,
    treecomps,
    validate_hd,
    validate_jointree,
    validate_nf,
    validate_qd,
)

import util
from util import trivial_hd


# --- hypertree validator ---------------------------------------------------


def test_fixture_hd_valid(q1, q1_hd):
    report = validate_hd(q1, q1_hd)
    assert report.valid
    assert hd_width(q1_hd) == 2
    assert is_complete(q1, q1_hd)


def test_trivial_hd_valid(q1):
    h = trivial_hd(q1)
    assert validate_hd(q1, h).valid
    assert hd_width(h) == 3


def test_condition_1_violation(q1, q1_hd):
    verts = [
        q1_hd.vertices[0],
        HtVertex(1, 0, frozenset("SC"), frozenset({0})),
    ]
    report = validate_hd(q1, Hypertree(verts))
    assert "HD1" in report.conditions()


def test_condition_2_violation(q1):
    # S appears at both leaves but not at the root between them
    verts = [
        HtVertex(0, None, frozenset("PCA"), frozenset({1})),
        HtVertex(1, 0, frozenset("SCR"), frozenset({0})),
        HtVertex(2, 0, frozenset("PS"), frozenset({2})),
    ]
    report = validate_hd(q1, Hypertree(verts))
    assert "HD2" in report.conditions()


def test_condition_3_violation(q1, q1_hd):
    verts = [
        q1_hd.vertices[0],
        HtVertex(1, 0, frozenset("SCRA"), frozenset({0})),
    ]
    report = validate_hd(q1, Hypertree(verts))
    assert "HD3" in report.conditions()


def test_condition_4_violation(q1):
    # root lambda mentions R which reappears below without being in root chi
    verts = [
        HtVertex(0, None, frozenset("PSC"), frozenset({0, 1, 2})),
        HtVertex(1, 0, frozenset("SCR"), frozenset({0})),
    ]
    report = validate_hd(q1, Hypertree(verts))
    assert "HD4" in report.conditions()


def test_dangling_references_rejected(q1):
    with pytest.raises(DecompositionFormatError):
        validate_hd(q1, Hypertree([HtVertex(0, None, frozenset("S"), frozenset({9}))]))
    with pytest.raises(DecompositionFormatError):
        validate_hd(q1, Hypertree([HtVertex(0, None, frozenset("Q9"), frozenset({0}))]))


def test_mutations_of_fixture_all_rejected(q1, q1_hd):
    """Dropping any chi variable or lambda atom flips a condition or width."""
    for v in q1_hd:
        for x in sorted(v.chi):
            verts = [
                w if w.id != v.id else HtVertex(w.id, w.parent, w.chi - {x}, w.lam)
                for w in q1_hd
            ]
            mutated = Hypertree(verts)
            assert (
                not validate_hd(q1, mutated).valid
                or not is_complete(q1, mutated)
                or not validate_nf(q1, mutated).valid
            ), f"dropping chi {x} from vertex {v.id} went unnoticed"
        for i in sorted(v.lam):
            verts = [
                w if w.id != v.id else HtVertex(w.id, w.parent, w.chi, w.lam - {i})
                for w in q1_hd
            ]
            mutated = Hypertree(verts)
            assert (
                not validate_hd(q1, mutated).valid
                or not is_complete(q1, mutated)
                or hd_width(mutated) != hd_width(q1_hd)
            ), f"dropping atom {i} from vertex {v.id} went unnoticed"


# --- query decompositions --------------------------------------------------


def test_q4_qd_valid(q4, q4_qd):
    report = validate_qd(q4, q4_qd)
    assert report.valid
    assert q4_qd.width() == 2
    assert q4_qd.is_pure()


def test_q1_qd_valid(q1, q1_qd):
    assert validate_qd(q1, q1_qd).valid
    assert q1_qd.width() == 2


def test_single_vertex_qd_valid(q4):
    d = QueryDecomposition(
        [QdVertex(0, None, frozenset(("atom", i) for i in range(len(q4.body))))]
    )
    assert validate_qd(q4, d).valid


def test_qd_atom_coverage_violation(q4, q4_qd):
    verts = [v for v in q4_qd if v.id != 3]
    report = validate_qd(q4, QueryDecomposition(verts))
    assert "QD1" in report.conditions()


def test_qd_variable_connectedness_violation(q1):
    # enrolled and parent share S but sit in separate leaves under teaches
    d = QueryDecomposition(
        [
            QdVertex(0, None, frozenset({("atom", 1)})),
            QdVertex(1, 0, frozenset({("atom", 0)})),
            QdVertex(2, 0, frozenset({("atom", 2)})),
        ]
    )
    report = validate_qd(q1, d)
    assert "QD3" in report.conditions()


def test_qd_explicit_variable_labels(q1):
    # replacing the child atom by its variables keeps the tree valid
    d = QueryDecomposition(
        [
            QdVertex(0, None, frozenset({("atom", 0), ("atom", 1), ("atom", 2)})),
            QdVertex(1, 0, frozenset({("var", "S"), ("var", "C"), ("var", "R")})),
        ]
    )
    assert validate_qd(q1, d).valid
    assert not d.is_pure()


# --- completion ------------------------------------------------------------


def test_complete_hd_identity_on_complete(q1, q1_hd):
    assert len(complete_hd(q1, q1_hd)) == len(q1_hd)


def test_complete_hd_adds_leaf(triangle):
    h = Hypertree([HtVertex(0, None, frozenset("XYZ"), frozenset({0, 1}))])
    assert validate_hd(triangle, h).valid
    assert not is_complete(triangle, h)
    done = complete_hd(triangle, h)
    assert is_complete(triangle, done)
    assert len(done) == 2
    leaf = [v for v in done if v.id == 1][0]
    assert leaf.lam == {2} and leaf.chi == frozenset("XZ")
    assert validate_hd(triangle, done).valid


def test_complete_hd_rejects_invalid(q1):
    bad = Hypertree([HtVertex(0, None, frozenset("PSC"), frozenset({2}))])
    with pytest.raises(InvalidDecompositionError):
        complete_hd(q1, bad)


def test_complete_hd_rejects_an_empty_tree_under_atoms():
    q = parse_query("ans <- r(a).")
    with pytest.raises(
        InvalidDecompositionError,
        match="cannot complete an empty decomposition with atoms present",
    ):
        complete_hd(q, Hypertree([]))


# --- normal form -----------------------------------------------------------


def test_fixture_hd_is_nf(q1, q1_hd):
    report = validate_nf(q1, q1_hd)
    assert report.valid
    assert treecomp(q1, q1_hd, 0) == q1.variables()
    assert treecomp(q1, q1_hd, 1) == frozenset({"R"})
    assert treecomps(q1, q1_hd) == {0: q1.variables(), 1: frozenset({"R"})}


def test_treecomps_validates_once(monkeypatch):
    """The whole map costs one normal-form check, not one per vertex."""
    q = util.family_query("path", 300, random.Random(7))
    h = decompose(q, 1)
    calls = []
    real = hypertree._validate_nf
    monkeypatch.setattr(hypertree, "_validate_nf", lambda *a: calls.append(a) or real(*a))
    comps = treecomps(q, h)
    assert len(calls) == 1
    assert comps[h.root_id] == q.variables()
    # chi(T_v) - chi(parent), read off the subtree's own vertices
    for v in h:
        if v.parent is not None:
            assert comps[v.id] == frozenset().union(
                *(h.vertices[u].chi for u in h.subtree_ids(v.id))
            ) - h.vertices[v.parent].chi


@pytest.mark.parametrize("comps", [lambda q, h: treecomp(q, h, 1), treecomps])
def test_treecomps_reject_a_tree_outside_normal_form(comps):
    # valid, but the child's subtree {A,B} has no [ABC]-component (NF1)
    q = parse_query("ans <- r(A,B), s(B,C).")
    h = Hypertree(
        [
            HtVertex(0, None, frozenset("ABC"), frozenset({0, 1})),
            HtVertex(1, 0, frozenset("AB"), frozenset({0})),
        ]
    )
    assert validate_hd(q, h).valid
    with pytest.raises(InvalidDecompositionError, match="not in normal form: .*NF1"):
        comps(q, h)


@pytest.mark.parametrize("family", ["path", "tree"])
def test_nf_splits_only_below_each_parent(family, monkeypatch):
    """validate_nf splits no more than chi(T_r) - chi(r) at each parent r.
    Splitting all of var(Q) - chi(r) there instead hands pieces about 3.7
    times the bound on this path and 29 times it on this tree."""
    q = util.family_query(family, 300, random.Random(7))
    h = decompose(q, 1)
    idx = _Index(q)
    below = h._chi_below(idx)
    bound = sum(
        (below[v.id] & ~idx.mask(v.chi)).bit_count() for v in h if h.children[v.id]
    )
    split = []
    every_var = (1 << len(idx.vars)) - 1
    pieces = _Index.pieces

    def counted(self, free):
        split.append((free & every_var).bit_count())
        return pieces(self, free)

    monkeypatch.setattr(_Index, "pieces", counted)
    assert validate_nf(q, h).valid
    assert 0 < sum(split) <= bound


def test_nf_rejects_redundant_child(q1, q1_hd):
    verts = list(q1_hd.vertices.values())
    verts.append(HtVertex(2, 0, frozenset("PS"), frozenset({2})))
    h = Hypertree(verts)
    assert validate_hd(q1, h).valid
    report = validate_nf(q1, h)
    assert not report.valid
    assert report.conditions() & {"NF1", "NF2"}


def test_normalize_removes_redundant_child(q1, q1_hd):
    verts = list(q1_hd.vertices.values())
    verts.append(HtVertex(2, 0, frozenset("PS"), frozenset({2})))
    h = Hypertree(verts)
    n = normalize_hd(q1, h)
    assert validate_nf(q1, n).valid
    assert len(n) == 2
    assert n.canonical() == q1_hd.canonical()


def test_normalize_trivial_triangle(triangle):
    n = normalize_hd(triangle, trivial_hd(triangle))
    assert validate_nf(triangle, n).valid
    assert len(n) <= len(triangle.variables())


def test_normalize_splits_mixed_subtree(q2):
    # one child responsible for two separate components of the root
    verts = [
        HtVertex(0, None, frozenset("PS"), frozenset({2})),
        HtVertex(1, 0, frozenset({"P", "S", "C", "A", "C'", "R"}), frozenset({0, 1})),
    ]
    h = Hypertree(verts)
    assert validate_hd(q2, h).valid
    assert "NF1" in validate_nf(q2, h).conditions()
    n = normalize_hd(q2, h)
    assert validate_hd(q2, n).valid
    assert validate_nf(q2, n).valid
    assert len(n) == 3
    assert n.width() <= h.width()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_normalize_random_trivial_trees(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng)
    if not any(a.variables() for a in q.body):
        return
    n = normalize_hd(q, trivial_hd(q))
    assert validate_hd(q, n).valid
    assert validate_nf(q, n).valid
    assert len(n) <= max(1, len(q.variables()))


def rerooted(h, new_root):
    """The same tree hung from another vertex: the parent links on the path
    from new_root to the old root are reversed."""
    parent = dict(h.parent)
    prev, v = None, new_root
    while v is not None:
        parent[v], prev, v = prev, v, parent[v]
    return Hypertree(HtVertex(u.id, parent[u.id], u.chi, u.lam) for u in h)


def test_normalize_query_width_trees():
    """normalize_hd on trees read off pure query decompositions, completed
    or not, and rerooted at their last vertex; chi = var(lambda) keeps every
    one of them valid, and most are not in normal form."""
    trees = not_nf = 0
    for seed in range(300):
        rng = random.Random(seed)
        q = util.rand_query(rng, max_atoms=rng.choice([4, 6]), max_vars=7)
        for k in (1, 2, 3):
            d = brute_force_qw(q, k)
            if d is None:
                continue
            h = qd_to_hd(q, d)
            for t0 in (h, complete_hd(q, h)):
                for t in (t0, rerooted(t0, max(t0.vertices))):
                    trees += 1
                    not_nf += not validate_nf(q, t).valid
                    n = normalize_hd(q, t)
                    assert validate_nf(q, n).valid, (seed, k)
                    assert n.width() <= t.width(), (seed, k)
                    assert all(
                        any(v.lam <= u.lam for u in t) for v in n
                    ), (seed, k)
                    assert list(normalize_hd(q, n)) == list(n), (seed, k)
    assert not_nf >= trees // 3, (not_nf, trees)


def test_normalize_adds_missing_parent_variables():
    # NF3: s's lambda has X, which is in chi(parent) but not in chi(s)
    q = parse_query("ans <- a(X,Y), b(Y,Z).")
    h = Hypertree(
        [
            HtVertex(0, None, frozenset("XY"), frozenset({0})),
            HtVertex(1, 0, frozenset("YZ"), frozenset({0, 1})),
        ]
    )
    assert validate_nf(q, h).conditions() == {"NF3"}
    n = normalize_hd(q, h)
    assert validate_nf(q, n).valid
    assert n.vertices[1].chi == frozenset("XYZ")


def test_normalize_keeps_nf_tree_with_any_ids(q3):
    h = decompose(q3, 1)
    remapped = Hypertree(
        HtVertex(
            10 * (len(h) - v.id),
            None if v.parent is None else 10 * (len(h) - v.parent),
            v.chi,
            v.lam,
        )
        for v in h
    )
    assert remapped.preorder() != sorted(remapped.vertices)
    assert validate_nf(q3, remapped).valid
    n = normalize_hd(q3, remapped)
    assert list(n) == list(remapped)


def test_normalize_without_variables_keeps_root():
    q = parse_query("ans <- r(a,b), s(c).")
    h = Hypertree(
        [
            HtVertex(3, 5, frozenset(), frozenset({1})),
            HtVertex(5, None, frozenset(), frozenset({0})),
            HtVertex(7, 3, frozenset(), frozenset({0, 1})),
        ]
    )
    assert not validate_nf(q, h).valid
    n = normalize_hd(q, h)
    assert list(n) == [HtVertex(5, None, frozenset(), frozenset({0}))]


# --- conversions -----------------------------------------------------------


def test_qd_to_hd(q4, q4_qd):
    h = qd_to_hd(q4, q4_qd)
    assert validate_hd(q4, h).valid
    assert h.width() == q4_qd.width() == 2


def test_qd_to_hd_rejects_impure(q1):
    d = QueryDecomposition(
        [
            QdVertex(0, None, frozenset({("atom", 0), ("atom", 1), ("atom", 2)})),
            QdVertex(1, 0, frozenset({("var", "S")})),
        ]
    )
    with pytest.raises(InvalidDecompositionError):
        qd_to_hd(q1, d)


def test_qd_to_hd_rejects_an_invalid_pure_decomposition():
    q = parse_query("ans <- r(A,B), s(B,C).")
    d = QueryDecomposition([QdVertex(0, None, frozenset({("atom", 0)}))])
    assert d.is_pure()
    with pytest.raises(
        InvalidDecompositionError, match="not a valid query decomposition: .*QD1"
    ):
        qd_to_hd(q, d)


def test_hd_to_jointree_q2(q2):
    h = complete_hd(q2, decompose(q2, 1))
    jt = hd_to_jointree(q2, h)
    assert len(jt) == 3
    assert validate_jointree(q2, jt).valid


def test_hd_to_jointree_q3(q3):
    h = complete_hd(q3, decompose(q3, 1))
    jt = hd_to_jointree(q3, h)
    assert len(jt) == 6
    assert validate_jointree(q3, jt).valid


def test_hd_to_jointree_single_atom():
    q = parse_query("ans <- r(X,Y).")
    jt = hd_to_jointree(q, complete_hd(q, decompose(q, 1)))
    assert len(jt) == 1


def test_hd_to_jointree_empty_body():
    q = parse_query("ans <- .")
    assert len(hd_to_jointree(q, Hypertree([]))) == 0
    root = HtVertex(0, None, frozenset(), frozenset())
    assert len(hd_to_jointree(q, Hypertree([root]))) == 0
    # atoms but no vertices
    with pytest.raises(InvalidDecompositionError, match="not complete"):
        hd_to_jointree(parse_query("ans <- r(a), s."), Hypertree([]))


def test_hd_to_jointree_contracts_toward_own_atom():
    # vertex 2 repeats atom 1; contracting it into vertex 0 would cut Y
    q = parse_query("ans <- a(X,P), b(X,Y), c(Y,Q).")
    h = Hypertree(
        [
            HtVertex(0, 2, frozenset("XP"), frozenset({0})),
            HtVertex(1, 2, frozenset("XY"), frozenset({1})),
            HtVertex(2, None, frozenset("XY"), frozenset({1})),
            HtVertex(3, 2, frozenset("YQ"), frozenset({2})),
        ]
    )
    assert validate_hd(q, h).valid and is_complete(q, h) and h.width() == 1
    jt = hd_to_jointree(q, h)
    assert validate_jointree(q, jt).valid
    assert jt.parent == {0: None, 1: 0, 2: 1}


def test_hd_to_jointree_rejects_wide(q1, q1_hd):
    with pytest.raises(InvalidDecompositionError):
        hd_to_jointree(q1, q1_hd)


def test_hd_to_jointree_rejects_invalid():
    # a complete width-1 tree whose Y-holders are apart (HD2)
    q = parse_query("ans <- r(X,Y), s(Y,Z), t(Z,W).")
    h = Hypertree(
        [
            HtVertex(0, None, frozenset("XY"), frozenset({0})),
            HtVertex(1, 0, frozenset("ZW"), frozenset({2})),
            HtVertex(2, 1, frozenset("YZ"), frozenset({1})),
        ]
    )
    with pytest.raises(
        InvalidDecompositionError,
        match="not a valid hypertree decomposition: .*variable Y disconnected",
    ):
        hd_to_jointree(q, h)


def test_jointree_validator_catches_break(q2):
    # teaches and parent share P but are not adjacent through C'
    jt = JoinTree(
        [JtVertex(1, None), JtVertex(0, 1), JtVertex(2, 0)]
    )
    assert not validate_jointree(q2, jt).valid


def test_jointree_validator_reports_missing_atom(q2):
    jt = JoinTree([JtVertex(1, None), JtVertex(0, 1)])
    assert validate_jointree(q2, jt).conditions() == {"JT0"}


BAD_SHAPES = {
    "duplicate id": [(0, None), (1, 0), (1, 0)],
    "unknown parent": [(0, None), (1, 7)],
    "two roots": [(0, None), (1, None)],
    "detached cycle": [(0, None), (1, 2), (2, 1)],
}


@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
@pytest.mark.parametrize(
    "make",
    [
        lambda links: Hypertree(
            HtVertex(i, p, frozenset(), frozenset()) for i, p in links
        ),
        lambda links: QueryDecomposition(QdVertex(i, p, frozenset()) for i, p in links),
        lambda links: JoinTree(JtVertex(i, p) for i, p in links),
    ],
    ids=["hd", "qd", "jt"],
)
def test_trees_reject_bad_shapes(make, shape):
    with pytest.raises(DecompositionFormatError):
        make(BAD_SHAPES[shape])


# --- serialization ---------------------------------------------------------


def test_hd_json_round_trip(q1, q1_hd):
    text = hypertree_to_json(q1, q1_hd)
    q, h = hypertree_from_json(text)
    assert q == q1
    assert h.canonical() == q1_hd.canonical()


def test_qd_json_round_trip(q4, q4_qd):
    text = qd_to_json(q4, q4_qd)
    q, d = qd_from_json(text)
    assert q == q4
    assert {v.label for v in d} == {v.label for v in q4_qd}


def test_bad_json_rejected():
    with pytest.raises(DecompositionFormatError):
        hypertree_from_json("{not json")
    with pytest.raises(DecompositionFormatError):
        hypertree_from_json('{"query": "ans <- r(X).", "nodes": [{"id": 0}]}')
