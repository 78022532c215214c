import gc
import math
import random
from contextlib import contextmanager
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from htd import (
    Atom,
    ConjunctiveQuery,
    Database,
    DatabaseFormatError,
    InconclusiveError,
    brute_force_eval,
    complete_hd,
    decompose,
    eval_boolean,
    eval_full,
    format_answers,
    hypertree_width,
    is_complete,
    parse_database,
    parse_query,
    constant,
    shrink,
    variable,
)
from htd import evaluate
from htd.hypertree import Hypertree, HtVertex, validate_hd

import util
from util import trivial_hd

CONSTS = ["a", "b", "c", "d"]


DB1 = parse_database(
    """
    enrolled(sue,db,spring). enrolled(bob,ai,fall).
    teaches(ann,db,mon). teaches(ann,ai,tue).
    parent(ann,sue).
    """
)


def test_boolean_positive(q1):
    assert eval_boolean(q1, DB1)


def test_boolean_negative(q1):
    db = parse_database(
        "enrolled(sue,db,spring). teaches(ann,ai,tue). parent(ann,sue)."
    )
    assert not eval_boolean(q1, db)


def test_full_answers():
    q = parse_query("ans(S,C) <- enrolled(S,C,R), teaches(P,C,A), parent(P,S).")
    assert eval_full(q, DB1) == [("sue", "db")]


def test_full_matches_brute(q1):
    assert eval_full(q1, DB1) == [()]
    assert brute_force_eval(q1, DB1) == [()]


def test_empty_body():
    q = parse_query("ans <- .")
    db = parse_database("r(a).")
    assert eval_boolean(q, db)
    assert eval_full(q, db) == [()]


def test_variable_free_atoms():
    db = parse_database("r(a,b). s(c).")
    assert eval_boolean(parse_query("ans <- r(a,b), s(X)."), db)
    assert not eval_boolean(parse_query("ans <- r(b,a), s(X)."), db)


def test_variable_free_atom_arity_mismatch_rejected():
    db = parse_database("r(a,b,c). s(c).")
    for text in ("ans <- r(a,b), s(X).", "ans <- r(a,Y), s(X)."):
        q = parse_query(text)
        with pytest.raises(DatabaseFormatError):
            eval_boolean(q, db)
        with pytest.raises(DatabaseFormatError):
            eval_full(q, db)
        with pytest.raises(DatabaseFormatError):
            brute_force_eval(q, db)
    with pytest.raises(DatabaseFormatError):
        eval_full(parse_query("ans(X) <- r(a,b), s(X)."), db)
    with pytest.raises(DatabaseFormatError):
        brute_force_eval(parse_query("ans(X) <- r(a,b), s(X)."), db)


def test_constants_and_repeated_variables():
    db = parse_database("r(a,a). r(a,b).")
    assert eval_full(parse_query("ans(X) <- r(X,X)."), db) == [("a",)]
    assert eval_full(parse_query("ans(X) <- r(a,X)."), db) == [("a",), ("b",)]
    assert eval_full(parse_query("ans(X) <- r(c,X)."), db) == []


def test_missing_relation_is_empty(q1):
    assert not eval_boolean(q1, parse_database("parent(ann,sue)."))


def test_arity_mismatch_rejected():
    q = parse_query("ans <- r(X,Y).")
    with pytest.raises(DatabaseFormatError):
        eval_boolean(q, parse_database("r(a)."))


def test_explicit_hd_used(q1, q1_hd):
    assert eval_boolean(q1, DB1, hd=q1_hd)
    assert eval_full(q1, DB1, hd=q1_hd) == [()]


def test_k_cap_exhausted(q5):
    db = parse_database("a(x,x,x,x,x).")
    with pytest.raises(InconclusiveError):
        eval_boolean(q5, db, k_cap=1)


def test_shrink_tables(q1, q1_hd):
    inst = shrink(q1, DB1, q1_hd)
    assert [a.relation for a in inst.query.body] == ["v0", "v1"]
    root, leaf = inst.query.body
    assert root.variables() == frozenset("ACPS")
    assert leaf.variables() == frozenset("CRS")
    # schemas follow sorted chi; teaches joined with parent keeps ann/sue only
    assert inst.db.tuples("v0") == {
        ("mon", "db", "ann", "sue"),
        ("tue", "ai", "ann", "sue"),
    }
    assert inst.db.tuples("v1") == {
        ("db", "spring", "sue"),
        ("ai", "fall", "bob"),
    }
    assert len(inst.tree) == 2


def test_shrink_round_trips_through_eval(q1, q1_hd):
    inst = shrink(q1, DB1, q1_hd)
    assert eval_boolean(inst.query, inst.db) == eval_boolean(q1, DB1)


def test_shrink_empty_table_keeps_arity():
    q = parse_query("ans <- r(A,B), s(B,C).")
    db = parse_database("r(a,b). r(b,c).")
    inst = shrink(q, db, complete_hd(q, decompose(q, 1)))
    assert any(not rows for rows in inst.db.relations.values())
    for a in inst.query.body:
        assert inst.db.arities[a.relation] == len(a.args)
    assert not eval_boolean(inst.query, inst.db)


def test_eval_along_an_incomplete_witness(triangle):
    # the width-2 witness covers t's variables but labels no vertex with t
    h = hypertree_width(triangle, 2)[1]
    assert not is_complete(triangle, h)
    q = ConjunctiveQuery(Atom("ans", (variable("X"), variable("Z"))), triangle.body)
    db = _seeded_db("rst", 40, 8, seed=3)
    assert eval_full(q, db, h) == brute_force_eval(q, db)
    assert eval_boolean(q, db, h) == bool(brute_force_eval(q, db))
    assert len(shrink(q, db, h).query.body) == len(h)


def test_shrink_folds_variable_free_atoms():
    q = parse_query("ans <- r(a,b), s(X).")
    h = decompose(q, 1)
    assert all(0 not in v.lam for v in h)
    inst = shrink(q, parse_database("s(a)."), h)
    assert not eval_boolean(inst.query, inst.db)
    inst = shrink(q, parse_database("r(a,b). s(a)."), h)
    assert eval_boolean(inst.query, inst.db)


def _seeded_db(relations, facts, domain, seed):
    rng = random.Random(seed)
    rels = {}
    for rel in relations:
        rows = set()
        while len(rows) < facts:
            rows.add((f"c{rng.randrange(domain)}", f"c{rng.randrange(domain)}"))
        rels[rel] = frozenset(rows)
    return Database(rels, {rel: 2 for rel in rels})


@pytest.mark.parametrize(
    "text, relations",
    [
        ("ans(A,C) <- a(A,B), b(B,C), c(C,D), d(D,A).", "abcd"),
        ("ans(A) <- r(A,B), s(B,C), t(C,A).", "rst"),
    ],
)
def test_cyclic_vertex_table_is_exact(text, relations):
    # 60 facts a relation over 12 constants: joining two of a cycle's atoms
    # without the ones that close it gives about 60 x 60 / 12 rows, a
    # product gives 3,600, and the cycles number a few dozen
    q = parse_query(text)
    db = _seeded_db(relations, 60, 12, seed=7)
    every = sorted(q.variables())
    head = Atom("ans", tuple(variable(x) for x in every))
    solutions = brute_force_eval(ConjunctiveQuery(head, q.body), db)
    assert solutions
    inst = shrink(q, db, complete_hd(q, hypertree_width(q, 2)[1]))
    cyclic = [a for a in inst.query.body if a.variables() == q.variables()]
    assert cyclic
    for a in cyclic:
        cols = [every.index(t.name) for t in a.args]
        table = inst.db.tuples(a.relation)
        assert table == {tuple(s[i] for i in cols) for s in solutions}
        assert len(table) <= len(solutions)


def test_format_answers():
    q = parse_query("ans(X,Y) <- r(X,Y).")
    assert format_answers(q, [("a", "b"), ("c", "d")]) == "ans(a,b).\nans(c,d).\n"
    qb = parse_query("ans <- r(X).")
    assert format_answers(qb, [()]) == "ans.\n"
    assert format_answers(qb, []) == ""


def test_format_answers_round_trips_through_parse_database():
    # constants that are not plain names come back only if quoted
    q = parse_query("ans(X,Y) <- r(X,Y).")
    db = parse_database("r('a b','c,d'). r('X', e). r('', '%x'). r(a_1,'1.5').")
    rows = eval_full(q, db)
    text = format_answers(q, rows)
    assert "ans('X',e).\n" in text
    assert parse_database(text).tuples("ans") == set(rows) == db.tuples("r")


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_eval_matches_brute_force(seed):
    rng = random.Random(seed)
    q = util.rand_query(
        rng, consts=CONSTS, head_vars=True, consistent_arity=True
    )
    db = util.rand_db(rng, q, CONSTS)
    expect = brute_force_eval(q, db)
    assert eval_full(q, db) == expect
    assert eval_boolean(q, db) == bool(expect)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_eval_independent_of_decomposition(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng, consts=CONSTS, head_vars=True, consistent_arity=True)
    db = util.rand_db(rng, q, CONSTS)
    expect = eval_full(q, db)
    if q.variables():
        assert eval_full(q, db, hd=trivial_hd(q)) == expect
    k = 1
    while (h := decompose(q, k)) is None:
        k += 1
    assert eval_full(q, db, hd=h) == expect


# Edges of cyclic and acyclic shapes; the star's search witness is its first
# atom with the others as children, so E sits only in the last child.
SHAPES = {
    "triangle": ("AB", "BC", "CA"),
    "cycle4": ("AB", "BC", "CD", "DA"),
    "chain": ("AB", "BC", "CD", "DE"),
    "star": ("AB", "AC", "AD", "AE"),
    "branching": ("AB", "BC", "BD", "DE", "DF"),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SHAPES)), st.integers(0, 10**9))
def test_eval_on_shapes_with_repeated_relations(shape, seed):
    """Two relations over every edge in either direction, swapped copies
    r(Y,X) of an atom r(X,Y), loops r(X,X) and constants: atoms of one
    relation must not share a scan unless their arguments agree.  Head
    variables are drawn with the shape's last variable often among them, so
    the upward join must carry a variable of a later child."""
    rng = random.Random(seed)
    body = []
    for x, y in SHAPES[shape]:
        args = [variable(x), variable(y)]
        rng.shuffle(args)
        if rng.random() < 0.15:
            args[rng.randrange(2)] = constant(rng.choice(CONSTS))
        body.append((rng.choice("rs"), tuple(args)))
    for _ in range(rng.randint(0, 2)):
        rel, args = rng.choice(body)
        body.append((rel, args[::-1]))
    if rng.random() < 0.5:
        x = variable(rng.choice(SHAPES[shape])[0])
        body.append(("r", (x, x)))
    atoms = tuple(Atom(rel, args, i) for i, (rel, args) in enumerate(body))
    names = sorted(set().union(*(a.variables() for a in atoms)))
    head = rng.sample(names, rng.randint(0, min(3, len(names))))
    last = SHAPES[shape][-1][1]
    if last in names and last not in head and rng.random() < 0.5:
        head.append(last)
    q = ConjunctiveQuery(Atom("ans", tuple(variable(x) for x in head)), atoms)
    db = Database(
        {
            rel: frozenset(
                (rng.choice(CONSTS), rng.choice(CONSTS))
                for _ in range(rng.randint(1, 12))
            )
            for rel in "rs"
        },
        {"r": 2, "s": 2},
    )
    expect = brute_force_eval(q, db)
    assert eval_full(q, db) == expect
    assert eval_full(q, db, hd=trivial_hd(q)) == expect
    assert eval_boolean(q, db) == bool(expect)


def _nested(rng, q, h, extra):
    """h with up to extra vertices inserted one at a time, each with a chi
    inside the chi of the vertex u it is placed next to: a leaf under u with
    u's lambda, or a new parent of u with u's or u's parent's lambda, whose
    chi also holds every variable u shares with its old parent.  An
    insertion that leaves no valid decomposition is dropped."""
    for _ in range(extra):
        u = rng.choice(list(h))
        p = u.parent
        chi = frozenset(x for x in u.chi if rng.random() < 0.6)
        w = max(h.vertices) + 1
        if rng.random() < 0.5:
            verts = [*h, HtVertex(w, u.id, chi, u.lam)]
        else:
            above = frozenset() if p is None else h.vertices[p].chi
            lam = rng.choice([u.lam, u.lam if p is None else h.vertices[p].lam])
            verts = [
                HtVertex(v.id, w, v.chi, v.lam) if v.id == u.id else v for v in h
            ] + [HtVertex(w, p, chi | (above & u.chi), lam)]
        nested = Hypertree(verts)
        if validate_hd(q, nested).valid:
            h = nested
    return h


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_contraction_invariants(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng, consts=CONSTS, head_vars=True, consistent_arity=True)
    if not q.variables():
        return
    db = util.rand_db(rng, q, CONSTS)
    expect = brute_force_eval(q, db)
    k = 1
    while (witness := decompose(q, k)) is None:
        k += 1
    for tree in (witness, trivial_hd(q)):
        h = _nested(rng, q, tree, rng.randint(1, 4))
        contracted = evaluate._contract(h)
        chi = {v.id: v.chi for v in contracted}
        for v in contracted:
            near = [contracted.parent[v.id], *contracted.children[v.id]]
            assert not any(v.chi <= chi[u] for u in near if u is not None)
            assert (v.chi, v.lam) == (h.vertices[v.id].chi, h.vertices[v.id].lam)
        assert all(any(a.variables() <= c for c in chi.values()) for a in q.body)
        assert contracted._disconnected(chi) == []
        assert eval_full(q, db, hd=h) == expect
        assert eval_boolean(q, db, hd=h) == bool(expect)


@pytest.mark.parametrize("shape, tables", [("triangle", 1), ("cycle4", 1), ("chain", 4)])
def test_contracted_witness_tables(monkeypatch, shape, tables):
    # the triangle's search witness nests {A,B} in {A,B,C}, the 4-cycle's
    # {A,B} in {A,B,C} in {A,B,C,D}: 2 and 3 vertices, one table each after
    # contraction; the chain's 4 vertices nest nowhere
    body = ", ".join(f"e{i}({x},{y})" for i, (x, y) in enumerate(SHAPES[shape]))
    q = parse_query(f"ans(A) <- {body}.")
    db = _seeded_db([f"e{i}" for i in range(len(SHAPES[shape]))], 20, 5, seed=1)
    built = []
    join = evaluate._generic_join
    monkeypatch.setattr(
        evaluate, "_generic_join", lambda parts: built.append(1) or join(parts)
    )
    assert eval_full(q, db) == brute_force_eval(q, db)
    assert len(built) == tables


def test_eval_full_builds_no_extensions_for_dangling_rows(monkeypatch):
    # p pairs each of n values xi with z, s pairs xi with yi, and a and b
    # give each yi m values; t keeps only x0.  The full reducer, up then
    # down, leaves s one row, so the product of a's and b's extension sets is
    # built once: m * m tuples, the output, not n * m * m as when s keeps
    # rows whose key the reduced root lacks.  Every extension tuple comes
    # from an itertools.product call in evaluate; the root, whose one child
    # carries both head columns, passes that child's tuples through
    n, m = 40, 5
    q = parse_query("ans(A,C) <- p(X,Z), t(X,W), s(X,Y), a(Y,A), b(Y,C).")
    hd = Hypertree(
        [
            HtVertex(0, None, frozenset("XZ"), frozenset({0})),
            HtVertex(1, 0, frozenset("XW"), frozenset({1})),
            HtVertex(2, 0, frozenset("XY"), frozenset({2})),
            HtVertex(3, 2, frozenset("YA"), frozenset({3})),
            HtVertex(4, 2, frozenset("YC"), frozenset({4})),
        ]
    )
    facts = ["t(x0,w)."]
    for i in range(n):
        facts.append(f"p(x{i},z). s(x{i},y{i}).")
        facts += [f"a(y{i},a{j}). b(y{i},c{j})." for j in range(m)]
    db = parse_database(" ".join(facts))
    built = []
    product = evaluate.product

    def counted(*factors):
        factors = [list(f) for f in factors]
        built.append(math.prod(map(len, factors)))
        return product(*factors)

    monkeypatch.setattr(evaluate, "product", counted)
    assert eval_full(q, db, hd=hd) == brute_force_eval(q, db)
    assert sum(built) == m * m


def test_triangle_vertex_join_reads_no_pairwise_join(monkeypatch):
    # r sends each of m values xi to y, s sends y to each of m values zj, and
    # t pairs zi with xi: r join s has m * m rows, the triangles number m.
    # Every table the vertex join builds is keyed before it is used, so the
    # rows handed to _keys bound the rows it builds; joining r with s first
    # would hand it the m * m rows
    m = 100
    q = parse_query("ans(X,Y,Z) <- r(X,Y), s(Y,Z), t(Z,X).")
    hd = Hypertree([HtVertex(0, None, frozenset("XYZ"), frozenset({0, 1}))])
    facts = [f"r(x{i},y). s(y,z{i}). t(z{i},x{i})." for i in range(m)]
    db = parse_database(" ".join(facts))
    keyed = []
    keys = evaluate._keys
    monkeypatch.setattr(
        evaluate, "_keys", lambda s, c, r: keyed.append(len(r)) or keys(s, c, r)
    )
    [(_, rows)] = evaluate._vertex_tables(q, hd, db).values()
    assert len(rows) == m
    assert sum(keyed) <= 8 * m


STAR = [(0, None, "AB", {0}), (1, 0, "AC", {1}), (2, 0, "AD", {2})]
ONE_CHILD = [(0, None, "AB", {0}), (1, 0, "BE", {1})]

# (query, vertices as (id, parent, chi, lambda)): one per way the root of
# eval_full's upward pass builds its rows, and per head order after it
ROOT_SHAPES = {
    # each root group meets one key per child: own values times two sorted
    # lists of one column
    "star": ("ans(A,B,C,D) <- r(A,B), s(A,C), u(A,D).", STAR),
    # a root group meets several keys of its one child: their sorted union
    "chain": (
        "ans(A,E) <- r(A,B), s(B,C), t(C,D), u(D,E).",
        [(0, None, "AB", {0}), (1, 0, "BC", {1}), (2, 1, "CD", {2}), (3, 2, "DE", {3})],
    ),
    # ... of two children: the sorted union of their products
    "fork": (
        "ans(A,C,D) <- r(A,X), s(X,C), u(X,D).",
        [(0, None, "AX", {0}), (1, 0, "XC", {1}), (2, 0, "XD", {2})],
    ),
    # a two-column child beside a one-column one: the flattened product
    "wide": (
        "ans(A,X,B,C,D) <- r(A,X), s(X,B), t(B,C), u(X,D).",
        [(0, None, "AX", {0}), (1, 0, "XB", {1}), (2, 1, "BC", {2}), (3, 0, "XD", {3})],
    ),
    # one-column answers, from the root's one child or from the root alone
    "one_column_child": ("ans(E) <- r(A,B), s(B,E).", ONE_CHILD),
    "one_column_root": ("ans(A) <- r(A,B), s(B,E).", ONE_CHILD),
    # head variables in another order than the root's columns: sorted again
    "permuted": ("ans(D,A,C,B) <- r(A,B), s(A,C), u(A,D).", STAR),
    # a constant and a repeated variable leave the order as it is
    "constant_and_repeat": ("ans(A,k,C,A,D) <- r(A,B), s(A,C), u(A,D).", STAR),
}


# String order differs from numeric and length order here: '10' < '9' < 'Zed'
# < 'a b' < 'ab' < 'b' < 'é' < '日'
RANKED = ["9", "10", "b", "ab", "a b", "Zed", "é", "日"]


@pytest.fixture
def frozen_heap():
    """Everything alive now moved out of the collector's reach for the test,
    so each gc.collect() in it scans only what the test made."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.mark.parametrize("shape", sorted(ROOT_SHAPES))
def test_eval_full_root_shapes_match_brute_force(shape, frozen_heap):
    text, vertices = ROOT_SHAPES[shape]
    q = parse_query(text)
    hd = Hypertree(
        HtVertex(vid, parent, frozenset(chi), frozenset(lam))
        for vid, parent, chi, lam in vertices
    )
    assert validate_hd(q, hd).valid
    for consts in (CONSTS, RANKED):
        answered = 0
        for seed in range(30):
            rng = random.Random(seed)
            db = Database(
                {
                    rel: frozenset(
                        (rng.choice(consts), rng.choice(consts)) for _ in range(10)
                    )
                    for rel in "rstu"
                },
                dict.fromkeys("rstu", 2),
            )
            expect = brute_force_eval(q, db)
            assert _acyclic(eval_full, q, db, hd=hd) == expect
            assert _acyclic(eval_boolean, q, db) == bool(expect)
            inst = _acyclic(shrink, q, db, hd)
            assert eval_boolean(inst.query, inst.db) == bool(expect)
            answered += bool(expect)
        assert answered > 20


@contextmanager
def _collector(enabled):
    """The cyclic garbage collector on or off inside the block, and back as
    it was after it."""
    was = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def _acyclic(f, *args, **kwargs):
    """f(*args, **kwargs), asserting that the call leaves no reference cycle
    behind: with the collector off around it, gc.collect() straight after
    finds nothing unreachable.  Evaluation pauses the collector on the
    premise that it never does."""
    gc.collect()
    with _collector(False):
        out = f(*args, **kwargs)
        assert gc.collect() == 0, f.__name__
    return out


def _check_over_ranks(q, db, hd=None):
    want = brute_force_eval(q, db)
    got = eval_full(q, db, hd=hd)
    assert got == want == sorted(got), str(q)
    assert all(type(row) is tuple and all(type(c) is str for c in row) for row in got)
    assert eval_boolean(q, db, hd=hd) == bool(want), str(q)
    return want


def test_eval_over_ranks_keeps_string_order():
    rng = random.Random(27)
    # "gone" is a query constant that no database holds
    q_consts = ["10", "9", "a b", "é", "gone"]
    answered = 0
    for _ in range(250):
        q = util.rand_query(
            rng, max_atoms=4, max_vars=4, consts=q_consts, head_vars=True,
            consistent_arity=True,
        )
        head = list(q.head.args)
        if head and rng.random() < 0.3:
            head.insert(rng.randint(0, len(head)), rng.choice(head))
        if rng.random() < 0.3:
            head.insert(rng.randint(0, len(head)), constant(rng.choice(RANKED)))
        q = ConjunctiveQuery(Atom("ans", tuple(head)), q.body)
        answered += len(_check_over_ranks(q, util.rand_db(rng, q, RANKED, 8))) > 1
    assert answered > 20


def test_encoding_is_built_once_and_outside_equality():
    text = "r('10',9). r(9,'a b'). r('Zed','é'). s('a b'). s('é')."
    db, twin = parse_database(text), parse_database(text)
    q = parse_query("ans(X,Y) <- r(X,Y), s(Y).")
    assert eval_full(q, db) == [("9", "a b"), ("Zed", "é")]
    enc = db.encoding
    assert eval_boolean(q, db) and eval_full(q, db)
    assert db.encoding is enc
    assert enc.constants == ("10", "9", "Zed", "a b", "é")
    assert enc.relations["s"] == {(3,), (4,)}
    assert db == twin and twin == db and repr(db) == repr(twin)
    assert "encoding" not in vars(twin)


# --- the paused collector ---------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False])
def test_eval_leaves_the_collector_as_it_found_it(enabled, q1, q1_hd, q5):
    q_full = parse_query("ans(S,C) <- enrolled(S,C,R), teaches(P,C,A), parent(P,S).")
    q_bad, db_bad = parse_query("ans(X) <- r(X,Y)."), parse_database("r(a).")
    db5 = parse_database("a(x,x,x,x,x).")
    calls = [
        (partial(eval_boolean, q1, DB1), None),
        (partial(eval_full, q_full, DB1), None),
        (partial(eval_full, q1, DB1), None),
        (partial(shrink, q1, DB1, q1_hd), None),
        (partial(eval_boolean, q_bad, db_bad), DatabaseFormatError),
        (partial(eval_full, q_bad, db_bad), DatabaseFormatError),
        (partial(shrink, q_bad, db_bad, trivial_hd(q_bad)), DatabaseFormatError),
        (partial(eval_boolean, q5, db5, k_cap=1), InconclusiveError),
        (partial(eval_full, q5, db5, k_cap=1), InconclusiveError),
    ]
    for call, error in calls:
        with _collector(enabled):
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert gc.isenabled() == enabled, call


def test_boolean_head_eval_full_keeps_the_pause(monkeypatch, q1):
    """eval_full of a Boolean head calls eval_boolean inside its own pause,
    and the inner call leaves the collector off until eval_full returns."""
    seen = []
    real = evaluate.eval_boolean

    def inner(*args):
        seen.append(gc.isenabled())
        out = real(*args)
        seen.append(gc.isenabled())
        return out

    monkeypatch.setattr(evaluate, "eval_boolean", inner)
    with _collector(True):
        assert evaluate.eval_full(q1, DB1) == [()]
        assert gc.isenabled()
    assert seen == [False, False]


def test_eval_full_runs_no_collection():
    """A star's 10,000 answer tuples, with their sets and lists, start 15
    collections at the default thresholds if the collector runs; paused, it
    starts none."""
    q = parse_query("ans(A,B,C,D) <- r(A,B), s(A,C), u(A,D).")
    consts = [f"c{i}" for i in range(10)]
    pairs = frozenset((a, b) for a in consts for b in consts)
    db = Database(dict.fromkeys("rsu", pairs), dict.fromkeys("rsu", 2))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    with _collector(True):
        gc.callbacks.append(hook)
        try:
            rows = eval_full(q, db)
        finally:
            gc.callbacks.remove(hook)
    assert len(rows) == 10**4
    assert starts == []
