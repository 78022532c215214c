"""``eval_full`` against a reference upward join, on seeded queries over
relations of 20-200 facts: more than ``brute_force_eval`` can afford.

The reference is the row-building upward join that ``eval_full`` used before
its factorized pass: after the same full reducer, each vertex joins its
children's result tables one at a time, projecting as it goes to the head
variables, its connection to the parent, and the variables later children
still share (``_join_project`` and the ``later`` lists, copied verbatim).
The full reducer, semijoins up (``_semijoin_up``, copied verbatim) then
down, is this file's own copy, independent of ``evaluate._reduce``.
The queries cover branching trees whose children both carry head variables
(the product of their extension sets), permuted and repeated head
variables, head constants, and cycles of width 2.  Each decomposition is
also tried re-rooted at every vertex where it stays valid.  The ``slow``
block adds the benchmark's star and chain at its scale, 900 facts a relation.
"""

import random

import pytest

from htd import (
    Atom,
    ConjunctiveQuery,
    Database,
    constant,
    eval_full,
    parse_query,
    variable,
)
from htd.detect import hypertree_width
from htd.errors import InvalidDecompositionError
from htd.evaluate import (
    Rows,
    Schema,
    _ground_atoms_hold,
    _keys,
    _pick,
    _prepare,
    _project,
    _semijoin,
    _vertex_tables,
    eval_boolean,
)
from htd.hypertree import Hypertree, HtVertex, validate_hd


def _semijoin_up(hd: Hypertree, order: list[int], rels: dict) -> None:
    """Bottom-up semijoin pass along the preorder, in place."""
    for vid in reversed(order):
        p = hd.parent[vid]
        if p is not None:
            ps, pr = rels[p]
            rels[p] = (ps, _semijoin(ps, pr, *rels[vid]))


def _join_project(
    s1: Schema, r1: Rows, s2: Schema, r2: Rows, keep: set[str]
) -> tuple[Schema, Rows]:
    """The join projected to keep, without building the joined rows: each
    shared key of r2 maps to the set of its kept columns, and rows of r1
    that agree on their kept columns union their matches."""
    shared = [x for x in s1 if x in s2]
    own = tuple(x for x in s1 if x in keep)
    extra = tuple(x for x in s2 if x in keep and x not in s1)
    if not extra:
        return _project(s1, _semijoin(s1, r1, s2, r2), own)
    index: dict[object, set[tuple]] = {}
    for key, ext in zip(_keys(s2, shared, r2), _pick(s2, extra, r2)):
        index.setdefault(key, set()).add(ext)
    groups: dict[tuple, set[tuple]] = {}
    for kept, key in set(zip(_pick(s1, own, r1), _keys(s1, shared, r1))):
        match = index.get(key)
        if match:
            groups.setdefault(kept, set()).update(match)
    out: set[tuple[str, ...]] = set()
    for kept, exts in groups.items():
        out.update(map(kept.__add__, exts))
    return own + extra, out


def reference_eval_full(q, db, hd=None, k_cap=5):
    head_consts = tuple(t.name for t in q.head.args if not t.is_variable)
    if q.is_boolean:
        return [head_consts] if eval_boolean(q, db, hd, k_cap) else []
    if not _ground_atoms_hold(q, db):
        return []
    head_vars = frozenset(t.name for t in q.head.args if t.is_variable)
    hd = _prepare(q, hd, k_cap)
    # the vertex tables hold ranks: spell them through the database's table
    words = db.encoding.constants
    rels = {
        vid: (schema, {tuple(words[c] for c in row) for row in rows})
        for vid, (schema, rows) in _vertex_tables(q, hd, db).items()
    }
    order = hd.preorder()
    # full reducer: semijoin up, then down
    _semijoin_up(hd, order, rels)
    for vid in order:
        v = hd.vertices[vid]
        if v.parent is not None:
            cs, cr = rels[vid]
            rels[vid] = (cs, _semijoin(cs, cr, *rels[v.parent]))
    # upward join, keeping head variables and the connection to the parent;
    # until the last child is joined, also the variables later children share
    results: dict[int, tuple[Schema, Rows]] = {}
    for vid in reversed(order):
        v = hd.vertices[vid]
        schema, rows = rels[vid]
        kids = [results[c] for c in hd.children[vid]]
        later = [set()]  # later[i]: the variables of kids[i:]
        for s, _ in reversed(kids):
            later.insert(0, later[0].union(s))
        keep = head_vars & (later[0].union(schema))
        if v.parent is not None:
            keep |= v.chi & hd.vertices[v.parent].chi
        schema, rows = _project(
            schema, rows, tuple(x for x in schema if x in keep or x in later[0])
        )
        for (s, r), needed_later in zip(kids, later[1:]):
            schema, rows = _join_project(schema, rows, s, r, keep | needed_later)
        results[vid] = schema, rows
    root_schema, root_rows = results[hd.root_id]
    missing = head_vars - frozenset(root_schema)
    if missing:
        raise InvalidDecompositionError(
            f"head variables {sorted(missing)} not covered by the decomposition"
        )
    # constants sit after the root's columns, named by their head position
    slots = root_schema + tuple(
        i for i, t in enumerate(q.head.args) if not t.is_variable
    )
    cols = tuple(t.name if t.is_variable else i for i, t in enumerate(q.head.args))
    if head_consts:
        root_rows = {row + head_consts for row in root_rows}
    return sorted(_project(slots, root_rows, cols)[1])


RELATIONS = "rstu"


def _edges(rng, shape, n):
    """Variable pairs of a tree (each new variable hangs below an earlier
    one, so some variables get several children) or of a cycle."""
    if shape == "tree":
        return [(rng.randrange(i), i) for i in range(1, n + 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def _query(rng):
    shape = rng.choice(["tree", "tree", "cycle"])
    n = rng.randint(3, 6) if shape == "tree" else rng.randint(3, 5)
    body = []
    for x, y in _edges(rng, shape, n):
        args = [variable(f"V{x}"), variable(f"V{y}")]
        rng.shuffle(args)
        body.append(Atom(rng.choice(RELATIONS), tuple(args), len(body)))
    names = sorted(set().union(*(a.variables() for a in body)))
    head = rng.sample(names, rng.randint(1, min(4, len(names))))
    if rng.random() < 0.3:
        head.insert(rng.randrange(len(head) + 1), rng.choice(head))
    args = [variable(x) for x in head]
    if rng.random() < 0.3:
        args.insert(rng.randrange(len(args) + 1), constant("k"))
    return ConjunctiveQuery(Atom("ans", tuple(args)), tuple(body))


def _database(rng):
    relations = {}
    for rel in RELATIONS:
        dom = rng.randint(6, 20)
        n = rng.randint(20, min(200, dom * dom))
        rows = set()
        while len(rows) < n:
            rows.add((f"c{rng.randrange(dom)}", f"c{rng.randrange(dom)}"))
        relations[rel] = frozenset(rows)
    return Database(relations, {rel: 2 for rel in RELATIONS})


def _rerooted(h, root):
    """The same tree hung from root: the parent links on the path from the
    old root to root are reversed."""
    parent = dict(h.parent)
    prev, vid = None, root
    while vid is not None:
        parent[vid], prev, vid = prev, vid, parent[vid]
    return Hypertree(HtVertex(v.id, parent[v.id], v.chi, v.lam) for v in h)


def _check(seed):
    rng = random.Random(seed)
    q, db = _query(rng), _database(rng)
    h = hypertree_width(q, 2)[1]
    expect = reference_eval_full(q, db, hd=h)
    assert eval_full(q, db, hd=h) == expect
    for vid in h.vertices:
        other = _rerooted(h, vid)
        if vid != h.root_id and validate_hd(q, other).valid:
            assert eval_full(q, db, hd=other) == reference_eval_full(q, db, hd=other)
    return len(expect)


def test_reference_agrees():
    answers = [_check(seed) for seed in range(60)]
    assert sum(n > 0 for n in answers) > 40  # most queries have answers


@pytest.mark.slow
@pytest.mark.parametrize("block", range(10))
def test_reference_agrees_slow(block):
    for seed in range(1000 + 200 * block, 1200 + 200 * block):
        _check(seed)


@pytest.mark.slow
@pytest.mark.parametrize(
    "text",
    [
        "ans(A,B,C,D) <- r(A,B), s(A,C), u(A,D).",
        "ans(A,E) <- r(A,B), s(B,C), t(C,D), u(D,E).",
    ],
)
def test_reference_agrees_at_benchmark_scale(text):
    # the benchmark's star and chain over its r, s, t, u: 900 distinct pairs
    # each over 150 constants; about 32,000 and 22,000 answers
    rng = random.Random(20)
    relations = {}
    for rel in RELATIONS:
        rows = set()
        while len(rows) < 900:
            rows.add((f"c{rng.randrange(150)}", f"c{rng.randrange(150)}"))
        relations[rel] = frozenset(rows)
    db = Database(relations, dict.fromkeys(RELATIONS, 2))
    q = parse_query(text)
    expect = reference_eval_full(q, db)
    assert len(expect) > 10_000
    assert eval_full(q, db) == expect
