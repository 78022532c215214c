"""``evaluate._generic_join`` against the part-at-a-time join it replaced.

The reference, ``_join`` and ``_join_connected``, is copied verbatim from
the evaluator that joined a vertex's parts one whole part at a time: smallest
first, then always the smallest part sharing a variable with the table so
far.  It builds every intermediate row, so it is slow but simple.  Both must
give the same table once projected to chi, the union of the parts' columns,
on seeded parts lists (empty-schema parts, empty relations, products, parts
whose columns are all bound, parts of up to 4 columns), and the same vertex
tables along the decompositions that ``eval_*`` can be given.
"""

import hashlib
import random

import pytest

from htd import Database, decompose, eval_boolean, eval_full, parse_query
from htd import evaluate
from htd.evaluate import (
    Rows,
    Schema,
    _generic_join,
    _keys,
    _pick,
    _semijoin,
    _vertex_tables,
)

import util

CONSTS = ["a", "b", "c", "d"]


def _join(s1: Schema, r1: Rows, s2: Schema, r2: Rows) -> tuple[Schema, Rows]:
    shared = [x for x in s1 if x in s2]
    extra = tuple(x for x in s2 if x not in s1)
    if not extra:
        return s1, _semijoin(s1, r1, s2, r2)
    index: dict[object, list[tuple]] = {}
    for key, ext in zip(_keys(s2, shared, r2), _pick(s2, extra, r2)):
        index.setdefault(key, []).append(ext)
    out: set[tuple[str, ...]] = set()
    for row, key in zip(r1, _keys(s1, shared, r1)):
        match = index.get(key)
        if match:
            out.update(map(row.__add__, match))
    return s1 + extra, out


def _join_connected(parts: list[tuple[Schema, Rows]]) -> tuple[Schema, Rows]:
    """Join smallest first, always taking the smallest part that shares a
    variable with the table so far while one is left; stop once empty."""
    parts = sorted(parts, key=lambda p: len(p[1]))
    schema, rows = parts.pop(0) if parts else ((), {()})
    while parts and rows:
        cols = set(schema)
        i = next((i for i, (s, _) in enumerate(parts) if cols.intersection(s)), 0)
        schema, rows = _join(schema, rows, *parts.pop(i))
    return schema, rows


def _on_chi(parts: list, joined: tuple[Schema, Rows]) -> set:
    """The joined rows over chi, the sorted union of the parts' columns."""
    schema, rows = joined
    chi = tuple(sorted(set().union(*(s for s, _ in parts))))
    return set(_pick(schema, chi, rows)) if rows else set()


def _rand_parts(rng: random.Random) -> list[tuple[Schema, Rows]]:
    # two variable pools, so that some lists fall into products; values from
    # a small domain, so that joins keep rows
    pools = ["ABCDEF", "PQR"] if rng.random() < 0.3 else ["ABCDEF"]
    dom = CONSTS[: rng.randint(2, 4)]
    parts: list[tuple[Schema, Rows]] = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.1:
            parts.append(((), rng.choice([{()}, set()])))
            continue
        if roll < 0.3 and parts:  # columns all bound once its source is
            source, _ = rng.choice(parts)
            schema = tuple(rng.sample(source, rng.randint(0, len(source))))
        else:
            pool = rng.choice(pools)
            schema = tuple(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        size = 0 if rng.random() < 0.1 else rng.randint(1, 3 * len(dom) ** 2)
        rows = {tuple(rng.choice(dom) for _ in schema) for _ in range(size)}
        parts.append((schema, rows))
    return parts


def _check_parts(seed: int) -> int:
    rng = random.Random(seed)
    parts = _rand_parts(rng)
    expect = _on_chi(parts, _join_connected(parts))
    assert _on_chi(parts, _generic_join(list(parts))) == expect, parts
    return len(expect)


def test_generic_join_matches_reference_on_parts():
    sizes = [_check_parts(seed) for seed in range(4000)]
    # the corpus must not be trivially empty
    assert sum(1 for n in sizes if n) > 1500


def test_generic_join_edge_parts():
    ab = (("A", "B"), {("a", "b"), ("b", "b")})
    c = (("C",), {("a",), ("c",)})
    for parts in (
        [],
        [((), {()})],
        [((), set())],
        [ab, ((), {()})],
        [ab, ((), set())],
        [ab, (("A", "B"), set())],
        [ab, c],  # a product
        [ab, (("B",), {("b",)}), (("A",), {("a",)})],  # all bound
        [ab, c, (("B", "A", "C", "D"), {("b", "a", "c", "d"), ("b", "b", "c", "e")})],
    ):
        expect = _on_chi(parts, _join_connected(parts))
        assert _on_chi(parts, _generic_join(list(parts))) == expect, parts


def _vertex_tables_agree(seed: int, monkeypatch) -> None:
    rng = random.Random(seed)
    q = util.rand_query(
        rng, max_atoms=6, max_arity=4, consts=CONSTS, head_vars=True,
        consistent_arity=True,
    )
    db = util.rand_db(rng, q, CONSTS, max_facts=20)
    if not q.variables():
        return
    k = 1
    while (h := decompose(q, k)) is None:
        k += 1
    for hd in (util.trivial_hd(q), h):
        got = _vertex_tables(q, hd, db)
        with monkeypatch.context() as m:
            m.setattr(evaluate, "_generic_join", _join_connected)
            expect = _vertex_tables(q, hd, db)
        assert {v: (s, set(r)) for v, (s, r) in got.items()} == {
            v: (s, set(r)) for v, (s, r) in expect.items()
        }, (str(q), seed)


def test_vertex_tables_match_reference(monkeypatch):
    for seed in range(1000):
        _vertex_tables_agree(seed, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("block", range(5))
def test_join_matches_reference_slow(block, monkeypatch):
    for seed in range(10_000 + 3_000 * block, 13_000 + 3_000 * block):
        _check_parts(seed)
    for seed in range(10_000 + 1_000 * block, 11_000 + 1_000 * block):
        _vertex_tables_agree(seed, monkeypatch)


@pytest.mark.slow
def test_baseline_triangle_matches_reference(monkeypatch):
    # r, s, t: 18k distinct pairs each over 300 constants.  The reference
    # builds r x s, about 1.08M rows, before t filters it
    rng = random.Random(2024)
    relations = {}
    for rel in "rst":
        rows: set = set()
        while len(rows) < 18_000:
            rows.add((f"c{rng.randrange(300)}", f"c{rng.randrange(300)}"))
        relations[rel] = frozenset(rows)
    db = Database(relations, {rel: 2 for rel in relations})
    q = parse_query("ans(A,B,C) <- r(A,B), s(B,C), t(C,A).")

    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    got = eval_boolean(q, db), digest(eval_full(q, db))
    with monkeypatch.context() as m:
        m.setattr(evaluate, "_generic_join", _join_connected)
        expect = eval_boolean(q, db), digest(eval_full(q, db))
    assert got == expect == (True, got[1])
