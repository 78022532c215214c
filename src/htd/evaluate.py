"""Decomposition-guided query evaluation.

A width-k decomposition turns the query into an acyclic one: each vertex gets
the join of its labeled atoms, and of every atom whose variables it covers,
projected to the vertex variables.  The tree is then processed with semijoin
passes (bottom-up for the Boolean answer, both directions plus an upward
join that projects as it goes for full answers).  ``brute_force_eval`` is an
independent backtracking evaluator used as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator, Optional

from .detect import hypertree_width
from .errors import DatabaseFormatError, InconclusiveError, InvalidDecompositionError
from .hypertree import Hypertree, JoinTree, JtVertex, _require_hd, complete_hd, is_complete
from .model import Atom, ConjunctiveQuery, Database, variable

Schema = tuple[str, ...]
Rows = AbstractSet[tuple[str, ...]]


def _keys(schema: Schema, cols: Iterable[str], rows: Rows) -> Iterator:
    """Each row's values on cols, in the rows' iteration order: a bare value
    for one column, else a tuple.  Only for comparing with keys built the
    same way."""
    pos = [schema.index(x) for x in cols]
    if not pos:
        return repeat((), len(rows))
    return map(itemgetter(*pos), rows)


def _pick(schema: Schema, cols: Schema, rows: Rows) -> Iterator[tuple]:
    """Each row's values on cols as a tuple, in the rows' iteration order."""
    if len(cols) == 1:
        return zip(_keys(schema, cols, rows))
    return _keys(schema, cols, rows)


def _atom_rows(a: Atom, db: Database) -> tuple[Schema, Rows]:
    """Matching assignments: constants select, repeated variables equate."""
    if a.relation in db.arities and db.arities[a.relation] != len(a.args):
        raise DatabaseFormatError(
            f"relation {a.relation} has arity {db.arities[a.relation]}, "
            f"query uses {len(a.args)}"
        )
    schema = tuple(sorted(a.variables()))
    tuples = db.tuples(a.relation)
    if set(map(len, tuples)) - {len(a.args)}:
        tuples = {t for t in tuples if len(t) == len(a.args)}
    names = tuple(t.name for t in a.args if t.is_variable)
    if len(names) == len(schema) == len(a.args):
        # distinct variables only: a fixed permutation of every tuple
        return _project(names, tuples, schema)
    rows: set[tuple[str, ...]] = set()
    for t in tuples:
        env: dict[str, str] = {}
        ok = True
        for term, val in zip(a.args, t):
            if term.is_variable:
                if env.setdefault(term.name, val) != val:
                    ok = False
                    break
            elif term.name != val:
                ok = False
                break
        if ok:
            rows.add(tuple(env[x] for x in schema))
    return schema, rows


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


def _semijoin(s1: Schema, r1: Rows, s2: Schema, r2: Rows) -> Rows:
    shared = [x for x in s1 if x in s2]
    keys = set(_keys(s2, shared, r2))
    return set(compress(r1, map(keys.__contains__, _keys(s1, shared, r1))))


def _project(s: Schema, r: Rows, keep: Schema) -> tuple[Schema, Rows]:
    return keep, (r if keep == s else set(_pick(s, keep, r)))


@dataclass(frozen=True)
class AcyclicInstance:
    """The acyclic query equivalent to Q under a complete decomposition:
    one atom per vertex over chi(p), with precomputed relations."""

    query: ConjunctiveQuery
    db: Database
    tree: JoinTree


def shrink(q: ConjunctiveQuery, db: Database, h: Hypertree) -> AcyclicInstance:
    """Turn (Q, DB) into an acyclic instance along a complete decomposition."""
    tables = _vertex_tables(q, h, db)
    order = h.preorder()
    pos = {vid: i for i, vid in enumerate(order)}
    atoms = []
    relations = {}
    arities = {}
    jt = []
    for i, vid in enumerate(order):
        schema, rows = tables[vid]
        name = f"v{vid}"
        atoms.append(Atom(name, tuple(variable(x) for x in schema), i))
        relations[name] = frozenset(rows)
        arities[name] = len(schema)
        parent = h.vertices[vid].parent
        jt.append(JtVertex(i, None if parent is None else pos[parent]))
    query = ConjunctiveQuery(Atom("ans", ()), tuple(atoms))
    return AcyclicInstance(query, Database(relations, arities), JoinTree(jt))


def _vertex_tables(
    q: ConjunctiveQuery, h: Hypertree, db: Database
) -> dict[int, tuple[Schema, Rows]]:
    """Per-vertex relation over sorted chi(p): the join of the lambda atoms
    and of every atom A with var(A) inside chi(p), each projected to its
    overlap with chi(p).  Every solution restricted to chi(p) satisfies such
    an A, so folding it in drops only rows that no solution uses, and the
    width stays the same.  Each distinct atom is scanned once per call."""
    scans: dict[tuple, tuple[Schema, Rows]] = {}
    parts_of: dict[tuple, tuple[Schema, Rows]] = {}
    out: dict[int, tuple[Schema, Rows]] = {}
    for v in h:
        parts = []
        for i, a in enumerate(q.body):
            va = a.variables()
            if i not in v.lam and not (va and va <= v.chi):
                continue
            scan = (a.relation, a.args)
            overlap = tuple(sorted(va & v.chi))
            if (scan, overlap) not in parts_of:
                if scan not in scans:
                    scans[scan] = _atom_rows(a, db)
                parts_of[scan, overlap] = _project(*scans[scan], overlap)
            parts.append(parts_of[scan, overlap])
        schema, rows = _join_connected(parts)
        chi = tuple(sorted(v.chi))
        out[v.id] = _project(schema, rows, chi) if rows else (chi, set())
    return out


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


def _prepare(
    q: ConjunctiveQuery,
    db: Database,
    hd: Optional[Hypertree],
    k_cap: int,
) -> Hypertree:
    if hd is None:
        found = hypertree_width(q, k_cap)
        if found is None:
            raise InconclusiveError(
                f"hypertree width exceeds the cap {k_cap}; "
                "supply a decomposition or raise the cap"
            )
        hd = found[1]
    else:
        _require_hd(q, hd)
    if not is_complete(q, hd):
        hd = complete_hd(q, hd)
    return hd


def _ground_atoms_hold(q: ConjunctiveQuery, db: Database) -> bool:
    """Every variable-free atom is a fact; arities are checked as for any
    other atom."""
    return all(_atom_rows(a, db)[1] for a in q.body if not a.variables())


def _variable_free_ok(q: ConjunctiveQuery, db: Database) -> bool:
    """Every variable-free atom is a fact; raises DatabaseFormatError on an
    atom whose relation has another arity in the database."""
    for a in q.body:
        arity = db.arities.get(a.relation, len(a.args))
        if arity != len(a.args):
            raise DatabaseFormatError(
                f"relation {a.relation} has arity {arity}, query uses {len(a.args)}"
            )
    return all(
        tuple(t.name for t in a.args) in db.tuples(a.relation)
        for a in q.body
        if not a.variables()
    )


def _semijoin_up(hd: Hypertree, order: list[int], rels: dict) -> None:
    """Bottom-up semijoin pass along the preorder, in place."""
    for vid in reversed(order):
        p = hd.parent[vid]
        if p is not None:
            ps, pr = rels[p]
            rels[p] = (ps, _semijoin(ps, pr, *rels[vid]))


def eval_boolean(
    q: ConjunctiveQuery,
    db: Database,
    hd: Optional[Hypertree] = None,
    k_cap: int = 5,
) -> bool:
    """Does the body have at least one satisfying assignment?"""
    if not _ground_atoms_hold(q, db):
        return False
    if not any(a.variables() for a in q.body):
        return True
    hd = _prepare(q, db, hd, k_cap)
    rels = _vertex_tables(q, hd, db)
    _semijoin_up(hd, hd.preorder(), rels)
    return bool(rels[hd.root_id][1])


def eval_full(
    q: ConjunctiveQuery,
    db: Database,
    hd: Optional[Hypertree] = None,
    k_cap: int = 5,
) -> list[tuple[str, ...]]:
    """All answers, sorted; each row follows the head argument order."""
    head_consts = tuple(t.name for t in q.head.args if not t.is_variable)
    if q.is_boolean:
        return [head_consts] if eval_boolean(q, db, hd, k_cap) else []
    if not _ground_atoms_hold(q, db):
        return []
    head_vars = frozenset(t.name for t in q.head.args if t.is_variable)
    hd = _prepare(q, db, hd, k_cap)
    rels = _vertex_tables(q, hd, db)
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


def brute_force_eval(q: ConjunctiveQuery, db: Database) -> list[tuple[str, ...]]:
    """Backtracking over body atoms; independent of any decomposition."""
    if not _variable_free_ok(q, db):
        return []
    answers: set[tuple[str, ...]] = set()
    atoms = [a for a in q.body if a.variables()]

    def rec(i: int, env: dict[str, str]):
        if i == len(atoms):
            answers.add(
                tuple(
                    env[t.name] if t.is_variable else t.name
                    for t in q.head.args
                )
            )
            return
        a = atoms[i]
        for t in db.tuples(a.relation):
            if len(t) != len(a.args):
                continue
            local = dict(env)
            ok = True
            for term, val in zip(a.args, t):
                if term.is_variable:
                    if local.setdefault(term.name, val) != val:
                        ok = False
                        break
                elif term.name != val:
                    ok = False
                    break
            if ok:
                rec(i + 1, local)

    rec(0, {})
    return sorted(answers)


def format_answers(q: ConjunctiveQuery, rows: list[tuple[str, ...]]) -> str:
    """One line per answer: ``ans(c1,...,cn).`` using the head relation."""
    lines = []
    for row in rows:
        if row:
            lines.append(f"{q.head.relation}({','.join(row)}).")
        else:
            lines.append(f"{q.head.relation}.")
    return "\n".join(lines) + ("\n" if lines else "")
