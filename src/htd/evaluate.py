"""Decomposition-guided query evaluation.

A width-k decomposition turns the query into an acyclic one: each vertex gets
the join of its labeled atoms projected to the vertex variables, and the tree
is then processed with semijoin passes (bottom-up for the Boolean answer, both
directions plus an upward join for full answers).  ``brute_force_eval`` is an
independent backtracking evaluator used as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .detect import hypertree_width
from .errors import DatabaseFormatError, InconclusiveError, InvalidDecompositionError
from .hypertree import Hypertree, JoinTree, JtVertex, _require_hd, complete_hd, is_complete
from .model import Atom, ConjunctiveQuery, Database, variable

Schema = tuple[str, ...]
Rows = set[tuple[str, ...]]


def _atom_rows(a: Atom, db: Database) -> tuple[Schema, Rows]:
    """Matching assignments: constants select, repeated variables equate."""
    if a.relation in db.arities and db.arities[a.relation] != len(a.args):
        raise DatabaseFormatError(
            f"relation {a.relation} has arity {db.arities[a.relation]}, "
            f"query uses {len(a.args)}"
        )
    schema = tuple(sorted(a.variables()))
    rows: Rows = set()
    for t in db.tuples(a.relation):
        if len(t) != len(a.args):
            continue
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
    extra = [x for x in s2 if x not in s1]
    out_schema = s1 + tuple(extra)
    pos1 = [s1.index(x) for x in shared]
    pos2 = [s2.index(x) for x in shared]
    posx = [s2.index(x) for x in extra]
    index: dict[tuple, list] = {}
    for row in r2:
        index.setdefault(tuple(row[i] for i in pos2), []).append(row)
    out: Rows = set()
    for row in r1:
        for match in index.get(tuple(row[i] for i in pos1), ()):
            out.add(row + tuple(match[i] for i in posx))
    return out_schema, out


def _semijoin(s1: Schema, r1: Rows, s2: Schema, r2: Rows) -> Rows:
    shared = [x for x in s1 if x in s2]
    pos1 = [s1.index(x) for x in shared]
    pos2 = [s2.index(x) for x in shared]
    keys = {tuple(row[i] for i in pos2) for row in r2}
    return {row for row in r1 if tuple(row[i] for i in pos1) in keys}


def _project(s: Schema, r: Rows, keep: Schema) -> tuple[Schema, Rows]:
    pos = [s.index(x) for x in keep]
    return keep, {tuple(row[i] for i in pos) for row in r}


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
    jt = []
    for i, vid in enumerate(order):
        schema, rows = tables[vid]
        name = f"v{vid}"
        atoms.append(Atom(name, tuple(variable(x) for x in schema), i))
        relations[name] = frozenset(rows)
        parent = h.vertices[vid].parent
        jt.append(JtVertex(i, None if parent is None else pos[parent]))
    query = ConjunctiveQuery(Atom("ans", ()), tuple(atoms))
    db_prime = Database(relations, {n: len(next(iter(r), ())) for n, r in relations.items()})
    return AcyclicInstance(query, db_prime, JoinTree(jt))


def _vertex_tables(
    q: ConjunctiveQuery, h: Hypertree, db: Database
) -> dict[int, tuple[Schema, Rows]]:
    """Per-vertex relation over chi(p): join of the lambda atoms, each
    projected to its overlap with chi(p)."""
    out: dict[int, tuple[Schema, Rows]] = {}
    for v in h:
        schema: Schema = ()
        rows: Rows = {()}
        for i in sorted(v.lam):
            a = q.body[i]
            overlap = tuple(sorted(a.variables() & v.chi))
            s_a, r_a = _atom_rows(a, db)
            if a.variables() and not overlap:
                # no shared variables: only emptiness matters
                if not r_a:
                    rows = set()
                continue
            s_a, r_a = _project(s_a, r_a, overlap)
            schema, rows = _join(schema, rows, s_a, r_a)
        out[v.id] = _project(schema, rows, tuple(sorted(v.chi)))
    return out


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


def _variable_free_ok(q: ConjunctiveQuery, db: Database) -> bool:
    for a in q.body:
        if not a.variables():
            if tuple(t.name for t in a.args) not in db.tuples(a.relation):
                return False
    return True


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
    if not _variable_free_ok(q, db):
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
    if not _variable_free_ok(q, db):
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
    # upward join, keeping head variables and the connection to the parent
    results: dict[int, tuple[Schema, Rows]] = {}
    for vid in reversed(order):
        v = hd.vertices[vid]
        schema, rows = rels[vid]
        for c in hd.children[vid]:
            schema, rows = _join(schema, rows, *results[c])
        if v.parent is None:
            keep = head_vars & frozenset(schema)
        else:
            parent_chi = hd.vertices[v.parent].chi
            keep = (v.chi & parent_chi) | (head_vars & frozenset(schema))
        results[vid] = _project(schema, rows, tuple(sorted(keep)))
    root_schema, root_rows = results[hd.root_id]
    missing = head_vars - frozenset(root_schema)
    if missing:
        raise InvalidDecompositionError(
            f"head variables {sorted(missing)} not covered by the decomposition"
        )
    out = []
    for row in root_rows:
        env = dict(zip(root_schema, row))
        out.append(
            tuple(env[t.name] if t.is_variable else t.name for t in q.head.args)
        )
    return sorted(set(out))


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
