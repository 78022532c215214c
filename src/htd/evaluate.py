"""Decomposition-guided query evaluation.

A width-k decomposition turns the query into an acyclic one.  The tree is
first contracted: a vertex whose variables lie inside a neighbour's adds no
constraint, so it is merged into that neighbour.  Each vertex then gets the
join of its labeled atoms, and of every atom whose variables it covers,
projected to the vertex variables.  The tree is processed with semijoin
passes (bottom-up for the Boolean answer; for full answers both directions,
then one factorized upward pass that builds answer rows only at the root,
in sorted order, as products of sorted lists).

Every table holds the ranks of the constants in the database's sorted
constant table (``Database.encoding``), which sort as the constants do.
Answers are decoded at the root only, list by list before the products, and
``shrink`` decodes its tables.

``eval_boolean``, ``eval_full`` and ``shrink`` pause Python's cyclic garbage
collector for the call (``_collector_paused``).  Their tuples, sets, lists
and dicts form no reference cycles, so reference counting frees every object
they drop and the collector has nothing to find; left on, it would only
rescan the growing tables each time their allocations pass its threshold.
Nothing waits for it, so memory is unchanged, and a caller that disabled the
collector keeps it disabled.  The switch is process-wide and the pause
assumes one evaluating thread: a change another thread makes to it during a
call is undone when the call returns, and a thread that starts evaluating
while another's pause is on loses its own pause when that one ends.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import cache, reduce, wraps
from itertools import chain, compress, product, repeat, starmap
from operator import and_, attrgetter, getitem, itemgetter
from typing import Collection, Iterable, Iterator, Optional

from .detect import hypertree_width
from .errors import DatabaseFormatError, InconclusiveError
from .hypertree import Hypertree, HtVertex, JoinTree, JtVertex, _require_hd
from .model import Atom, ConjunctiveQuery, Database, format_constant, variable

Schema = tuple[str, ...]
Rows = Collection[tuple[int, ...]]  # ranks of constants


def _collector_paused(f):
    """f with the cyclic garbage collector disabled for the call and enabled
    again however it ends; if it was off already, f runs as it is."""

    @wraps(f)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return f(*args, **kwargs)
        gc.disable()
        try:
            return f(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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


def _check_arity(a: Atom, db: Database) -> None:
    if a.relation in db.arities and db.arities[a.relation] != len(a.args):
        raise DatabaseFormatError(
            f"relation {a.relation} has arity {db.arities[a.relation]}, "
            f"query uses {len(a.args)}"
        )


def _atom_rows(a: Atom, db: Database) -> tuple[Schema, Rows]:
    """Matching assignments over ranks: constants select (one the database
    lacks has no rank and matches nothing), repeated variables equate."""
    _check_arity(a, db)
    schema = tuple(sorted(a.variables()))
    enc = db.encoding
    tuples = enc.relations.get(a.relation, frozenset())
    if set(map(len, tuples)) - {len(a.args)}:
        tuples = {t for t in tuples if len(t) == len(a.args)}
    names = tuple(t.name for t in a.args if t.is_variable)
    if len(names) == len(schema) == len(a.args):
        # distinct variables only: a fixed permutation of every tuple
        return _project(names, tuples, schema)
    terms = [(t.is_variable, t.name if t.is_variable else enc.rank.get(t.name))
             for t in a.args]
    rows: set[tuple[int, ...]] = set()
    for t in tuples:
        env: dict[str, int] = {}
        for (is_variable, x), val in zip(terms, t):
            if is_variable:
                if env.setdefault(x, val) != val:
                    break
            elif x != val:
                break
        else:
            rows.add(tuple(env[x] for x in schema))
    return schema, rows


def _semijoin(s1: Schema, r1: Rows, s2: Schema, r2: Rows) -> Rows:
    shared = [x for x in s1 if x in s2]
    keys = set(_keys(s2, shared, r2))
    return set(compress(r1, map(keys.__contains__, _keys(s1, shared, r1))))


def _project(s: Schema, r: Rows, keep: Schema) -> tuple[Schema, Rows]:
    return keep, (r if keep == s else set(_pick(s, keep, r)))


@dataclass(frozen=True)
class AcyclicInstance:
    """The acyclic query equivalent to Q under any valid decomposition:
    one atom per vertex over chi(p), with precomputed relations."""

    query: ConjunctiveQuery
    db: Database
    tree: JoinTree


@_collector_paused
def shrink(q: ConjunctiveQuery, db: Database, h: Hypertree) -> AcyclicInstance:
    """Turn (Q, DB) into an acyclic instance along any valid decomposition,
    keeping one atom per vertex of h: unlike evaluation, it does not contract
    the tree."""
    tables = _vertex_tables(q, h, db)
    words = db.encoding.constants
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
        relations[name] = frozenset(_decoded(words, rows))
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
    width stays the same.  HD1 gives every atom such a vertex, so any valid
    decomposition will do.  Each distinct atom is scanned once per call.

    Atom i is folded into the vertices of h._covers(q)[i], those whose chi
    holds var(A_i), so no vertex scans the body; a variable-free atom is
    folded into every vertex."""
    avars = [a.variables() for a in q.body]
    folded = {v.id: set(v.lam) for v in h}
    for i, covers in enumerate(h._covers(q)):
        for vid in covers:
            folded[vid].add(i)
    scans: dict[tuple, tuple[Schema, Rows]] = {}
    parts_of: dict[tuple, tuple[Schema, Rows]] = {}
    out: dict[int, tuple[Schema, Rows]] = {}
    for v in h:
        parts = []
        for i in sorted(folded[v.id]):
            a = q.body[i]
            scan = (a.relation, a.args)
            overlap = tuple(sorted(avars[i] & v.chi))
            if (scan, overlap) not in parts_of:
                if scan not in scans:
                    scans[scan] = _atom_rows(a, db)
                parts_of[scan, overlap] = _project(*scans[scan], overlap)
            parts.append(parts_of[scan, overlap])
        schema, rows = _generic_join(parts)
        chi = tuple(sorted(v.chi))
        out[v.id] = _project(schema, rows, chi) if rows else (chi, set())
    return out


def _generic_join(parts: list[tuple[Schema, Rows]]) -> tuple[Schema, Rows]:
    """Generic Join (Ngo, Porat, Re, Rudra, PODS 2012), within the AGM bound
    of the parts: from the smallest part, bind one variable x at a time, from
    the smallest part meeting the bound ones (else the smallest: a product).
    Each part holding x maps its bound columns to its x values, and each row
    takes the intersection of its sets (each & walks the smaller).  A part
    whose columns are all bound is applied as a semijoin; stop once empty."""
    parts = sorted(parts, key=lambda p: len(p[1]))
    schema, rows = parts.pop(0) if parts else ((), {()})
    while parts and rows:
        cols = set(schema)
        full = next((p for p in parts if cols.issuperset(p[0])), None)
        if full:
            rows = _semijoin(schema, rows, *full)
            parts = [p for p in parts if p is not full]
            continue
        first = next((s for s, _ in parts if cols.intersection(s)), parts[0][0])
        x = next(y for y in first if y not in cols)
        allowed = []  # per part holding x: each row's x values, as 1-tuples
        for s, r in parts:
            if x in s:
                bound = [y for y in s if y in cols]
                index: dict[object, set] = {}
                for key, val in zip(_keys(s, bound, r), _pick(s, (x,), r)):
                    index.setdefault(key, set()).add(val)
                keys = _keys(schema, bound, rows)
                allowed.append(map(index.get, keys, repeat(frozenset())))
        exts = reduce(lambda a, b: map(and_, a, b), allowed)
        # row + (v,) for each row and each of its x values, in one C-level pass
        adders = map(attrgetter("__add__"), rows)
        rows = list(chain.from_iterable(map(map, adders, exts)))
        schema += (x,)
        cols.add(x)
        parts = [p for p in parts if not cols.issuperset(p[0])]
    return schema, rows


def _prepare(
    q: ConjunctiveQuery, hd: Optional[Hypertree], k_cap: int
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
    return _contract(hd)


def _contract(h: Hypertree) -> Hypertree:
    """h with every vertex whose chi lies inside a neighbour's merged away,
    children first: into its parent if the parent's chi holds it, else into
    the first such child, which takes over its parent link and its other
    children.  Absorbers keep their own chi and lam, so every atom whose
    variables a merged vertex covered is covered by its absorber, and each
    variable's holders stay connected; by that connectedness no kept vertex
    has a chi inside a neighbour's.  The result may break HD4, so it serves
    evaluation only; h itself is returned if nothing merges."""
    chi = {v.id: v.chi for v in h}
    parent = dict(h.parent)
    kids = {vid: dict.fromkeys(cs) for vid, cs in h.children.items()}
    for vid in reversed(h._topdown):
        p, rest = parent[vid], kids[vid]
        if p is not None and chi[vid] <= chi[p]:
            into = p
        else:
            into = next((c for c in rest if chi[vid] <= chi[c]), None)
            if into is None:
                continue
            del rest[into]
            parent[into] = p
            if p is not None:
                kids[p][into] = None
        if p is not None:
            del kids[p][vid]
        for c in rest:
            parent[c] = into
        kids[into].update(rest)
        del parent[vid]
    if len(parent) == len(h):
        return h
    return Hypertree(
        HtVertex(vid, p, chi[vid], h.vertices[vid].lam) for vid, p in parent.items()
    )


def _ground_atoms_hold(q: ConjunctiveQuery, db: Database) -> bool:
    """Every variable-free atom is a fact; raises DatabaseFormatError first
    if any body atom's relation has another arity in the database."""
    for a in q.body:
        _check_arity(a, db)
    return all(
        tuple(t.name for t in a.args) in db.tuples(a.relation)
        for a in q.body
        if not a.variables()
    )


@_collector_paused
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
    hd = _prepare(q, hd, k_cap)
    rels = _vertex_tables(q, hd, db)
    _reduce(hd, rels, down=False)
    return bool(rels[hd.root_id][1])


@_collector_paused
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
    head = tuple(dict.fromkeys(t.name for t in q.head.args if t.is_variable))
    hd = _prepare(q, hd, k_cap)
    rels = _vertex_tables(q, hd, db)
    _reduce(hd, rels, down=True)
    cols, rows = _extend_up(hd, rels, head, db.encoding.constants)
    # constants sit after the answer columns, named by their head position;
    # they and repeated columns keep rows sorted, a permuted head does not
    slots = cols + tuple(i for i, t in enumerate(q.head.args) if not t.is_variable)
    want = tuple(t.name if t.is_variable else i for i, t in enumerate(q.head.args))
    rows = [row + head_consts for row in rows] if head_consts else rows
    rows = rows if want == slots else list(_pick(slots, want, rows))
    return rows if cols == head else sorted(rows)


def _reduce(hd: Hypertree, rels: dict, down: bool) -> None:
    """Yannakakis' semijoin passes in place: bottom-up, each vertex keeps the
    rows that meet every child's; with down, then top-down, each child keeps
    the rows that meet its parent's (the full reducer)."""
    order = hd.preorder()
    for vid in reversed(order):
        schema, rows = rels[vid]
        for c in hd.children[vid]:
            rows = _semijoin(schema, rows, *rels[c])
        rels[vid] = schema, rows
    for vid in order[1:] if down else ():
        schema, rows = rels[vid]
        rels[vid] = schema, _semijoin(schema, rows, *rels[hd.parent[vid]])


def _extend_up(
    hd: Hypertree, rels: dict, head: Schema, words: tuple[str, ...]
) -> tuple[Schema, list[tuple[str, ...]]]:
    """The answers over fully reduced vertex tables, sorted, factorized
    (Olteanu and Zavodny, TODS 2015): each vertex below the root hands its
    parent a map from its key on chi(v) & chi(parent) to the set of its
    extensions (bare values if one column): its own head variables (those
    outside chi(parent), in head order), then the extensions of the children
    that carry any; by HD2 each head variable has one owner.  Rows are built
    only at the root, group by group in order: a group meeting one key per
    child is the product of its own values and each child's sorted list
    there, sorted and duplicate-free; else the sorted union of products.
    The root spells each sorted list, union and group's own values through
    words before the products, so no answer row is decoded by itself."""
    done: dict[int, tuple[Schema, Schema, dict]] = {}  # cols, key cols, table
    for vid in reversed(hd.preorder()):
        schema, rows = rels[vid]
        p = hd.parent[vid]
        above = frozenset() if p is None else hd.vertices[p].chi
        own = tuple(x for x in head if x in schema and x not in above)
        kids = [done[c] for c in hd.children[vid] if done[c][0]]
        kids.sort(key=lambda kid: head.index(kid[0][0]))  # toward head order
        cols = own + tuple(x for kid in kids for x in kid[0])
        conn = tuple(x for x in schema if x in above)
        keys = _keys(schema, conn, rows)
        table: dict = {}
        if not kids:
            if p is None:
                return cols, _decoded(words, sorted(_project(schema, rows, own)[1]))
            for key, o in zip(keys, _keys(schema, own, rows)) if cols else ():
                table.setdefault(key, set()).add(o)
        else:
            # (key, own values), or own values at the root -> children's keys met
            groups: dict[tuple, set] = {}
            one = len(kids) == 1  # then a child's key stands alone
            pairs = _pick(schema, own, rows)
            at_of = [_keys(schema, kid[1], rows) for kid in kids]
            for pair, at in set(zip(pairs if p is None else zip(keys, pairs),
                                    at_of[0] if one else zip(*at_of))):
                groups.setdefault(pair, set()).add(at)
            tables = [kid[2] for kid in kids]
            widths = [1] * len(own) + [len(kid[0]) for kid in kids]
            joined = widths[: len(own)] + [len(cols) - len(own)]
            alone = p is None and not one  # root groups meeting one key: no union
            unions = [ats for ats in groups.values() if not alone or len(ats) > 1]
            ext_of = tables[0] if one else {  # the product of the children's sets
                at: set(_product(list(map(getitem, tables, at)), widths[len(own):]))
                for at in set().union(*unions)
            }
            if p is None:  # each list sorted once, per (child, key) or set of keys
                lists = [{k: _decoded(words, sorted(e), w == 1) for k, e in t.items()}
                         for t, w in zip(tables, widths[len(own):]) if alone]
                merged = {s: set().union(*map(ext_of.__getitem__, s))
                          for s in set(map(frozenset, unions))}
                merged = {s: _decoded(words, sorted(e), joined[-1] == 1)
                          for s, e in merged.items()}
                order = sorted(groups)
                spell = words.__getitem__
                parts = (
                    ([*zip(map(spell, o)), *map(getitem, lists, [*ats][0])], widths)
                    if alone and len(ats) == 1
                    else ([*zip(map(spell, o)), merged[frozenset(ats)]], joined)
                    for o, ats in zip(order, map(groups.__getitem__, order))
                )
                return cols, list(chain.from_iterable(starmap(_product, parts)))
            for (key, o), ats in groups.items():
                exts = set().union(*map(ext_of.__getitem__, ats))
                table.setdefault(key, set()).update(
                    _product([*zip(o), exts], joined) if o else exts
                )
        done[vid] = cols, conn, table
    return (), []


def _decoded(words: tuple[str, ...], values: Iterable, bare: bool = False) -> list:
    """Rank tuples, or bare ranks, spelled as constants in the same order."""
    spell = words.__getitem__
    if bare:
        return list(map(spell, values))
    return list(map(tuple, map(map, repeat(spell), values)))


def _product(factors: list, widths: list[int]) -> Iterable[tuple]:
    """The product of factors as flat tuples, in order; a factor of width 1
    holds bare values, a wider one tuples, and a wide one alone is kept."""
    if max(widths) == 1:
        return product(*factors)
    if len(factors) == 1:
        return factors[0]
    wrapped = [f if w > 1 else zip(f) for f, w in zip(factors, widths)]
    return map(sum, product(*wrapped), repeat(()))


def answer_lines(q: ConjunctiveQuery, rows: Iterable[tuple[str, ...]]) -> Iterator[str]:
    """Each answer as a line ``ans(c1,...,cn).`` using the head relation;
    each distinct constant is formatted once."""
    rel = q.head.relation
    spell = cache(format_constant)
    for row in rows:
        yield f"{rel}({','.join(map(spell, row))}).\n" if row else f"{rel}.\n"


def format_answers(q: ConjunctiveQuery, rows: list[tuple[str, ...]]) -> str:
    """One line per answer: ``ans(c1,...,cn).`` using the head relation."""
    return "".join(answer_lines(q, rows))
