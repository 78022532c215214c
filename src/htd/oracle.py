"""Independent oracles: ``gyo_acyclic`` (ear removal) checks acyclicity,
``fixpoint_decide`` (bottom-up, decision only) and ``brute_force_qw`` (a
budgeted search over query decompositions: hypertree width <= query width)
check the width search, and ``brute_force_eval`` (backtracking) checks
evaluation.  None reads the component index, the search or the evaluator,
so a fault there cannot mislead the oracle that checks it.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import Optional

from .errors import DatabaseFormatError, InconclusiveError
from .hypertree import QdVertex, QueryDecomposition
from .model import ConjunctiveQuery, Database


def gyo_acyclic(q: ConjunctiveQuery) -> bool:
    """Ear removal: repeatedly drop solitary variables and covered edges.

    Queue-based, linear in the total arity apart from the cover tests
    (Tarjan & Yannakakis 1984).  An edge can lose a variable, and so become
    covered or empty, only when one of its variables drops to a single
    holder, so only then is that holder queued again.  A cover of e holds
    every variable of e, so e is tested only against the holders of its
    rarest variable.
    """
    edges: list[Optional[set[str]]] = [set(a.variables()) for a in q.body]
    holders: dict[str, set[int]] = {}
    for i, e in enumerate(edges):
        for x in e:
            holders.setdefault(x, set()).add(i)
    left = len(edges)
    queue = list(range(left))
    while queue:
        i = queue.pop()
        e = edges[i]
        if e is None:
            continue
        for x in [x for x in e if len(holders[x]) == 1]:
            e.remove(x)
            del holders[x]
        if e:
            rarest = min(e, key=lambda x: len(holders[x]))
            if not any(j != i and e <= edges[j] for j in holders[rarest]):
                continue
        edges[i] = None
        left -= 1
        for x in e:
            rest = holders[x]
            rest.remove(i)
            if len(rest) == 1:
                queue.extend(rest)
    return not left


def fixpoint_decide(q: ConjunctiveQuery, k: int) -> bool:
    """Bottom-up variant of the width decision; no witness is produced.

    A pair (var_r, comp) is solved by a candidate meeting comp that covers
    its border and solves its own components inside comp, which are smaller.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    bit = {x: 1 << i for i, x in enumerate(sorted(q.variables()))}
    masks = [m for m in (sum(map(bit.get, a.variables())) for a in q.body) if m]
    sets = (s for n in range(1, k + 1) for s in combinations(masks, n))
    cands = list(dict.fromkeys(reduce(or_, s) for s in sets))

    def split(sep: int) -> list[int]:
        """The [sep]-components: each atom outside sep merges those it meets."""
        comps: list[int] = []
        for m in masks:
            if e := m & ~sep:
                hit = [c for c in comps if c & e]
                comps = [c for c in comps if not c & e] + [reduce(or_, hit, e)]
        return comps

    comps_of = {sep: split(sep) for sep in {0, *cands}}
    pairs = [(r, c) for r, comps in comps_of.items() for c in comps]
    pairs.sort(key=lambda p: p[1].bit_count())  # by component size
    solved: set[tuple[int, int]] = set()
    for var_r, comp in pairs:
        border = reduce(or_, (m & var_r for m in masks if m & comp), 0)
        for var_s in cands:
            if var_s & comp and not border & ~var_s and all(
                (var_s, sub) in solved for sub in comps_of[var_s] if sub & comp
            ):
                solved.add((var_r, comp))
                break
    return all((0, comp) in solved for comp in comps_of[0])


def _set_partitions(items: list):
    """All partitions of the items into nonempty blocks, lazily: more blocks
    first, and for each block count in the order of the plain recursion
    (partitions of items[1:], each with items[0] put into every block in
    turn, then alone in a new first block).  Blocks are built from the last
    item to the first on a stack; a branch is dropped once it cannot end
    with the block count being made."""
    n = len(items)
    for m in range(n, -1, -1):  # m = 0 yields only when there are no items
        stack: list[tuple[int, list]] = [(n, [])]  # (items left, blocks)
        while stack:
            i, part = stack.pop()
            if not i:
                yield part
                continue
            i -= 1
            x, b = items[i], len(part)
            if b < m:  # x alone in a new block comes after x in each block
                stack.append((i, [[x]] + part))
            if m <= b + i:
                stack.extend(
                    (i, part[:j] + [[x] + part[j]] + part[j + 1 :])
                    for j in reversed(range(b))
                )


def brute_force_qw(
    q: ConjunctiveQuery, k: int, budget: int = 500_000
) -> Optional[QueryDecomposition]:
    """Complete search for a pure query decomposition of width <= k.

    Returns a witness decomposition or None; raises InconclusiveError when
    the step budget runs out before the search is exhausted.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not q.body:
        return QueryDecomposition([QdVertex(0, None, frozenset())])
    if k == 0:
        return None
    atom_vars = [a.variables() for a in q.body]
    all_atoms = frozenset(range(len(q.body)))
    fuel = [budget]
    memo: dict[tuple[frozenset[int], frozenset[int]], Optional[tuple]] = {}

    def outside_vars(f: frozenset[int]) -> frozenset[str]:
        out: set[str] = set()
        for i in all_atoms - f:
            out |= atom_vars[i]
        return frozenset(out)

    def grouped(f: frozenset[int], sep_vars: frozenset[str]) -> list[frozenset[int]]:
        """Atoms of f clustered by shared variables outside the separator."""
        groups: list[tuple[set[int], set[str]]] = []
        for i in sorted(f):
            vs = atom_vars[i] - sep_vars
            rest, hit = [], []
            for g in groups:  # the groups share no variable: i joins those it meets
                (hit if g[1] & vs else rest).append(g)
            # merge into the largest group met, so no atom moves often
            if len(hit) > 1:
                hit.sort(key=lambda g: len(g[0]))
            ga, gv = hit.pop() if hit else (set(), set())
            for oa, ov in hit:
                ga |= oa
                gv |= ov
            ga.add(i)
            gv |= vs
            rest.append((ga, gv))
            groups = rest
        return [frozenset(ga) for ga, _ in groups]

    def qdec(f: frozenset[int], r: frozenset[int]):
        """Witness subtree (label, child witnesses) covering exactly f, or
        None; yields each (block, separator) it needs and receives that
        block's witness by send."""
        fuel[0] -= 1
        if fuel[0] < 0:
            raise InconclusiveError("query-width search budget exhausted")
        fvars = frozenset().union(*(atom_vars[i] for i in f))
        boundary = fvars & outside_vars(f)
        pool = sorted(f | r)
        for size in range(1, k + 1):
            for s in combinations(pool, size):
                sset = frozenset(s)
                if not sset & f:
                    continue
                svars = frozenset().union(*(atom_vars[i] for i in s))
                if not boundary <= svars:
                    continue
                remaining = f - sset
                if not remaining:
                    return (sset, [])
                groups = grouped(remaining, svars)
                for part in _set_partitions(groups):
                    fuel[0] -= 1
                    if fuel[0] < 0:
                        raise InconclusiveError(
                            "query-width search budget exhausted"
                        )
                    kids = []
                    for block in part:
                        w = yield (frozenset().union(*block), sset)
                        if w is None:
                            break
                        kids.append(w)
                    else:
                        return (sset, kids)
        return None

    # drive a stack of qdec generators, so deep witnesses need no recursion
    key = (all_atoms, frozenset())
    stack: list = []
    while True:
        if key in memo:
            w = memo[key]
        else:
            stack.append((key, qdec(*key)))
            w = None  # a new generator starts on send(None)
        while stack:
            key, state = stack[-1]
            try:
                key = state.send(w)  # the next (block, separator) to solve
                break
            except StopIteration as done:
                memo[key] = w = done.value
                stack.pop()
        else:
            break
    if w is None:
        return None
    verts: list[QdVertex] = []
    todo = [(w, None)]  # preorder, children in witness order
    while todo:
        (label, kids), parent = todo.pop()
        vid = len(verts)
        verts.append(
            QdVertex(vid, parent, frozenset(("atom", i) for i in sorted(label)))
        )
        todo.extend((child, vid) for child in reversed(kids))
    return QueryDecomposition(verts)


def brute_force_eval(q: ConjunctiveQuery, db: Database) -> list[tuple[str, ...]]:
    """Backtracking over body atoms, variable-free ones first; raises
    DatabaseFormatError if an atom's relation has another arity in db."""
    for a in q.body:
        if a.relation in db.arities and db.arities[a.relation] != len(a.args):
            raise DatabaseFormatError(
                f"relation {a.relation} has arity {db.arities[a.relation]}, "
                f"query uses {len(a.args)}"
            )
    answers: set[tuple[str, ...]] = set()
    atoms = sorted(q.body, key=lambda a: bool(a.variables()))

    # depth-first on an explicit stack, so long bodies need no recursion
    stack: list[tuple[int, dict[str, str]]] = [(0, {})]
    while stack:
        i, env = stack.pop()
        if i == len(atoms):
            answers.add(
                tuple(
                    env[t.name] if t.is_variable else t.name
                    for t in q.head.args
                )
            )
            continue
        a = atoms[i]
        for t in db.tuples(a.relation):
            if len(t) != len(a.args):
                continue
            local = dict(env)
            for term, val in zip(a.args, t):
                if term.is_variable:
                    if local.setdefault(term.name, val) != val:
                        break
                elif term.name != val:
                    break
            else:
                stack.append((i + 1, local))
    return sorted(answers)
