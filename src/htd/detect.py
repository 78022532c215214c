"""Deciding k-bounded hypertree width and acyclicity.

Three engines are provided and must agree:

* ``decompose``: a memoized top-down search over separator candidates that
  also builds a witness decomposition in normal form,
* ``fixpoint_decide``: a bottom-up evaluation of the decomposable-component
  pairs, decision only,
* ``brute_force_qw``: a complete but budgeted search over pure query
  decompositions, used as the query-width oracle.

``gyo_acyclic`` is an independent ear-removal acyclicity check.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .components import _Index
from .errors import InconclusiveError
from .hypertree import (
    Hypertree,
    HtVertex,
    JoinTree,
    QdVertex,
    QueryDecomposition,
    complete_hd,
    hd_to_jointree,
)
from .model import ConjunctiveQuery


def _trivial_tree(q: ConjunctiveQuery) -> Hypertree:
    if not q.body:
        return Hypertree([])
    # only variable-free atoms: a single vertex labels the first one
    return Hypertree([HtVertex(0, None, frozenset(), frozenset({0}))])


class _Search:
    """Memoized top-down search over (component, border) states.

    The separator candidates are ``idx.candidates(k)``; bit p of a candidate
    bitset stands for candidate p.  A state's usable candidates, those that
    cover its border and meet its component, come from ANDing per-variable
    bitsets, and are tried in list order, so the first success is the same
    one a linear scan of the list would find.
    """

    def __init__(self, idx: _Index, k: int):
        self.idx = idx
        self.cands = idx.candidates(k)
        n = len(self.cands)
        # bit p of atom_bits[i]: candidate p contains atom i; of var_bits[x]:
        # candidate p contains the variable whose bit is x
        rows = {i: bytearray((n + 7) // 8) for i in idx.var_atoms}
        for p, (s, _) in enumerate(self.cands):
            for i in s:
                rows[i][p >> 3] |= 1 << (p & 7)
        self.atom_bits = {
            i: int.from_bytes(row, "little") for i, row in rows.items()
        }
        self.var_bits: dict[int, int] = {}
        for i, bits in self.atom_bits.items():
            m = idx.atom_masks[i]
            while m:
                x = m & -m
                self.var_bits[x] = self.var_bits.get(x, 0) | bits
                m ^= x
        self._adj: dict[int, tuple[int, int]] = {}
        self.memo: dict[tuple[int, int], object] = {}

    def adjacent(self, comp: int) -> tuple[int, int]:
        """Variables of the atoms meeting comp, and the candidates meeting it."""
        found = self._adj.get(comp)
        if found is None:
            variables = bits = 0
            for i in self.idx.atoms_of(comp):
                variables |= self.idx.atom_masks[i]
                bits |= self.atom_bits[i]
            found = self._adj[comp] = (variables, bits)
        return found

    def _usable(self, comp: int, border: int):
        """Candidates covering border and meeting comp, in list order."""
        bits = self.adjacent(comp)[1]
        m = border
        while m and bits:
            x = m & -m
            bits &= self.var_bits[x]
            m ^= x
        text = bin(bits)
        top = len(text) - 1
        j = len(text)
        while True:
            j = text.rfind("1", 2, j)
            if j < 0:
                return
            yield top - j

    def solve(self, comp: int, border: int):
        """Witness (atoms, [(sub, witness), ...]) for the state, or None.

        ``border`` holds the parent separator's variables on the atoms that
        meet ``comp``; the answer depends on nothing else of the separator.
        Runs on an explicit stack, one frame per state under evaluation.
        """
        memo = self.memo
        if (comp, border) in memo:
            return memo[(comp, border)]
        stack = [_Frame(comp, border, self._usable(comp, border))]
        while stack:
            f = stack[-1]
            if f.pending is not None:
                if not f.pending:
                    memo[(f.comp, f.border)] = (f.atoms, f.kids)
                    stack.pop()
                    continue
                sub = f.pending[-1]
                key = (sub, self.adjacent(sub)[0] & f.var_s)  # sub's state
                if key not in memo:
                    stack.append(_Frame(*key, self._usable(*key)))
                    continue
                w = memo[key]
                if w is None:
                    f.pending = None
                else:
                    f.pending.pop()
                    f.kids.append((sub, w))
                continue
            for p in f.usable:
                atoms, var_s = self.cands[p]
                # all usable candidates contain the border, so twins that
                # agree inside comp yield the same substates and fail alike
                seen = var_s & f.comp
                if seen in f.tried:
                    continue
                f.tried.add(seen)
                f.atoms, f.var_s, f.kids = atoms, var_s, []
                f.pending = [
                    sub for sub in self.idx.components(var_s) if sub & f.comp
                ][::-1]
                break
            else:
                memo[(f.comp, f.border)] = None
                stack.pop()
        return memo[(comp, border)]


class _Frame:
    """One search state on the explicit stack, and the candidate it tries."""

    __slots__ = ("comp", "border", "usable", "tried", "atoms", "var_s",
                 "pending", "kids")

    def __init__(self, comp: int, border: int, usable):
        self.comp = comp
        self.border = border
        self.usable = usable
        self.tried: set[int] = set()
        self.atoms: tuple[int, ...] = ()
        self.var_s = 0
        # substates of the current candidate still to solve, last one next
        self.pending: Optional[list[int]] = None
        self.kids: list = []


def decompose(q: ConjunctiveQuery, k: int) -> Optional[Hypertree]:
    """A normal-form decomposition of width <= k, or None if none exists."""
    if k < 1:
        raise ValueError("k must be at least 1")
    idx = _Index(q)
    if not idx.var_atoms:
        return _trivial_tree(q)
    search = _Search(idx, k)
    witnesses = []
    for comp in idx.components(0):
        w = search.solve(comp, 0)
        if w is None:
            return None
        witnesses.append((comp, w))

    # preorder ids; the first top-level root is the root of the whole tree
    verts: list[HtVertex] = []
    for comp, w in witnesses:
        stack = [(w, comp, 0, 0 if verts else None)]
        while stack:
            (s, kids), comp, chi_parent, parent_id = stack.pop()
            var_s = 0
            for i in s:
                var_s |= idx.atom_masks[i]
            chi = var_s & (chi_parent | comp)
            lam = frozenset(i for i in s if idx.atom_masks[i] & chi)
            vid = len(verts)
            verts.append(HtVertex(vid, parent_id, idx.unmask(chi), lam))
            for sub, child in reversed(kids):
                stack.append((child, sub, chi, vid))
    return Hypertree(verts)


def hypertree_width(
    q: ConjunctiveQuery, k_max: Optional[int] = None
) -> Optional[tuple[int, Hypertree]]:
    """Smallest width and a witness, searching k = 1..k_max."""
    bound = max(1, sum(1 for a in q.body if a.variables()))
    if k_max is not None:
        bound = min(bound, k_max)
    for k in range(1, bound + 1):
        h = decompose(q, k)
        if h is not None:
            return k, h
    return None


def is_acyclic(q: ConjunctiveQuery) -> Optional[JoinTree]:
    """A join tree of the query, or None if the query is cyclic."""
    h = decompose(q, 1)
    if h is None:
        return None
    return hd_to_jointree(q, complete_hd(q, h))


def gyo_acyclic(q: ConjunctiveQuery) -> bool:
    """Ear removal: repeatedly drop covered edges and solitary variables."""
    edges = []
    for a in q.body:
        vs = set(a.variables())
        if vs:
            edges.append(vs)
    changed = True
    while changed and edges:
        changed = False
        for i, e in enumerate(edges):
            if any(j != i and e <= edges[j] for j in range(len(edges))):
                del edges[i]
                changed = True
                break
        if changed:
            continue
        counts: dict[str, int] = {}
        for e in edges:
            for x in e:
                counts[x] = counts.get(x, 0) + 1
        for e in edges:
            ears = {x for x in e if counts[x] == 1}
            if ears:
                e -= ears
                changed = True
        edges = [e for e in edges if e]
    return not edges


def fixpoint_decide(q: ConjunctiveQuery, k: int) -> bool:
    """Bottom-up variant of the width decision; no witness is produced."""
    if k < 1:
        raise ValueError("k must be at least 1")
    idx = _Index(q)
    if not idx.var_atoms:
        return True
    cands = idx.candidates(k)
    # pairs (separator vars, component) stratified by component size
    pairs = []
    seps = {0} | {m for _, m in cands}
    for var_r in seps:
        for comp in idx.components(var_r):
            pairs.append((var_r, comp))
    pairs.sort(key=lambda p: bin(p[1]).count("1"))
    solved: set[tuple[int, int]] = set()
    for var_r, comp in pairs:
        if (var_r, comp) in solved:
            continue
        border = 0
        for p in idx.atoms_of(comp):
            border |= idx.atom_masks[p] & var_r
        for _, var_s in cands:
            if not var_s & comp:
                continue
            if border & ~var_s:
                continue
            if all(
                (var_s, sub) in solved
                for sub in idx.components(var_s)
                if sub & comp
            ):
                solved.add((var_r, comp))
                break
    return all((0, comp) in solved for comp in idx.components(0))


def _set_partitions(items: list):
    """All partitions of the items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


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
            merged_atoms, merged_vars = {i}, set(vs)
            rest = []
            for ga, gv in groups:
                if gv & merged_vars:
                    merged_atoms |= ga
                    merged_vars |= gv
                else:
                    rest.append((ga, gv))
            rest.append((merged_atoms, merged_vars))
            groups = rest
        return [frozenset(ga) for ga, _ in groups]

    def qdec(f: frozenset[int], r: frozenset[int]) -> Optional[tuple]:
        """Witness subtree (label, child witnesses) covering exactly f."""
        key = (f, r)
        if key in memo:
            return memo[key]
        fuel[0] -= 1
        if fuel[0] < 0:
            raise InconclusiveError("query-width search budget exhausted")
        fvars = frozenset().union(*(atom_vars[i] for i in f))
        boundary = fvars & outside_vars(f)
        pool = sorted(f | r)
        found = None
        for size in range(1, k + 1):
            if found is not None:
                break
            for s in combinations(pool, size):
                sset = frozenset(s)
                if not sset & f:
                    continue
                svars = frozenset().union(*(atom_vars[i] for i in s))
                if not boundary <= svars:
                    continue
                remaining = f - sset
                if not remaining:
                    found = (sset, [])
                    break
                groups = grouped(remaining, svars)
                parts = sorted(
                    _set_partitions(groups), key=len, reverse=True
                )
                for part in parts:
                    fuel[0] -= 1
                    if fuel[0] < 0:
                        raise InconclusiveError(
                            "query-width search budget exhausted"
                        )
                    kids = []
                    for block in part:
                        w = qdec(frozenset().union(*block), sset)
                        if w is None:
                            kids = None
                            break
                        kids.append(w)
                    if kids is not None:
                        found = (sset, kids)
                        break
                if found is not None:
                    break
        memo[key] = found
        return found

    witness = qdec(all_atoms, frozenset())
    if witness is None:
        return None
    verts: list[QdVertex] = []

    def emit(node, parent: Optional[int]):
        label, kids = node
        vid = len(verts)
        verts.append(
            QdVertex(vid, parent, frozenset(("atom", i) for i in sorted(label)))
        )
        for child in kids:
            emit(child, vid)

    emit(witness, None)
    return QueryDecomposition(verts)
