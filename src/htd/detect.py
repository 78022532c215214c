"""Deciding k-bounded hypertree width and acyclicity.

Three engines are provided and must agree:

* ``decompose``: a memoized top-down search over separator candidates that
  also builds a witness decomposition in normal form; ``normalize_hd`` runs
  the same search over the labels of the tree it is given,
* ``fixpoint_decide``: a bottom-up evaluation of the decomposable-component
  pairs, decision only,
* ``brute_force_qw``: a complete but budgeted search over pure query
  decompositions, used as the query-width oracle.

``gyo_acyclic`` is an independent ear-removal acyclicity check.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Optional

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
    validate_nf,
)
from .model import ConjunctiveQuery, atoms_vars


def _trivial_tree(q: ConjunctiveQuery) -> Hypertree:
    if not q.body:
        return Hypertree([])
    # only variable-free atoms: a single vertex labels the first one
    return Hypertree([HtVertex(0, None, frozenset(), frozenset({0}))])


class _Search:
    """Memoized top-down search over components, one state per component.

    ``cands`` lists the separator candidates' variable masks and
    ``atom_bits`` maps each atom to the bitset of the candidates holding
    it, bit p for candidate p: ``idx.candidates(k)`` and its bulk
    ``idx.candidate_bits(k)`` for the width search, the masks of a tree's λ
    labels and ``_label_bits`` of them for ``normalize_hd``.  The search
    never needs a candidate's atoms: a witness names its separator by
    candidate index, and ``_search_tree`` looks up the atoms of the
    separators its tree uses.

    A state is its component alone: a usable separator covers the border,
    the variables outside the component on the atoms that meet it, so
    every separator that splits off a component leaves it the same border.
    ``memo`` maps a component to its witness, or to None if it fails.

    A component F is a [var_s]-component exactly when var_s covers F's
    border and misses F, so a failed F rules out the candidates
    kill(F) = cover(border(F)) & ~meet(F), where cover(B) ANDs
    ``var_bits[x]`` over the variables x of B and meet(F) ORs ``atom_bits``
    over the atoms meeting F.  ``_killed[x]`` is the union of kill(F) over
    the failed F whose least variable bit is x.

    A candidate is split only inside the component of the state that tries
    it, through ``idx.components``, which caches the components found so
    far per separator; the search itself caches no components.
    """

    def __init__(self, idx: _Index, cands: list[int], atom_bits: dict[int, int]):
        self.idx = idx
        self.cands = cands
        self.atom_bits = atom_bits
        # bit p of var_bits[x]: candidate p contains the variable whose bit is x
        self.var_bits: dict[int, int] = {}
        for i, bits in atom_bits.items():
            m = idx.atom_masks[i]
            while m:
                x = m & -m
                self.var_bits[x] = self.var_bits.get(x, 0) | bits
                m ^= x
        self._killed: dict[int, int] = {}
        self.memo: dict[int, object] = {}

    def _killed_in(self, comp: int) -> int:
        """The candidates ruled out by a failed component whose least bit
        is in comp."""
        out = 0
        for x, bits in self._killed.items():
            if x & comp:
                out |= bits
        return out

    def _state(self, comp: int):
        """Solve the state of comp as a generator: yield each substate that
        the memo does not hold yet and receive its witness; return
        (p, kids) for candidate p, or None.

        The usable candidates cover comp's border and meet comp.  They are
        tried in list order, lowest bit first, so the first success is the
        one a linear scan of the list would find.  A usable candidate in
        kill(F) for a failed F meeting comp has F as a component, and F lies
        inside comp because the candidate covers comp's border, so the try
        would fail: such candidates are dropped before the first try and
        again after each failed one, which found new failures.
        """
        idx, memo = self.idx, self.memo
        variables = meet = 0
        for i in idx.atoms_of(comp):
            variables |= idx.atom_masks[i]
            meet |= self.atom_bits[i]
        cover = (1 << len(self.cands)) - 1
        m = variables & ~comp  # the border
        while m:
            x = m & -m
            cover &= self.var_bits[x]
            m ^= x
        bits = cover & meet & ~self._killed_in(comp)
        while bits:
            low = bits & -bits
            p = low.bit_length() - 1
            kids = []
            # candidate p covers the border, so comp less its variables is
            # a union of whole components of it
            for sub in idx.components(self.cands[p], comp):
                if sub & comp:
                    w = memo[sub] if sub in memo else (yield sub)
                    if w is None:
                        break
                    kids.append((sub, w))
            else:
                return p, kids
            bits &= ~(low | self._killed_in(comp))
        x = comp & -comp
        self._killed[x] = self._killed.get(x, 0) | cover & ~meet
        return None

    def solve(self, comp: int):
        """Witness (p, [(sub, witness), ...]) for the component, or None.

        Drives a stack of state generators, so no state recurses in Python.
        A state yields only substates missing from the memo, and none of
        them is pending on the stack: each sub is a proper subset of its
        comp.
        """
        memo = self.memo
        stack = []
        while True:
            stack.append((comp, self._state(comp)))
            w = None  # a new generator starts on send(None)
            while stack:
                comp, state = stack[-1]
                try:
                    comp = state.send(w)  # the next substate to solve
                    break
                except StopIteration as done:
                    memo[comp] = w = done.value
                    stack.pop()
            else:
                return w


def decompose(q: ConjunctiveQuery, k: int) -> Optional[Hypertree]:
    """A normal-form decomposition of width <= k, or None if none exists."""
    if k < 1:
        raise ValueError("k must be at least 1")
    idx = _Index(q)
    if not idx.var_atoms:
        return _trivial_tree(q)
    return _search_tree(
        idx, idx.candidates(k), idx.candidate_bits(k), idx.candidate_atoms
    )


def _search_tree(
    idx: _Index,
    cands: list[int],
    atom_bits: dict[int, int],
    atoms_of: Callable[[int], tuple[int, ...]],
) -> Optional[Hypertree]:
    """The normal-form tree the search builds over the candidate masks
    cands, or None if none; atoms_of(p) gives the atoms of candidate p and
    is asked once per vertex of the tree.

    idx must have at least one atom with variables.
    """
    search = _Search(idx, cands, atom_bits)
    witnesses = []
    for comp in idx.components(0):
        w = search.solve(comp)
        if w is None:
            return None
        witnesses.append((comp, w))

    # preorder ids; the first top-level root is the root of the whole tree
    verts: list[HtVertex] = []
    for comp, w in witnesses:
        stack = [(w, comp, 0, 0 if verts else None)]
        while stack:
            (p, kids), comp, chi_parent, parent_id = stack.pop()
            chi = cands[p] & (chi_parent | comp)
            lam = frozenset(i for i in atoms_of(p) if idx.atom_masks[i] & chi)
            vid = len(verts)
            verts.append(HtVertex(vid, parent_id, idx.unmask(chi), lam))
            for sub, child in reversed(kids):
                stack.append((child, sub, chi, vid))
    return Hypertree(verts)


def _label_bits(idx: _Index, labels: list[tuple[int, ...]]) -> dict[int, int]:
    """Bit p of bits[i]: label p contains atom i, set label by label."""
    rows = {i: bytearray((len(labels) + 7) // 8) for i in idx.var_atoms}
    for p, s in enumerate(labels):
        for i in s:
            rows[i][p >> 3] |= 1 << (p & 7)
    return {i: int.from_bytes(row, "little") for i, row in rows.items()}


def normalize_hd(q: ConjunctiveQuery, h: Hypertree) -> Hypertree:
    """A normal-form decomposition whose λ labels are subsets of h's.

    h itself if it is in normal form; otherwise the width search's witness
    over h's λ labels, which exists because every decomposition has a
    normal form built from its own labels.
    """
    if validate_nf(q, h).valid:
        return h
    idx = _Index(q)
    if not idx.var_atoms:  # no variables: the root alone is in normal form
        return Hypertree([h.root])
    cands: dict[tuple[int, ...], int] = {}
    for vid in h.preorder():
        s = tuple(sorted(i for i in h.vertices[vid].lam if idx.atom_masks[i]))
        if s and s not in cands:
            cands[s] = idx.mask(atoms_vars(q, s))
    labels = list(cands)
    n = _search_tree(
        idx, list(cands.values()), _label_bits(idx, labels), labels.__getitem__
    )
    if n is None:
        raise RuntimeError("no normal form over the decomposition's labels")
    return n


def hypertree_width(
    q: ConjunctiveQuery, k_max: Optional[int] = None
) -> Optional[tuple[int, Hypertree]]:
    """Smallest width and a witness, searching k = 1..k_max."""
    bound = max(1, sum(1 for a in q.body if a.variables()))
    if k_max is not None:
        if k_max < 1:
            raise ValueError("k must be at least 1")
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
    """Bottom-up variant of the width decision; no witness is produced."""
    if k < 1:
        raise ValueError("k must be at least 1")
    idx = _Index(q)
    if not idx.var_atoms:
        return True
    cands = idx.candidates(k)
    # pairs (separator vars, component) stratified by component size
    pairs = []
    seps = {0, *cands}
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
        for var_s in cands:
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
