"""Deciding k-bounded hypertree width and acyclicity.

``decompose`` is a memoized top-down search over separator candidates that
builds a witness decomposition in normal form; ``normalize_hd`` runs the
same search over the labels of the tree it is given.  Width 1 is
acyclicity, which ``_Index.acyclic`` decides in linear time, so
``hypertree_width`` asks the search for k = 1, 2, ... on an acyclic query
and for k = 2, 3, ... on a cyclic one, all on one index, and
``is_acyclic`` asks it for k = 1 only on an acyclic query.  The oracles
that check it are in ``oracle``.
"""

from __future__ import annotations

from typing import Callable, Optional

from .components import _Index
from .hypertree import (
    Hypertree,
    HtVertex,
    JoinTree,
    _complete_hd,
    _hd_to_jointree,
    _validate_nf,
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
    it, through ``idx.components``, and no components are cached: each
    state tries each candidate at most once.

    ``atoms`` holds the distinct atom masks in the index's merge order, each
    with the OR of ``atom_bits`` over its atoms.  A state makes one pass
    over it for its border, its meet bitset and the masks meeting its
    component, which are all that a split of the component merges, and
    none when the separator leaves the component's rest one neighbour
    (``_Index.components``).  A component of one variable x makes no pass:
    its atoms are those holding x, whose variables are x's neighbour mask
    and whose candidates are ``var_bits[x]``, and no split of it merges.
    """

    def __init__(self, idx: _Index, cands: list[int], atom_bits: dict[int, int]):
        self.idx = idx
        self.cands = cands
        # bit p of var_bits[x]: candidate p contains the variable whose bit is x
        self.var_bits: dict[int, int] = {}
        meets: dict[int, int] = {}
        for i, bits in atom_bits.items():
            m = idx.atom_masks[i]
            meets[m] = meets.get(m, 0) | bits
            while m:
                x = m & -m
                self.var_bits[x] = self.var_bits.get(x, 0) | bits
                m ^= x
        self.atoms = [(m, meets[m]) for m in idx._merge_order]
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
        if comp & (comp - 1):
            variables = meet = 0
            met = []  # the atoms meeting comp, in merge order
            for m, bits in self.atoms:
                if m & comp:
                    variables |= m
                    meet |= bits
                    met.append(m)
        else:  # one variable x: the atoms holding x span its neighbour mask
            variables = idx._neighbours[comp.bit_length() - 1]
            meet, met = self.var_bits[comp], []
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
            for sub in idx.components(self.cands[p], comp, met):
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
    return _decompose(q, _Index(q), k)


def _decompose(q: ConjunctiveQuery, idx: _Index, k: int) -> Optional[Hypertree]:
    """``decompose(q, k)`` on idx, the index of q, so the steps of one
    ``hypertree_width`` call share its variable bits and merge order."""
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
    report, idx, _ = _validate_nf(q, h)
    if report.valid:
        return h
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
    """Smallest width and a witness, searching k = 1..k_max; k = 1 only
    when the query is acyclic."""
    idx = _Index(q)
    bound = max(1, len(idx.var_atoms))
    if k_max is not None:
        if k_max < 1:
            raise ValueError("k must be at least 1")
        bound = min(bound, k_max)
    for k in range(1 if idx.acyclic() else 2, bound + 1):
        h = _decompose(q, idx, k)
        if h is not None:
            return k, h
    return None


def is_acyclic(q: ConjunctiveQuery) -> Optional[JoinTree]:
    """A join tree of the query, from its width-1 witness, or None if the
    query is cyclic.  The search builds only valid decompositions, so the
    witness is completed and collapsed without being validated again."""
    idx = _Index(q)
    if not idx.acyclic():
        return None
    return _hd_to_jointree(q, _complete_hd(q, _decompose(q, idx, 1)))
