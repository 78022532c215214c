"""[V]-adjacency, [V]-connectedness, and [V]-components of a query.

Given a separator set V, two variables are adjacent when some body atom
contains both outside V; components are the maximal connected variable sets
of that graph.  Every variable outside V that occurs in some atom counts as
connected to itself (the degenerate single-variable path).

Components are computed in one place, ``_Index.pieces``: the connected
pieces of a variable mask, each atom restricted to it.  ``_Index`` is a
bitmask view of the query that the width search (which ``normalize_hd``
also runs) and the normal-form validator share, and that ``v_components``
wraps.  ``_Index.components`` is the one cache of components: per
separator it keeps those found so far, so the search, which splits a
separator only inside the component it searches, fills it lazily.
``_Index.acyclic`` decides width 1 without a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb
from typing import Iterable

from .model import Atom, ConjunctiveQuery


@dataclass(frozen=True)
class Component:
    separator: frozenset[str]
    members: frozenset[str]

    @property
    def representative(self) -> str:
        """Least member under the lexicographic variable order."""
        return min(self.members)

    def __contains__(self, var: str) -> bool:
        return var in self.members


class _Index:
    """Bitmask view of a query: one bit per variable, in sorted order.

    ``pieces(free)`` is the one merge loop.  ``components(sep, within)``
    caches, per separator mask, the components found so far, and splits
    only the part of within that no earlier call covered, so one index
    serves every separator a caller asks about.
    """

    def __init__(self, q: ConjunctiveQuery):
        self.vars = sorted(q.variables())
        self.bit = {x: 1 << i for i, x in enumerate(self.vars)}
        self.atom_masks = [self.mask(a.variables()) for a in q.body]
        self.var_atoms = [i for i, m in enumerate(self.atom_masks) if m]
        self._merge_order = _connected_order(self.atom_masks)
        # per separator mask: (sep and the bits split so far, the components)
        self._comps: dict[int, tuple[int, tuple[int, ...]]] = {}

    def mask(self, names: Iterable[str]) -> int:
        """Bits of the names; names that are not variables of Q are ignored."""
        bit = self.bit
        m = 0
        for x in names:
            m |= bit.get(x, 0)
        return m

    def unmask(self, m: int) -> frozenset[str]:
        out = []
        while m:
            low = m & -m
            out.append(self.vars[low.bit_length() - 1])
            m ^= low
        return frozenset(out)

    def components(self, sep: int, within: int = -1) -> tuple[int, ...]:
        """Masks of the [sep]-components found so far, by least bit: at
        least those inside within, by default every variable, of which
        within minus sep must be a union of whole [sep]-components.  Only
        the part of within that no call split before is split.
        """
        known, comps = self._comps.get(sep) or (sep, ())
        if within & ~known:
            new = self.pieces(within & ~known)
            comps = tuple(sorted(comps + tuple(new), key=lambda c: c & -c))
            self._comps[sep] = (known | within, comps)
        return comps

    def pieces(self, free: int) -> list[int]:
        """Masks of the connected pieces of free, each atom restricted to
        free, by least variable bit.

        When free is a union of [V]-components for some V, these are exactly
        those components; the width search passes such unions.
        """
        edges = [m & free for m in self._merge_order if m & free]
        comps: list[int] = []
        for e in edges:
            merged = e
            rest = []
            for c in comps:
                if c & merged:
                    merged |= c
                else:
                    rest.append(c)
            rest.append(merged)
            comps = rest
        comps.sort(key=lambda c: c & -c)  # by least variable bit
        return comps

    def acyclic(self) -> bool:
        """True iff the query is acyclic, that is of hypertree width 1.

        GYO ear removal over the distinct atom masks, with the holders of
        each variable (Tarjan and Yannakakis 1984): an edge loses its
        solitary variables and is dropped when it is empty or a holder of
        its rarest variable covers it.  Only a variable falling to one
        holder can let an edge go, so only then is that holder queued
        again: linear in the total arity apart from the cover tests.
        """
        edges = list(dict.fromkeys(m for m in self.atom_masks if m))
        holders: dict[int, set[int]] = {}
        for j, m in enumerate(edges):
            while m:
                x = m & -m
                holders.setdefault(x, set()).add(j)
                m ^= x
        left = len(edges)
        queue = list(range(left))
        while queue:
            j = queue.pop()
            e = edges[j]
            if e < 0:  # dropped already
                continue
            m, rarest = e, 0
            while m:
                x = m & -m
                m ^= x
                n = len(holders[x])
                if n == 1:
                    e ^= x
                elif not rarest or n < len(holders[rarest]):
                    rarest = x
            if e and not any(h != j and not e & ~edges[h] for h in holders[rarest]):
                edges[j] = e
                continue
            edges[j] = -1
            left -= 1
            while e:
                x = e & -e
                e ^= x
                rest = holders[x]
                rest.remove(j)
                if len(rest) == 1:
                    queue.extend(rest)
        return not left

    def atoms_of(self, comp: int) -> list[int]:
        return [i for i in self.var_atoms if self.atom_masks[i] & comp]

    def candidates(self, k: int) -> list[int]:
        """Variable masks of all separator candidates, the sets of 1..k atoms
        with variables, by size and then lexicographic; ``candidate_atoms(p)``
        gives the atoms of candidate p.

        The s-sets that start at position lo are lo followed by each
        (s-1)-set of lo+1..n-1, the last C(n-lo-1, s-1) sets of size s-1, so
        each size's masks extend the size below.
        """
        masks = level = [self.atom_masks[i] for i in self.var_atoms]
        out: list[int] = []
        for size in range(1, min(k, len(masks)) + 1):
            if size > 1:
                level = [
                    a | m
                    for lo, a in enumerate(masks)
                    for m in level[len(level) - comb(len(masks) - lo - 1, size - 1) :]
                ]
            out += level
        return out

    def candidate_atoms(self, p: int) -> tuple[int, ...]:
        """The atoms of candidate p, the same for every k whose list has it:
        each k's list extends the list of k - 1.

        Size 1 is position p itself.  Otherwise p, less the counts of the
        smaller sizes, is unranked lexicographically: of the s-sets of
        positions start..n-1, those that start before lo number
        C(n-start, s) - C(n-lo, s), so each position is found by binary
        search, in O(k log n) ``comb`` calls in all.
        """
        var_atoms = self.var_atoms
        n = len(var_atoms)
        if p < n:
            return (var_atoms[p],)
        for size in range(1, n + 1):
            if p < comb(n, size):
                break
            p -= comb(n, size)
        else:
            raise IndexError("candidate index out of range")
        out = []
        start = 0
        while size:
            total = comb(n - start, size)
            lo, hi = start, n - size  # the last lo with at most p sets before it
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if total - comb(n - mid, size) <= p:
                    lo = mid
                else:
                    hi = mid - 1
            p -= total - comb(n - lo, size)
            out.append(var_atoms[lo])
            start = lo + 1
            size -= 1
        return tuple(out)

    def candidate_bits(self, k: int) -> dict[int, int]:
        """Bit p of bits[i]: candidate p of ``candidates(k)`` contains atom i.

        Of the s-sets of positions lo..n-1, in order, those holding i are
        the first C(n-i-1, s-1) when lo = i.  When lo < i they are the
        (s-1)-sets of lo+1..n-1 holding i, each after lo, then, shifted by
        C(n-lo-1, s-1), the s-sets of lo+1..n-1 holding i.  That is O(n k)
        big-int steps per atom; size 1 is just bit i.
        """
        n, k = len(self.var_atoms), min(k, len(self.var_atoms))
        out = {}
        for i, atom in enumerate(self.var_atoms):
            # runs[s] for s >= 1: the s-sets of lo..n-1 holding i, lo = i first
            runs = [0] + [(1 << comb(n - i - 1, s - 1)) - 1 for s in range(1, k + 1)]
            for lo in range(i - 1, -1, -1) if k > 1 else ():
                for s in range(k, 1, -1):
                    runs[s] = runs[s - 1] | runs[s] << comb(n - lo - 1, s - 1)
                runs[1] <<= 1
            bits, offset = 1 << i, n
            for s in range(2, k + 1):
                bits |= runs[s] << offset
                offset += comb(n, s)
            out[atom] = bits
        return out


def _connected_order(masks: list[int]) -> list[int]:
    """The distinct nonzero masks, each after the first of its connected
    part meeting an earlier one: the next mask is always the first, in the
    given order, that meets one already placed.  A given order with that
    property is kept as it is.

    Merging edges in this order, a new edge starts a partial component only
    when all it shares with earlier edges lies in the separator, so on paths
    and trees the list of partial components stays short.  Each variable's
    mask list is walked once, so this takes O(bits + masks log masks).
    """
    distinct = list(dict.fromkeys(m for m in masks if m))
    placed = 0
    for m in distinct:
        if placed and not m & placed:
            break
        placed |= m
    else:  # each mask meets an earlier one: the order is already connected
        return distinct
    holders: dict[int, list[int]] = {}
    for j, m in enumerate(distinct):
        while m:
            x = m & -m
            holders.setdefault(x, []).append(j)
            m ^= x
    seen = [False] * len(distinct)
    order: list[int] = []
    for start in range(len(distinct)):
        if seen[start]:
            continue
        seen[start] = True
        reached = [start]  # a heap of indices that meet a placed mask
        while reached:
            m = distinct[heappop(reached)]
            order.append(m)
            while m:
                x = m & -m
                m ^= x
                for j in holders.pop(x, ()):
                    if not seen[j]:
                        seen[j] = True
                        heappush(reached, j)
    return order


def v_adjacent(q: ConjunctiveQuery, v: Iterable[str], x: str, y: str) -> bool:
    """True iff some body atom A has {x, y} <= var(A) - V."""
    vset = frozenset(v)
    qvars = q.variables()
    for name in (x, y):
        if name not in qvars:
            raise ValueError(f"unknown variable {name}")
    if x in vset or y in vset:
        return False
    pair = {x, y}
    return any(pair <= (a.variables() - vset) for a in q.body)


def v_components(q: ConjunctiveQuery, v: Iterable[str]) -> frozenset[Component]:
    """All [V]-components of Q, as a set of Component values.

    Names in V that are not variables of Q are ignored.  Each call builds a
    fresh _Index and splits the whole query once; a caller asking about many
    separators of one query should share one _Index, whose cache keeps each
    separator's components.
    """
    vset = frozenset(v)
    idx = _Index(q)
    return frozenset(
        Component(vset, idx.unmask(c)) for c in idx.components(idx.mask(vset))
    )


def atoms_of_component(q: ConjunctiveQuery, c: Component) -> frozenset[Atom]:
    """atoms(C): the body atoms whose variables meet the component."""
    return frozenset(a for a in q.body if a.variables() & c.members)


def component_of(
    q: ConjunctiveQuery, v: Iterable[str], var: str
) -> Component | None:
    """The [V]-component containing var; None if var is in V, ValueError if not in Q."""
    for c in v_components(q, v):
        if var in c:
            return c
    if var not in q.variables():
        raise ValueError(f"unknown variable {var}")
    return None
