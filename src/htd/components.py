"""[V]-adjacency, [V]-connectedness, and [V]-components of a query.

Given a separator set V, two variables are adjacent when some body atom
contains both outside V; components are the maximal connected variable sets
of that graph.  Every variable outside V that occurs in some atom counts as
connected to itself (the degenerate single-variable path).

Components are computed in one place, ``_Index``: a bitmask view of the
query that the width search, the normal-form validator and
``normalize_hd`` share, and that ``v_components`` wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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

    Components are cached per separator mask, so one index serves every
    separator a caller asks about.
    """

    def __init__(self, q: ConjunctiveQuery):
        self.vars = sorted(q.variables())
        self.bit = {x: 1 << i for i, x in enumerate(self.vars)}
        self.atom_masks = [self.mask(a.variables()) for a in q.body]
        self.var_atoms = [i for i, m in enumerate(self.atom_masks) if m]
        self._comp_cache: dict[int, tuple[int, ...]] = {}

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

    def components(self, sep: int) -> tuple[int, ...]:
        """Masks of the maximal [sep]-connected variable sets."""
        cached = self._comp_cache.get(sep)
        if cached is not None:
            return cached
        edges = [m & ~sep for m in self.atom_masks if m & ~sep]
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
        result = tuple(comps)
        self._comp_cache[sep] = result
        return result

    def atoms_of(self, comp: int) -> list[int]:
        return [i for i in self.var_atoms if self.atom_masks[i] & comp]

    def candidates(self, k: int) -> list[tuple[tuple[int, ...], int]]:
        """All separator candidates of size 1..k, lexicographic."""
        out = []
        for size in range(1, k + 1):
            for s in combinations(self.var_atoms, size):
                m = 0
                for i in s:
                    m |= self.atom_masks[i]
                out.append((s, m))
        return out


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

    Names in V that are not variables of Q are ignored.
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
    """The [V]-component containing ``var``, or None if var lies in V."""
    for c in v_components(q, v):
        if var in c:
            return c
    return None
