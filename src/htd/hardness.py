"""Hardness-gadget generation for the width-4 decision problem.

Provides strict 3-partitioning systems, the reduction from exact cover by
3-sets to bounded query width, and the chain-shaped witness decomposition for
positive cover instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Optional

from .hypertree import QdVertex, QueryDecomposition
from .model import Atom, ConjunctiveQuery, Term, variable


@dataclass(frozen=True)
class ThreePartitionSystem:
    """Base elements in precedence order plus ordered class triples."""

    base: tuple[str, ...]
    partitions: tuple[tuple[frozenset[str], frozenset[str], frozenset[str]], ...]


@dataclass(frozen=True)
class X3CInstance:
    """Ground set of size 3s and a collection of 3-element subsets."""

    ground: tuple[str, ...]
    sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        ground = set(self.ground)
        if len(self.ground) != len(ground):
            raise ValueError("ground elements must be distinct")
        if len(self.ground) % 3 or not self.ground:
            raise ValueError("ground set size must be a positive multiple of 3")
        for d in self.sets:
            if len(d) != 3 or not d <= ground:
                raise ValueError(f"not a 3-element subset of the ground set: {sorted(d)}")
        if not self.sets:
            raise ValueError("at least one subset is required")


def _three_block_partitions(items: list[str]) -> Iterator[list[list[str]]]:
    """Partitions into exactly 3 blocks, lexicographic by growth string."""

    def rec(i: int, blocks: list[list[str]]):
        if i == len(items):
            if len(blocks) == 3:
                yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < 3:
            blocks.append([items[i]])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def gen_strict_3ps(m: int, k: int) -> ThreePartitionSystem:
    """A strict system of m class-disjoint 3-partitions, classes of size >= k."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    seed = [f"e{i + 1}" for i in range(max(2 * m, 3))]
    # greedily select m partitions sharing no class
    chosen: list[list[set[str]]] = []
    used: set[frozenset[str]] = set()
    for cand in _three_block_partitions(seed):
        sets = [frozenset(b) for b in cand]
        if any(c in used for c in sets):
            continue
        chosen.append([set(b) for b in cand])
        used |= set(sets)
        if len(chosen) == m:
            break
    if len(chosen) < m:
        raise ValueError(f"cannot seed {m} class-disjoint 3-partitions")
    order = list(seed)
    classes: list[set[str]] = [c for p in chosen for c in p]
    membership = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(m)]
    sigma_sets = {frozenset(ms) for ms in membership}
    # strictness repair: one fresh element per violating class triple
    fresh = 0
    for triple in combinations_with_replacement(range(len(classes)), 3):
        tset = frozenset(triple)
        if tset in sigma_sets:
            continue
        union = set().union(*(classes[t] for t in triple))
        if len(union) != len(order):  # every class lies in the base
            continue
        fresh += 1
        a = f"n{fresh}"
        order.append(a)
        for ms in membership:
            host = next(i for i in ms if i not in tset)
            classes[host].add(a)
    # pad every class up to size >= k with a shared three-way split
    pad = [f"o{i + 1}" for i in range(3 * k)]
    order.extend(pad)
    thirds = [set(pad[0:k]), set(pad[k : 2 * k]), set(pad[2 * k :])]
    for ms in membership:
        for pos, ci in enumerate(ms):
            classes[ci] |= thirds[pos]
    parts = tuple(
        (frozenset(classes[a]), frozenset(classes[b]), frozenset(classes[c]))
        for a, b, c in membership
    )
    return ThreePartitionSystem(tuple(order), parts)


def verify_strict_3ps(sys: ThreePartitionSystem) -> bool:
    """Exhaustive check of the partition invariants and strictness."""
    base = set(sys.base)
    if len(sys.base) != len(base):
        return False
    seen: set[frozenset[str]] = set()
    for p in sys.partitions:
        if len(p) != 3:
            return False
        a, b, c = p
        if not (a and b and c):
            return False
        if a & b or a & c or b & c:
            return False
        if a | b | c != base:
            return False
        for cls in p:
            if cls in seen:
                return False
            seen.add(cls)
    sigma = {frozenset(p) for p in sys.partitions}
    classes = sorted(seen, key=sorted)
    for triple in combinations_with_replacement(classes, 3):
        union = triple[0] | triple[1] | triple[2]
        if union == base and frozenset(triple) not in sigma:
            return False
    return True


def parse_x3c(text: str) -> X3CInstance:
    """First line ``s m``, then the 3s ground elements, then one 3-element
    line per subset."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not lines:
        raise ValueError("empty instance")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be: s m")
    try:
        s, m = int(head[0]), int(head[1])
    except ValueError as e:
        raise ValueError("first line must be: s m") from e
    if len(lines) != 2 + m:
        raise ValueError(f"expected {m} subset lines")
    ground = tuple(lines[1].split())
    if len(ground) != 3 * s:
        raise ValueError(f"expected {3 * s} ground elements")
    sets = []
    for ln in lines[2:]:
        elems = ln.split()
        if len(elems) != 3:
            raise ValueError(f"subset line must have 3 elements: {ln!r}")
        sets.append(frozenset(elems))
    return X3CInstance(ground, tuple(sets))


def format_x3c(inst: X3CInstance) -> str:
    s = len(inst.ground) // 3
    lines = [f"{s} {len(inst.sets)}", " ".join(inst.ground)]
    for d in inst.sets:
        lines.append(" ".join(sorted(d, key=inst.ground.index)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Layout:
    """Atom-index bookkeeping of the reduction query."""

    query: ConjunctiveQuery
    blocka: tuple[tuple[int, ...], ...]  # per level, 4 indices
    blockb: tuple[tuple[int, ...], ...]
    links: tuple[int, ...]  # index of link atom per level 1..s
    omega: tuple[tuple[int, int, int], ...]  # per subset, the three s-atoms


def _ordered(sys: ThreePartitionSystem, cls: Iterable[str]) -> list[str]:
    pos = {x: i for i, x in enumerate(sys.base)}
    return sorted(cls, key=pos.__getitem__)


def _build_reduction(inst: X3CInstance) -> _Layout:
    s = len(inst.ground) // 3
    m = len(inst.sets)
    sigma = gen_strict_3ps(m + 1, 2)
    svar = {x: variable(f"S{i + 1}") for i, x in enumerate(sigma.base)}

    def cls_vars(cls: Iterable[str]) -> list[Term]:
        return [svar[x] for x in _ordered(sigma, cls)]

    xpos = {x: i for i, x in enumerate(inst.ground)}
    xvar = {x: variable(f"X{i + 1}") for x, i in xpos.items()}

    def grid(level: int, i: int) -> list[Term]:
        out = []
        for j in range(1, 9):
            if j == i:
                continue
            lo, hi = min(i, j), max(i, j)
            out.append(variable(f"V{lo}{hi}L{level}"))
        return out

    a0, b0, c0 = sigma.partitions[0]
    a0_sorted = _ordered(sigma, a0)
    split_a = [svar[a0_sorted[0]]]
    split_b = [svar[x] for x in a0_sorted[1:]]
    body: list[Atom] = []
    blocka, blockb = [], []

    def add(rel: str, args: list[Term]) -> int:
        body.append(Atom(rel, tuple(args), len(body)))
        return len(body) - 1

    for level in range(s + 1):
        z = variable(f"Z{level}")
        y = variable(f"Y{level}")
        blocka.append(
            (
                add("q", grid(level, 1) + split_a + [z]),
                add("pa", grid(level, 2) + split_b),
                add("pb", grid(level, 3) + cls_vars(b0)),
                add("pc", grid(level, 4) + cls_vars(c0)),
            )
        )
        blockb.append(
            (
                add("q", grid(level, 5) + split_a + [y]),
                add("pa", grid(level, 6) + split_b),
                add("pb", grid(level, 7) + cls_vars(b0)),
                add("pc", grid(level, 8) + cls_vars(c0)),
            )
        )
    links = tuple(
        add("link", [variable(f"Y{level - 1}"), variable(f"Z{level}")])
        for level in range(1, s + 1)
    )
    omega = []
    for i, d in enumerate(inst.sets):
        pa, pb, pc = sigma.partitions[i + 1]
        xa, xb, xc = sorted(d, key=xpos.__getitem__)
        omega.append(
            (
                add("s", [xvar[xa]] + cls_vars(pa)),
                add("s", [xvar[xb]] + cls_vars(pb)),
                add("s", [xvar[xc]] + cls_vars(pc)),
            )
        )
    q = ConjunctiveQuery(Atom("ans", ()), tuple(body))
    return _Layout(q, tuple(blocka), tuple(blockb), links, tuple(omega))


def x3c_to_query(inst: X3CInstance) -> ConjunctiveQuery:
    """The reduction query: width 4 iff the instance has an exact cover."""
    return _build_reduction(inst).query


def witness_qd_from_cover(
    inst: X3CInstance, cover: list[int]
) -> QueryDecomposition:
    """The chain decomposition showing width 4 for an exact cover."""
    s = len(inst.ground) // 3
    if len(cover) != s or len(set(cover)) != s:
        raise ValueError("cover must list s distinct subset indices")
    picked = [inst.sets[i] for i in cover]
    union: set[str] = set()
    for d in picked:
        if union & d:
            raise ValueError("cover sets are not disjoint")
        union |= d
    if union != set(inst.ground):
        raise ValueError("cover does not exhaust the ground set")
    lay = _build_reduction(inst)
    q = lay.query

    def atoms_label(indices: Iterable[int]) -> frozenset:
        return frozenset(("atom", i) for i in indices)

    verts: list[QdVertex] = []
    verts.append(QdVertex(0, None, atoms_label(lay.blocka[0])))
    verts.append(QdVertex(1, 0, atoms_label(lay.blockb[0])))
    prev = 1
    nid = 2
    for level in range(1, s + 1):
        d_idx = cover[level - 1]
        core = atoms_label((lay.links[level - 1],) + lay.omega[d_idx])
        c_vertex = nid
        verts.append(QdVertex(c_vertex, prev, core))
        nid += 1
        # remaining atoms mentioning an element of the chosen set
        chosen = inst.sets[d_idx]
        for j, d in enumerate(inst.sets):
            if j == d_idx:
                continue
            for pos, x in enumerate(sorted(d, key=inst.ground.index)):
                if x in chosen:
                    verts.append(
                        QdVertex(nid, c_vertex, atoms_label([lay.omega[j][pos]]))
                    )
                    nid += 1
        verts.append(QdVertex(nid, c_vertex, atoms_label(lay.blocka[level])))
        a_vertex = nid
        nid += 1
        verts.append(QdVertex(nid, a_vertex, atoms_label(lay.blockb[level])))
        prev = nid
        nid += 1
    return QueryDecomposition(verts)


def exact_cover(inst: X3CInstance) -> Optional[list[int]]:
    """Backtracking exact-cover solver; None when no cover exists.  Covers the
    first uncovered element by each fitting subset in turn, on a stack."""
    ground, sets = inst.ground, inst.sets
    covers_of: dict[str, list[int]] = {x: [] for x in ground}
    for i, d in enumerate(sets):
        for x in d:
            covers_of[x].append(i)
    remaining, used = set(ground), []
    tries = []  # per element being covered: its ground position, untried subsets
    at = 0
    while remaining:
        while ground[at] not in remaining:  # every element before at is covered
            at += 1
        tries.append((at, iter(covers_of[ground[at]])))
        while True:  # the deepest element's next fitting subset, else backtrack
            at, untried = tries[-1]
            i = next((i for i in untried if sets[i] <= remaining), None)
            if i is not None:
                break
            tries.pop()
            if not tries:
                return None
            remaining |= sets[used.pop()]
        used.append(i)
        remaining -= sets[i]
    return used
