"""Hypertree and query decompositions: types, validators, and transforms.

A hypertree carries two labels per vertex: chi (variables) and lam (body-atom
indices).  Validators check the four hypertree-decomposition conditions, the
three query-decomposition conditions, and the three normal-form conditions;
each violation names its condition and a witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .components import _Index
from .errors import (
    DecompositionFormatError,
    InvalidDecompositionError,
    QuerySyntaxError,
)
from .model import ConjunctiveQuery, atoms_vars, parse_query


class _RootedTree:
    """Parent, child and root links of a rooted tree; may be empty.

    Vertices are keyed by their ``key`` attribute and name their parent
    by the same key.  Raises DecompositionFormatError on a duplicate key,
    an unknown parent, more than one root, or a parent cycle.
    """

    def __init__(self, vertices: Iterable, key: str = "id"):
        self.vertices: dict = {}
        for v in vertices:
            vid = getattr(v, key)
            if vid in self.vertices:
                raise DecompositionFormatError(f"duplicate vertex {key} {vid}")
            self.vertices[vid] = v
        self.parent: dict[int, Optional[int]] = {
            vid: v.parent for vid, v in self.vertices.items()
        }
        self.children: dict[int, list[int]] = {i: [] for i in self.vertices}
        roots = []
        for vid, p in self.parent.items():
            if p is None:
                roots.append(vid)
            elif p not in self.children:
                raise DecompositionFormatError(
                    f"vertex {vid} has unknown parent {p}"
                )
            else:
                self.children[p].append(vid)
        if self.vertices and len(roots) != 1:
            raise DecompositionFormatError("expected exactly one root vertex")
        self.root_id: Optional[int] = roots[0] if roots else None
        # parents first; a parent cycle leaves vertices the root cannot reach
        self._topdown = self.subtree_ids(roots[0]) if roots else []
        if len(self._topdown) != len(self):
            raise DecompositionFormatError("parent links do not form a tree")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices.values())

    def subtree_ids(self, vid: int) -> list[int]:
        """vid and its descendants, each parent before its children."""
        out, stack = [], [vid]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        return out

    def _holders(self, holds: dict) -> dict:
        """item -> the vertices holding it, parents first; holds maps every
        vertex to its items."""
        out: dict = {}
        for vid in self._topdown:
            for x in holds[vid]:
                out.setdefault(x, []).append(vid)
        return out

    def _disconnected(self, holds: dict) -> list[tuple]:
        """(item, sorted holders) for each item whose holders do not form
        one connected subtree, sorted by item.  Listed parents first, the
        first holder's parent lacks the item; the holders are connected iff
        every later holder's parent has it."""
        return sorted(
            (x, sorted(vs))
            for x, vs in self._holders(holds).items()
            if any(x not in holds[self.parent[v]] for v in vs[1:])
        )


@dataclass(frozen=True)
class HtVertex:
    id: int
    parent: Optional[int]
    chi: frozenset[str]
    lam: frozenset[int]


class Hypertree(_RootedTree):
    """Rooted labeled tree; may be empty (decomposition of an empty body)."""

    @property
    def root(self) -> Optional[HtVertex]:
        return None if self.root_id is None else self.vertices[self.root_id]

    def _chi_below(self, idx: _Index) -> dict[int, int]:
        """vid -> bitmask of the variables in chi anywhere in vid's subtree."""
        below: dict[int, int] = {}
        for vid in reversed(self._topdown):
            m = idx.mask(self.vertices[vid].chi)
            for c in self.children[vid]:
                m |= below[c]
            below[vid] = m
        return below

    def _covers(self, q: ConjunctiveQuery) -> list[list[int]]:
        """Per body atom, the vertices whose chi holds all of its variables,
        parents first; every vertex for a variable-free atom.  Each atom is
        looked up under the variable that the fewest vertices hold."""
        chi = {v.id: v.chi for v in self}
        holders = self._holders(chi)
        out = []
        for a in q.body:
            avars = a.variables()
            if not avars:
                out.append(self._topdown)
                continue
            rarest = min(avars, key=lambda x: len(holders.get(x, ())))
            out.append([v for v in holders.get(rarest, ()) if avars <= chi[v]])
        return out

    def width(self) -> int:
        return max((len(v.lam) for v in self), default=0)

    def preorder(self) -> list[int]:
        """Canonical preorder: children sorted by (min lam, min chi)."""
        if self.root_id is None:
            return []

        def key(vid: int):
            v = self.vertices[vid]
            return (min(v.lam, default=-1), min(v.chi, default=""), vid)

        out, stack = [], [self.root_id]
        while stack:
            vid = stack.pop()
            out.append(vid)
            stack.extend(sorted(self.children[vid], key=key, reverse=True))
        return out

    def canonical(self):
        """Hashable form for equality up to rooted-tree isomorphism.

        A flat tuple with one (chi, lam, child count) entry per vertex in
        preorder, children ordered by their own forms; flat so that neither
        building nor comparing it recurses once per tree level.
        """
        if self.root_id is None:
            return ()
        forms: dict[int, tuple] = {}
        for vid in reversed(self._topdown):  # children first
            v = self.vertices[vid]
            kids = sorted(forms.pop(c) for c in self.children[vid])
            head = (tuple(sorted(v.chi)), tuple(sorted(v.lam)), len(kids))
            forms[vid] = (head,) + tuple(e for kid in kids for e in kid)
        return forms[self.root_id]


LabelItem = tuple  # ("atom", index) or ("var", name)


@dataclass(frozen=True)
class QdVertex:
    id: int
    parent: Optional[int]
    label: frozenset[LabelItem]


class QueryDecomposition(_RootedTree):
    """Rooted tree labeled with atoms and variables; never empty."""

    def __init__(self, vertices: Iterable[QdVertex]):
        super().__init__(vertices)
        if self.root_id is None:
            raise DecompositionFormatError("expected exactly one root vertex")

    def is_pure(self) -> bool:
        return all(
            item[0] == "atom" for v in self for item in v.label
        )

    def width(self) -> int:
        return max((len(v.label) for v in self), default=0)

    def label_atoms(self, vid: int) -> frozenset[int]:
        return frozenset(
            i for kind, i in self.vertices[vid].label if kind == "atom"
        )

    def label_vars(self, q: ConjunctiveQuery, vid: int) -> frozenset[str]:
        """Variables labeled explicitly or occurring in a labeled atom."""
        out: set[str] = set()
        for kind, x in self.vertices[vid].label:
            if kind == "var":
                out.add(x)
            else:
                out |= q.body[x].variables()
        return frozenset(out)


@dataclass(frozen=True)
class JtVertex:
    atom: int
    parent: Optional[int]  # parent atom index


class JoinTree(_RootedTree):
    """Tree over the body atoms; each atom occurs exactly once."""

    def __init__(self, vertices: Iterable[JtVertex]):
        super().__init__(vertices, key="atom")

    def __bool__(self) -> bool:
        # an empty join tree (empty-body query) is still a positive answer
        return True


@dataclass(frozen=True)
class Violation:
    condition: str
    vertex: object
    witness: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def conditions(self) -> frozenset[str]:
        return frozenset(v.condition for v in self.violations)


def _check_refs(q: ConjunctiveQuery, labels: Iterable[tuple]) -> None:
    """Reject dangling atom indices and unknown variables; labels holds one
    (vertex id, atom indices, variables) triple per vertex."""
    qvars = q.variables()
    for vid, atoms, names in labels:
        for i in atoms:
            if not 0 <= i < len(q.body):
                raise DecompositionFormatError(
                    f"vertex {vid}: dangling atom index {i}"
                )
        for x in names:
            if x not in qvars:
                raise DecompositionFormatError(
                    f"vertex {vid}: unknown variable {x}"
                )


def validate_hd(q: ConjunctiveQuery, h: Hypertree) -> ValidationReport:
    """Check the four hypertree-decomposition conditions."""
    return _validate_hd(q, h)[0]


_Checked = tuple[ValidationReport, _Index, dict[int, int]]


def _validate_hd(q: ConjunctiveQuery, h: Hypertree) -> _Checked:
    """``validate_hd``'s report, with the index of q and ``_chi_below`` of h
    that condition 4 reads, for the checks that follow it."""
    _check_refs(q, ((v.id, v.lam, v.chi) for v in h))
    violations = []
    # condition 1: every atom with variables has a vertex whose chi covers it
    for a, covers in zip(q.body, h._covers(q)):
        if a.variables() and not covers:
            violations.append(
                Violation("HD1", None, f"atom {a.index} ({a}) uncovered")
            )
    # condition 2: per-variable connectedness
    for x, members in h._disconnected({v.id: v.chi for v in h}):
        violations.append(Violation("HD2", members, f"variable {x} disconnected"))
    idx = _Index(q)
    below = h._chi_below(idx)
    for v in h:
        lam_vars = atoms_vars(q, v.lam)
        # condition 3: chi covered by the lam atoms
        extra = v.chi - lam_vars
        if extra:
            violations.append(
                Violation(
                    "HD3", v.id, f"chi variables {sorted(extra)} not in var(lambda)"
                )
            )
        # condition 4: lam variables reused below must be in chi
        bad = idx.unmask(idx.mask(lam_vars) & below[v.id] & ~idx.mask(v.chi))
        if bad:
            violations.append(
                Violation(
                    "HD4", v.id, f"variables {sorted(bad)} in subtree but not chi"
                )
            )
    return ValidationReport(tuple(violations)), idx, below


def validate_qd(q: ConjunctiveQuery, d: QueryDecomposition) -> ValidationReport:
    """Check the three query-decomposition conditions."""
    atoms = {v.id: d.label_atoms(v.id) for v in d}
    names = {v.id: [x for kind, x in v.label if kind == "var"] for v in d}
    _check_refs(q, ((vid, atoms[vid], names[vid]) for vid in atoms))
    violations = []
    covered = set().union(*atoms.values())
    for a in q.body:
        if a.index not in covered:
            violations.append(
                Violation("QD1", None, f"atom {a.index} ({a}) unlabeled")
            )
    for i, members in d._disconnected(atoms):
        violations.append(Violation("QD2", members, f"atom {i} disconnected"))
    label_vars = {v.id: d.label_vars(q, v.id) for v in d}
    for x, members in d._disconnected(label_vars):
        violations.append(Violation("QD3", members, f"variable {x} disconnected"))
    return ValidationReport(tuple(violations))


def _require_hd(
    q: ConjunctiveQuery, h: Hypertree, nf: bool = False
) -> tuple[_Index, dict[int, int]]:
    """The index of q and ``_chi_below`` of h; raises InvalidDecompositionError
    unless h is a valid decomposition of q, in normal form if nf."""
    report, idx, below = (_validate_nf if nf else _validate_hd)(q, h)
    if not report.valid:
        what = "in normal form" if nf else "a valid hypertree decomposition"
        raise InvalidDecompositionError(f"not {what}: {report.violations[0]}")
    return idx, below


def hd_width(h: Hypertree) -> int:
    return h.width()


def _strong_covers(covers: list[list[int]], h: Hypertree) -> list[list[int]]:
    """Per body atom i, the vertices of covers[i] whose lam holds i."""
    return [
        [v for v in vs if i in h.vertices[v].lam] for i, vs in enumerate(covers)
    ]


def complete_hd(q: ConjunctiveQuery, h: Hypertree) -> Hypertree:
    """Attach a leaf per atom lacking a strong cover; width never grows."""
    _require_hd(q, h)
    return _complete_hd(q, h)


def _complete_hd(q: ConjunctiveQuery, h: Hypertree) -> Hypertree:
    """``complete_hd`` of a tree known to be a decomposition of q."""
    verts = dict(h.vertices)
    next_id = max(verts, default=-1) + 1
    covers = h._covers(q)
    for a, vs, strong in zip(q.body, covers, _strong_covers(covers, h)):
        if strong:
            continue
        if not vs:  # variable-free atom under an empty tree
            raise InvalidDecompositionError(
                "cannot complete an empty decomposition with atoms present"
            )
        # the covering vertices form a subtree (HD2): hang A under its top
        verts[next_id] = HtVertex(next_id, vs[0], a.variables(), frozenset({a.index}))
        next_id += 1
    return Hypertree(verts.values())


def is_complete(q: ConjunctiveQuery, h: Hypertree) -> bool:
    return all(_strong_covers(h._covers(q), h))


def validate_nf(q: ConjunctiveQuery, h: Hypertree) -> ValidationReport:
    """Check the three normal-form conditions, splitting chi(T_r) - chi(r)
    once per parent r."""
    return _validate_nf(q, h)[0]


def _validate_nf(q: ConjunctiveQuery, h: Hypertree) -> _Checked:
    """``validate_nf``, with the index and subtree masks of its decomposition
    check."""
    idx, below = _require_hd(q, h)
    splits: dict[int, set[int]] = {}  # per parent r: its split of chi(T_r)
    violations = []
    for s in h:
        if s.parent is None:
            continue
        r = h.vertices[s.parent]
        # condition 2 puts T_s's chi(r) variables in chi(s): only chi(T_s) - chi(r)
        # can match.  Conditions 1-2 cover every atom meeting chi(T_r) - chi(r)
        # inside T_r, so that part is a union of components: split it alone.
        chi_r = idx.mask(r.chi)
        if r.id not in splits:
            splits[r.id] = set(idx.components(chi_r, below[r.id]))
        if below[s.id] & ~chi_r not in splits[r.id]:
            violations.append(
                Violation(
                    "NF1",
                    s.id,
                    "no unique [parent]-component matching the subtree",
                )
            )
        elif s.chi <= r.chi:  # chi(s) meets its component in chi(s) - chi(r)
            violations.append(
                Violation("NF2", s.id, "chi disjoint from its component")
            )
        bad = (atoms_vars(q, s.lam) & r.chi) - s.chi
        if bad:
            violations.append(
                Violation(
                    "NF3", s.id, f"parent chi variables {sorted(bad)} missing"
                )
            )
    return ValidationReport(tuple(violations)), idx, below


def _treecomp(
    q: ConjunctiveQuery, h: Hypertree, idx: _Index, below: dict[int, int], vid: int
) -> frozenset[str]:
    p = h.parent[vid]
    if p is None:
        return q.variables()
    return idx.unmask(below[vid] & ~idx.mask(h.vertices[p].chi))


def treecomps(q: ConjunctiveQuery, h: Hypertree) -> dict[int, frozenset[str]]:
    """Every vertex's treecomp: var(Q) at the root, else its [parent]-component
    chi(T_v) - chi(parent).  One normal-form check, whose subtree masks give
    every entry; raises InvalidDecompositionError unless h is in normal form."""
    idx, below = _require_hd(q, h, nf=True)
    return {v.id: _treecomp(q, h, idx, below, v.id) for v in h}


def treecomp(q: ConjunctiveQuery, h: Hypertree, vid: int) -> frozenset[str]:
    """var(Q) at the root, else its [parent]-component chi(T_vid) - chi(parent):
    treecomps(q, h)[vid], unmasking only that one."""
    return _treecomp(q, h, *_require_hd(q, h, nf=True), vid)


def qd_to_hd(q: ConjunctiveQuery, d: QueryDecomposition) -> Hypertree:
    """Pure query decomposition to hypertree decomposition: chi = var(lam)."""
    if not d.is_pure():
        raise InvalidDecompositionError(
            "query decomposition is not pure (labels contain variables); "
            "purification is out of scope"
        )
    report = validate_qd(q, d)
    if not report.valid:
        raise InvalidDecompositionError(
            f"not a valid query decomposition: {report.violations[0]}"
        )
    verts = []
    for v in d:
        lam = d.label_atoms(v.id)
        verts.append(HtVertex(v.id, v.parent, atoms_vars(q, lam), lam))
    return Hypertree(verts)


def hd_to_jointree(q: ConjunctiveQuery, h: Hypertree) -> JoinTree:
    """Collapse a complete width-1 decomposition to a join tree."""
    _require_hd(q, h)
    if h.width() > 1:
        raise InvalidDecompositionError(f"width {h.width()} > 1")
    return _hd_to_jointree(q, h)


def _hd_to_jointree(q: ConjunctiveQuery, h: Hypertree) -> JoinTree:
    """``hd_to_jointree`` of a tree known to be a decomposition of q of
    width 1; raises InvalidDecompositionError unless it is complete."""
    strong = _strong_covers(h._covers(q), h)
    if not all(strong):
        raise InvalidDecompositionError("decomposition is not complete")
    if not strong:
        return JoinTree([])
    # Grow one group per atom from its designated vertex, its least-id
    # strong cover (at width 1 that has lam={A} and, by HD3, chi=var(A)),
    # breadth-first in id order: a vertex joins a neighbour's group when
    # that neighbour's chi holds its own.  Every vertex is reached: HD2 puts
    # chi(v) on the whole path to its own atom's vertex, so an unreached
    # vertex of largest chi would border a group that holds its chi.  Every
    # vertex's chi lies in its group's atom, so the links between the
    # connected groups form a join tree.
    group = {min(vs): a for a, vs in enumerate(strong)}
    queue = sorted(group)
    for u in queue:  # the queue grows as the loop runs
        chi = h.vertices[u].chi
        for w in h.children[u] + [h.parent[u]]:
            if w is not None and w not in group and h.vertices[w].chi <= chi:
                group[w] = group[u]
                queue.append(w)
    # each group's top vertex, met first from the root, links it upward
    parent: dict[int, Optional[int]] = {}
    for vid in h._topdown:
        a, up = group[vid], group.get(h.parent[vid])
        if a != up:
            parent[a] = up
    # re-root at the least atom: reverse the links on its path to the root
    a, below = min(parent), None
    while a is not None:
        parent[a], below, a = below, a, parent[a]
    return JoinTree(JtVertex(a, p) for a, p in parent.items())


def validate_jointree(q: ConjunctiveQuery, jt: JoinTree) -> ValidationReport:
    """Connectedness condition: each variable induces a connected subtree."""
    violations = []
    if set(jt.parent) != {a.index for a in q.body}:
        violations.append(Violation("JT0", None, "atoms not covered exactly once"))
        return ValidationReport(tuple(violations))
    for x, members in jt._disconnected({a.index: a.variables() for a in q.body}):
        violations.append(Violation("JT1", members, f"variable {x} disconnected"))
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# file format (JSON)


def hypertree_to_json(q: ConjunctiveQuery, h: Hypertree) -> str:
    nodes = [
        {
            "id": v.id,
            "parent": v.parent,
            "chi": sorted(v.chi),
            "lambda": sorted(v.lam),
        }
        for v in sorted(h, key=lambda v: v.id)
    ]
    return json.dumps({"query": str(q), "nodes": nodes}, indent=2) + "\n"


def _read_nodes(text: str, vertex: Callable[[dict], object]) -> tuple:
    """The query (if any) of a decomposition file, and vertex(node) for each
    of its node objects; a malformed file raises DecompositionFormatError."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError("top level is not an object")
        query = doc.get("query")
        if query is not None and not isinstance(query, str):
            raise TypeError('"query" is not a string')
        nodes = _json(doc["nodes"], list, "nodes")
        if not all(isinstance(n, dict) for n in nodes):
            raise TypeError("a node is not an object")
        q = parse_query(query) if query else None
        verts = [vertex(n) for n in nodes]
    except (KeyError, TypeError, ValueError, OverflowError, QuerySyntaxError) as e:
        raise DecompositionFormatError(f"bad decomposition file: {e}") from e
    return q, verts


def _json(value, kind: type, key: str):
    """value, if its JSON type is kind; the match is exact, so true is not
    an int and a string is not a list (it would read as its letters)."""
    if type(value) is not kind:
        name = {int: "an int", str: "a string", list: "a list"}[kind]
        raise TypeError(f'"{key}" is not {name}')
    return value


def _json_items(n: dict, key: str, kind: type) -> list:
    """n[key], a list of values of JSON type kind."""
    return [_json(x, kind, key) for x in _json(n[key], list, key)]


def _json_parent(n: dict) -> Optional[int]:
    return None if n["parent"] is None else _json(n["parent"], int, "parent")


def _hd_vertex(n: dict) -> HtVertex:
    return HtVertex(
        _json(n["id"], int, "id"),
        _json_parent(n),
        frozenset(_json_items(n, "chi", str)),
        frozenset(_json_items(n, "lambda", int)),
    )


def hypertree_from_json(text: str) -> tuple[Optional[ConjunctiveQuery], Hypertree]:
    q, verts = _read_nodes(text, _hd_vertex)
    return q, Hypertree(verts)


def qd_to_json(q: ConjunctiveQuery, d: QueryDecomposition) -> str:
    nodes = []
    for v in sorted(d, key=lambda v: v.id):
        items = [
            {"atom": x} if kind == "atom" else {"var": x} for kind, x in v.label
        ]
        label = sorted(
            items, key=lambda it: (0, it["atom"]) if "atom" in it else (1, it["var"])
        )
        nodes.append({"id": v.id, "parent": v.parent, "label": label})
    return json.dumps({"query": str(q), "nodes": nodes}, indent=2) + "\n"


def _qd_vertex(n: dict) -> QdVertex:
    label = set()
    for item in _json(n["label"], list, "label"):
        if not isinstance(item, dict):
            raise TypeError("a label item is not an object")
        if "atom" in item:
            label.add(("atom", _json(item["atom"], int, "atom")))
        else:
            label.add(("var", _json(item["var"], str, "var")))
    return QdVertex(_json(n["id"], int, "id"), _json_parent(n), frozenset(label))


def qd_from_json(text: str) -> tuple[Optional[ConjunctiveQuery], QueryDecomposition]:
    q, verts = _read_nodes(text, _qd_vertex)
    return q, QueryDecomposition(verts)
