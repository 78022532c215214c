"""Hypertree and query decompositions: types, validators, and transforms.

A hypertree carries two labels per vertex: chi (variables) and lam (body-atom
indices).  Validators check the four hypertree-decomposition conditions, the
three query-decomposition conditions, and the three normal-form conditions;
each violation names its condition and a witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .components import _Index
from .errors import DecompositionFormatError, InvalidDecompositionError
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
        # with one root, a parent cycle is a set of vertices it cannot reach
        if self.vertices and len(self.subtree_ids(roots[0])) != len(self):
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

    def chi_subtree(self, vid: int) -> frozenset[str]:
        out: set[str] = set()
        for i in self.subtree_ids(vid):
            out |= self.vertices[i].chi
        return frozenset(out)

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
        for vid in reversed(self.subtree_ids(self.root_id)):  # children first
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
    data: dict = field(default_factory=dict, compare=False)

    @property
    def valid(self) -> bool:
        return not self.violations

    def conditions(self) -> frozenset[str]:
        return frozenset(v.condition for v in self.violations)


def _connected(parents: dict, members: set) -> bool:
    """Do the member vertices induce a connected subtree?"""
    if len(members) <= 1:
        return True
    internal_edges = sum(
        1 for m in members if parents[m] is not None and parents[m] in members
    )
    return internal_edges == len(members) - 1


def _check_refs(q: ConjunctiveQuery, h: Hypertree):
    qvars = q.variables()
    for v in h:
        for i in v.lam:
            if not 0 <= i < len(q.body):
                raise DecompositionFormatError(
                    f"vertex {v.id}: dangling atom index {i}"
                )
        for x in v.chi:
            if x not in qvars:
                raise DecompositionFormatError(
                    f"vertex {v.id}: unknown variable {x}"
                )


def validate_hd(q: ConjunctiveQuery, h: Hypertree) -> ValidationReport:
    """Check the four hypertree-decomposition conditions."""
    _check_refs(q, h)
    violations = []
    # condition 1: every atom covered by some chi
    for a in q.body:
        avars = a.variables()
        if avars and not any(avars <= v.chi for v in h):
            violations.append(
                Violation("HD1", None, f"atom {a.index} ({a}) uncovered")
            )
    # condition 2: per-variable connectedness
    for x in sorted(q.variables()):
        members = {v.id for v in h if x in v.chi}
        if not _connected(h.parent, members):
            violations.append(
                Violation("HD2", sorted(members), f"variable {x} disconnected")
            )
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
        bad = (lam_vars & h.chi_subtree(v.id)) - v.chi
        if bad:
            violations.append(
                Violation(
                    "HD4", v.id, f"variables {sorted(bad)} in subtree but not chi"
                )
            )
    return ValidationReport(tuple(violations))


def validate_qd(q: ConjunctiveQuery, d: QueryDecomposition) -> ValidationReport:
    """Check the three query-decomposition conditions."""
    qvars = q.variables()
    for v in d:
        for kind, x in v.label:
            if kind == "atom" and not 0 <= x < len(q.body):
                raise DecompositionFormatError(
                    f"vertex {v.id}: dangling atom index {x}"
                )
            if kind == "var" and x not in qvars:
                raise DecompositionFormatError(
                    f"vertex {v.id}: unknown variable {x}"
                )
    violations = []
    covered = set()
    for v in d:
        covered |= d.label_atoms(v.id)
    for a in q.body:
        if a.index not in covered:
            violations.append(
                Violation("QD1", None, f"atom {a.index} ({a}) unlabeled")
            )
    for a in q.body:
        members = {v.id for v in d if a.index in d.label_atoms(v.id)}
        if not _connected(d.parent, members):
            violations.append(
                Violation("QD2", sorted(members), f"atom {a.index} disconnected")
            )
    for x in sorted(qvars):
        members = {v.id for v in d if x in d.label_vars(q, v.id)}
        if not _connected(d.parent, members):
            violations.append(
                Violation("QD3", sorted(members), f"variable {x} disconnected")
            )
    return ValidationReport(tuple(violations))


def _require_hd(q: ConjunctiveQuery, h: Hypertree) -> None:
    """Raise InvalidDecompositionError unless h is a valid decomposition of q."""
    report = validate_hd(q, h)
    if not report.valid:
        raise InvalidDecompositionError(
            f"not a valid hypertree decomposition: {report.violations[0]}"
        )


def hd_width(h: Hypertree) -> int:
    return h.width()


def complete_hd(q: ConjunctiveQuery, h: Hypertree) -> Hypertree:
    """Attach a leaf per atom lacking a strong cover; width never grows."""
    _require_hd(q, h)
    verts = dict(h.vertices)
    next_id = max(verts, default=-1) + 1
    order = h.preorder()
    for a in q.body:
        avars = a.variables()
        if any(avars <= v.chi and a.index in v.lam for v in verts.values()):
            continue
        host = next(
            (vid for vid in order if avars <= h.vertices[vid].chi), None
        )
        if host is None:  # variable-free atom under an empty tree
            if h.root_id is None:
                raise InvalidDecompositionError(
                    "cannot complete an empty decomposition with atoms present"
                )
            host = h.root_id
        verts[next_id] = HtVertex(next_id, host, avars, frozenset({a.index}))
        next_id += 1
    return Hypertree(verts.values())


def is_complete(q: ConjunctiveQuery, h: Hypertree) -> bool:
    return all(
        any(a.variables() <= v.chi and a.index in v.lam for v in h)
        for a in q.body
    )


def _nf_component(
    idx: _Index, h: Hypertree, s: HtVertex
) -> Optional[frozenset[str]]:
    """The unique [chi(parent)]-component matching NF condition 1 for child s."""
    r = h.vertices[s.parent]
    chi_ts = idx.mask(h.chi_subtree(s.id))
    shared = idx.mask(s.chi & r.chi)
    matching = [
        c for c in idx.components(idx.mask(r.chi)) if chi_ts == c | shared
    ]
    return idx.unmask(matching[0]) if len(matching) == 1 else None


def validate_nf(q: ConjunctiveQuery, h: Hypertree) -> ValidationReport:
    """Check the three normal-form conditions; records treecomp per vertex."""
    _require_hd(q, h)
    idx = _Index(q)
    violations = []
    tc: dict[int, frozenset[str]] = {}
    if h.root_id is not None:
        tc[h.root_id] = q.variables()
    for s in h:
        if s.parent is None:
            continue
        r = h.vertices[s.parent]
        match = _nf_component(idx, h, s)
        if match is None:
            violations.append(
                Violation(
                    "NF1",
                    s.id,
                    "no unique [parent]-component matching the subtree",
                )
            )
        else:
            tc[s.id] = match
            if not (s.chi & match):
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
    return ValidationReport(tuple(violations), data={"treecomp": tc})


def treecomp(q: ConjunctiveQuery, h: Hypertree, vid: int) -> frozenset[str]:
    """var(Q) at the root, else the unique matching [parent]-component."""
    report = validate_nf(q, h)
    if not report.valid:
        raise InvalidDecompositionError(
            f"not in normal form: {report.violations[0]}"
        )
    return report.data["treecomp"][vid]


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
    # imported here because detect imports this module
    from .detect import _search_tree

    n = _search_tree(idx, list(cands.items()))
    if n is None:
        raise RuntimeError("no normal form over the decomposition's labels")
    return n


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
    if not is_complete(q, h):
        raise InvalidDecompositionError("decomposition is not complete")
    if h.root_id is None:
        return JoinTree([])
    # designated vertex per atom: least id with lam={A}, chi=var(A)
    designated: dict[int, int] = {}
    for vid in sorted(h.vertices):
        v = h.vertices[vid]
        if len(v.lam) == 1:
            (a,) = v.lam
            if v.chi == q.body[a].variables() and a not in designated:
                designated[a] = vid
    keep = set(designated.values())
    # undirected adjacency; contract non-designated vertices into a neighbor
    adj: dict[int, set[int]] = {v.id: set() for v in h}
    for v in h:
        if v.parent is not None:
            adj[v.id].add(v.parent)
            adj[v.parent].add(v.id)

    def toward(src: int, targets: set[int]) -> int:
        """Neighbor of src on the path to the nearest target vertex."""
        seen = {src}
        frontier = [(n, n) for n in sorted(adj[src])]
        while frontier:
            nxt = []
            for first, cur in frontier:
                if cur in targets:
                    return first
                seen.add(cur)
                for m in sorted(adj[cur]):
                    if m not in seen:
                        nxt.append((first, m))
            frontier = nxt
        raise InvalidDecompositionError("no designated vertex reachable")

    for vid in sorted(h.vertices):
        if vid in keep:
            continue
        # the designated vertex of v's own atom holds chi(v), and so does
        # every vertex on the way to it; a vertex with empty lam has no chi
        n = toward(vid, {designated[a] for a in h.vertices[vid].lam} or keep)
        for m in adj[vid]:
            if m != n:
                adj[m].discard(vid)
                adj[m].add(n)
                adj[n].add(m)
        adj[n].discard(vid)
        del adj[vid]
    atom_of = {vid: a for a, vid in designated.items()}
    root_vid = designated[min(designated)]
    verts = []
    seen = {root_vid}
    stack = [(root_vid, None)]
    while stack:
        vid, par = stack.pop()
        verts.append(JtVertex(atom_of[vid], par))
        for m in sorted(adj[vid]):
            if m not in seen:
                seen.add(m)
                stack.append((m, atom_of[vid]))
    if len(verts) != len(q.body):
        raise InvalidDecompositionError("join tree does not cover every atom")
    return JoinTree(verts)


def validate_jointree(q: ConjunctiveQuery, jt: JoinTree) -> ValidationReport:
    """Connectedness condition: each variable induces a connected subtree."""
    violations = []
    if set(jt.parent) != {a.index for a in q.body}:
        violations.append(Violation("JT0", None, "atoms not covered exactly once"))
        return ValidationReport(tuple(violations))
    for x in sorted(q.variables()):
        members = {a.index for a in q.body if x in a.variables()}
        if not _connected(jt.parent, members):
            violations.append(
                Violation("JT1", sorted(members), f"variable {x} disconnected")
            )
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


def _json_nodes(text: str) -> tuple[Optional[ConjunctiveQuery], list[dict]]:
    """The query (if any) and node objects of a decomposition file."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise TypeError("top level is not an object")
    query = doc.get("query")
    if query is not None and not isinstance(query, str):
        raise TypeError('"query" is not a string')
    nodes = _json_list(doc, "nodes")
    if not all(isinstance(n, dict) for n in nodes):
        raise TypeError("a node is not an object")
    return (parse_query(query) if query else None), nodes


def _json_list(obj: dict, key: str) -> list:
    """obj[key], which must be a list (a string would read as its letters)."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f'"{key}" is not a list')
    return value


def _json_parent(n: dict) -> Optional[int]:
    return None if n["parent"] is None else int(n["parent"])


def hypertree_from_json(text: str) -> tuple[Optional[ConjunctiveQuery], Hypertree]:
    try:
        q, nodes = _json_nodes(text)
        verts = [
            HtVertex(
                int(n["id"]),
                _json_parent(n),
                frozenset(_json_list(n, "chi")),
                frozenset(int(i) for i in _json_list(n, "lambda")),
            )
            for n in nodes
        ]
    except (KeyError, TypeError, ValueError) as e:
        raise DecompositionFormatError(f"bad decomposition file: {e}") from e
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


def qd_from_json(text: str) -> tuple[Optional[ConjunctiveQuery], QueryDecomposition]:
    try:
        q, nodes = _json_nodes(text)
        verts = []
        for n in nodes:
            label = set()
            for item in _json_list(n, "label"):
                if not isinstance(item, dict):
                    raise TypeError("a label item is not an object")
                if "atom" in item:
                    label.add(("atom", int(item["atom"])))
                else:
                    label.add(("var", str(item["var"])))
            verts.append(QdVertex(int(n["id"]), _json_parent(n), frozenset(label)))
    except (KeyError, TypeError, ValueError) as e:
        raise DecompositionFormatError(f"bad decomposition file: {e}") from e
    return q, QueryDecomposition(verts)
