"""The validators and tree transforms against definitional references.

The references check each condition as the definitions state it: the
vertices holding a variable or atom are collected by scanning the whole tree
and are connected iff they span one fewer tree edge than their number;
chi(T_v) is the union of chi over a walk of v's subtree; a cover is any
vertex whose labels contain the atom.  The library answers the same
questions from one inversion of the labels and one bottom-up bitmask pass,
and must report the same violations, in the same order with the same
witnesses, the same completions and completeness, and, for a tree in
normal form, the same treecomp at every vertex.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from htd import brute_force_qw, decompose
from htd.components import _Index
from htd.errors import (
    DecompositionFormatError,
    HtdError,
    InconclusiveError,
    InvalidDecompositionError,
)
from htd.hypertree import (
    Hypertree,
    HtVertex,
    JoinTree,
    QdVertex,
    QueryDecomposition,
    Violation,
    complete_hd,
    hd_to_jointree,
    is_complete,
    treecomps,
    validate_hd,
    validate_jointree,
    validate_nf,
    validate_qd,
)
from htd.model import atoms_vars

import util


def connected(parents, members):
    if len(members) <= 1:
        return True
    edges = sum(1 for m in members if parents[m] in members)
    return edges == len(members) - 1


def chi_subtree(h, vid):
    out, stack = set(), [vid]
    while stack:
        v = stack.pop()
        out |= h.vertices[v].chi
        stack.extend(h.children[v])
    return frozenset(out)


def check_refs(q, qvars, vid, atoms, names):
    for i in atoms:
        if not 0 <= i < len(q.body):
            raise DecompositionFormatError(f"vertex {vid}: dangling atom index {i}")
    for x in names:
        if x not in qvars:
            raise DecompositionFormatError(f"vertex {vid}: unknown variable {x}")


def ref_validate_hd(q, h):
    qvars = q.variables()
    for v in h:
        check_refs(q, qvars, v.id, v.lam, v.chi)
    out = []
    for a in q.body:
        avars = a.variables()
        if avars and not any(avars <= v.chi for v in h):
            out.append(Violation("HD1", None, f"atom {a.index} ({a}) uncovered"))
    for x in sorted(q.variables()):
        members = {v.id for v in h if x in v.chi}
        if not connected(h.parent, members):
            out.append(Violation("HD2", sorted(members), f"variable {x} disconnected"))
    for v in h:
        lam_vars = atoms_vars(q, v.lam)
        extra = v.chi - lam_vars
        if extra:
            out.append(
                Violation("HD3", v.id, f"chi variables {sorted(extra)} not in var(lambda)")
            )
        bad = (lam_vars & chi_subtree(h, v.id)) - v.chi
        if bad:
            out.append(
                Violation("HD4", v.id, f"variables {sorted(bad)} in subtree but not chi")
            )
    return tuple(out), None


def require_hd(q, h):
    violations, _ = ref_validate_hd(q, h)
    if violations:
        raise InvalidDecompositionError(
            f"not a valid hypertree decomposition: {violations[0]}"
        )


def ref_validate_qd(q, d):
    qvars = q.variables()
    for v in d:
        check_refs(
            q,
            qvars,
            v.id,
            [x for kind, x in v.label if kind == "atom"],
            [x for kind, x in v.label if kind == "var"],
        )
    out = []
    covered = set()
    for v in d:
        covered |= d.label_atoms(v.id)
    for a in q.body:
        if a.index not in covered:
            out.append(Violation("QD1", None, f"atom {a.index} ({a}) unlabeled"))
    for a in q.body:
        members = {v.id for v in d if a.index in d.label_atoms(v.id)}
        if not connected(d.parent, members):
            out.append(Violation("QD2", sorted(members), f"atom {a.index} disconnected"))
    for x in sorted(q.variables()):
        members = {v.id for v in d if x in d.label_vars(q, v.id)}
        if not connected(d.parent, members):
            out.append(Violation("QD3", sorted(members), f"variable {x} disconnected"))
    return tuple(out), None


def ref_validate_jointree(q, jt):
    if set(jt.parent) != {a.index for a in q.body}:
        return (Violation("JT0", None, "atoms not covered exactly once"),), None
    out = []
    for x in sorted(q.variables()):
        members = {a.index for a in q.body if x in a.variables()}
        if not connected(jt.parent, members):
            out.append(Violation("JT1", sorted(members), f"variable {x} disconnected"))
    return tuple(out), None


def ref_validate_nf(q, h):
    require_hd(q, h)
    idx = _Index(q)
    out = []
    tc = {} if h.root_id is None else {h.root_id: q.variables()}
    for s in h:
        if s.parent is None:
            continue
        r = h.vertices[s.parent]
        chi_ts = idx.mask(chi_subtree(h, s.id))
        shared = idx.mask(s.chi & r.chi)
        matching = [c for c in idx.components(idx.mask(r.chi)) if chi_ts == c | shared]
        if len(matching) != 1:
            out.append(
                Violation("NF1", s.id, "no unique [parent]-component matching the subtree")
            )
        else:
            tc[s.id] = idx.unmask(matching[0])
            if not (s.chi & tc[s.id]):
                out.append(Violation("NF2", s.id, "chi disjoint from its component"))
        bad = (atoms_vars(q, s.lam) & r.chi) - s.chi
        if bad:
            out.append(
                Violation("NF3", s.id, f"parent chi variables {sorted(bad)} missing")
            )
    return tuple(out), None if out else tc


def nf_treecomps(q, h):
    """validate_nf's violations and, for a tree in normal form, treecomp at
    every vertex, as ref_validate_nf returns them."""
    report = validate_nf(q, h)
    if not report.valid:
        return report.violations, None
    return report.violations, treecomps(q, h)


def ref_is_complete(q, h):
    return all(
        any(a.variables() <= v.chi and a.index in v.lam for v in h) for a in q.body
    )


def ref_complete_hd(q, h):
    require_hd(q, h)
    verts = dict(h.vertices)
    next_id = max(verts, default=-1) + 1
    for a in q.body:
        avars = a.variables()
        if any(avars <= v.chi and a.index in v.lam for v in verts.values()):
            continue
        host = next((vid for vid in h.preorder() if avars <= h.vertices[vid].chi), None)
        if host is None:
            if h.root_id is None:
                raise InvalidDecompositionError(
                    "cannot complete an empty decomposition with atoms present"
                )
            host = h.root_id
        verts[next_id] = HtVertex(next_id, host, avars, frozenset({a.index}))
        next_id += 1
    return Hypertree(verts.values())


def outcome(fn, *args):
    """fn's result in comparable form, or the error it raised; a report is
    (violations, None), as the references return it."""
    try:
        out = fn(*args)
    except HtdError as e:
        return type(e), str(e)
    if isinstance(out, Hypertree):
        return list(out)
    if hasattr(out, "violations"):
        return out.violations, None
    return out


def same(seen, got, want):
    """Assert equal outcomes; count the conditions violated and the treecomp
    maps compared."""
    out = outcome(*got)
    assert out == outcome(*want), got
    if isinstance(out, tuple) and isinstance(out[0], tuple):
        seen.update(v.condition for v in out[0])
        seen["treecomps"] += out[1] is not None


# --- corpus -----------------------------------------------------------------


def reparented(rng, verts, key):
    """verts with one non-root vertex hung under a vertex outside its subtree."""
    movable = [v for v in verts if v.parent is not None]
    if not movable:
        return None
    v = rng.choice(movable)
    below, frontier = {getattr(v, key)}, [getattr(v, key)]
    while frontier:
        kids = [getattr(w, key) for w in verts if w.parent in frontier]
        below.update(kids)
        frontier = kids
    target = rng.choice(sorted(getattr(w, key) for w in verts))
    if target in below:
        return None
    return [replace(w, parent=target) if w is v else w for w in verts]


def hd_mutants(rng, q, verts):
    qvars, n = sorted(q.variables()), len(q.body)
    out = []
    for _ in range(3):
        i = rng.randrange(len(verts))
        v = verts[i]
        for label in (
            HtVertex(v.id, v.parent, v.chi - {min(v.chi, default="")}, v.lam),
            HtVertex(v.id, v.parent, v.chi | {rng.choice(qvars)}, v.lam),
            HtVertex(v.id, v.parent, v.chi, v.lam | {rng.randrange(n)}),
        ):
            out.append(verts[:i] + [label] + verts[i + 1 :])
        out.append(reparented(rng, verts, "id"))
    return [m for m in out if m is not None]


def qd_mutants(rng, q, verts):
    qvars, n = sorted(q.variables()), len(q.body)
    out = []
    for _ in range(3):
        i = rng.randrange(len(verts))
        v = verts[i]
        for label in (
            v.label - {min(v.label, default=None)},
            v.label | {("var", rng.choice(qvars))},
            v.label | {("atom", rng.randrange(n))},
        ):
            out.append(verts[:i] + [QdVertex(v.id, v.parent, label)] + verts[i + 1 :])
        out.append(reparented(rng, verts, "id"))
    return [m for m in out if m is not None]


def corpus_query(seed):
    rng = random.Random(seed)
    q = util.rand_query(
        rng,
        max_atoms=rng.choice([3, 5, 7]),
        max_vars=rng.choice([4, 6, 8]),
        max_arity=rng.choice([2, 3]),
    )
    return rng, q


def check_seed(seed):
    rng, q = corpus_query(seed)
    hds = []
    for k in (1, 2, 3):
        h = decompose(q, k)
        if h is not None:
            hds += [list(h), list(complete_hd(q, h))]
    qds = []
    for k in (1, 2, 3):
        try:
            d = brute_force_qw(q, k)
        except InconclusiveError:
            break
        if d is not None:
            qds.append(list(d))
            break
    jts = []
    h1 = decompose(q, 1)
    if h1 is not None:
        jts.append(list(hd_to_jointree(q, complete_hd(q, h1))))
    seen = Counter()
    for verts in hds:
        for tree in [verts] + hd_mutants(rng, q, verts):
            h = Hypertree(tree)
            same(seen, (validate_hd, q, h), (ref_validate_hd, q, h))
            same(seen, (nf_treecomps, q, h), (ref_validate_nf, q, h))
            same(seen, (is_complete, q, h), (ref_is_complete, q, h))
            same(seen, (complete_hd, q, h), (ref_complete_hd, q, h))
            # the same tree as a query decomposition of lam atoms and chi
            d = QueryDecomposition(
                QdVertex(
                    v.id,
                    v.parent,
                    frozenset({("atom", i) for i in v.lam} | {("var", x) for x in v.chi}),
                )
                for v in tree
            )
            same(seen, (validate_qd, q, d), (ref_validate_qd, q, d))
            seen["trees"] += 1
    for verts in qds:
        for tree in [verts] + qd_mutants(rng, q, verts):
            d = QueryDecomposition(tree)
            same(seen, (validate_qd, q, d), (ref_validate_qd, q, d))
            seen["trees"] += 1
    for verts in jts:
        for tree in [verts] + [reparented(rng, verts, "atom") for _ in range(3)]:
            if tree is not None:
                jt = JoinTree(tree)
                same(seen, (validate_jointree, q, jt), (ref_validate_jointree, q, jt))
                seen["trees"] += 1
    return seen


def test_matches_reference_on_seeded_corpus():
    seen = Counter()
    for seed in range(40):
        seen += check_seed(seed)
    assert seen["trees"] > 3000
    assert seen["treecomps"] > 800
    # the corpus violates every condition but JT0, which reparenting keeps
    assert set(seen) >= {"HD1", "HD2", "HD3", "HD4", "NF1", "NF2", "NF3"}
    assert set(seen) >= {"QD1", "QD2", "QD3", "JT1"}


@pytest.mark.slow
def test_matches_reference_on_larger_corpus():
    seen = Counter()
    for seed in range(40, 1040):
        seen += check_seed(seed)
    assert seen["trees"] > 25000
    assert seen["treecomps"] > 20000
