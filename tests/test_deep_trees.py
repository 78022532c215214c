"""Tree checks and evaluation on a 5,000-atom path and a 5,000-leaf star,
built by hand without the search.

Each check is one pass over the tree; a check that rescanned the tree once
per variable or atom would take minutes here.  No timing bound is set.
"""

from dataclasses import replace

from htd import eval_boolean, eval_full, parse_database, parse_query
from htd.hypertree import (
    Hypertree,
    HtVertex,
    JoinTree,
    JtVertex,
    QdVertex,
    QueryDecomposition,
    Violation,
    complete_hd,
    hd_to_jointree,
    is_complete,
    validate_hd,
    validate_jointree,
    validate_qd,
)

N = 5000
MOVED = 2500  # the vertex of atom MOVED is hung under the root in the mutants
BODY = ", ".join(f"r(X{i},X{i + 1})" for i in range(N))
Q = parse_query(f"ans <- {BODY}.")


def parent(i):
    return i - 1 if i else None


def moved(verts, key):
    return [replace(v, parent=0) if getattr(v, key) == MOVED else v for v in verts]


def path_hd_vertices():
    """Vertex i holds atom i, below vertex i - 1."""
    return [
        HtVertex(i, parent(i), frozenset({f"X{i}", f"X{i + 1}"}), frozenset({i}))
        for i in range(N)
    ]


def test_path_hd():
    verts = path_hd_vertices()
    h = Hypertree(verts)
    assert validate_hd(Q, h).valid
    assert is_complete(Q, h)
    assert list(complete_hd(Q, h)) == verts
    jt = hd_to_jointree(Q, h)
    assert sorted(jt, key=lambda v: v.atom) == [JtVertex(i, parent(i)) for i in range(N)]
    # X2500 is held by vertices 2499 and 2500, now apart
    assert validate_hd(Q, Hypertree(moved(verts, "id"))).violations == (
        Violation("HD2", [MOVED - 1, MOVED], f"variable X{MOVED} disconnected"),
    )


def test_path_hd_with_chain_to_jointree():
    # a chain of N extra vertices under vertex 0, each repeating atom 0's
    # lam with chi {X0}; ids rise toward the root, so the leaf comes first
    verts = path_hd_vertices()
    verts += [
        HtVertex(j, 0 if j == 2 * N - 1 else j + 1, frozenset({"X0"}), frozenset({0}))
        for j in range(N, 2 * N)
    ]
    jt = hd_to_jointree(Q, Hypertree(verts))
    assert validate_jointree(Q, jt).valid
    assert sorted(v.atom for v in jt) == list(range(N))


def test_eval_along_path_hd():
    # each vertex folds its own atom in; a vertex that rescanned the whole
    # body for atoms inside chi would make this quadratic
    h = Hypertree(path_hd_vertices())
    db = parse_database("r(a,a).")
    assert eval_boolean(Q, db, hd=h)
    assert eval_full(parse_query(f"ans(X0) <- {BODY}."), db, hd=h) == [("a",)]
    # X5000's extension is handed up through every level to the root
    both = parse_query(f"ans(X0, X{N}) <- {BODY}.")
    assert eval_full(both, db, hd=h) == [("a", "a")]


def test_path_qd():
    # vertex i labels atoms i and i + 1, so each atom sits on two vertices
    verts = [
        QdVertex(i, parent(i), frozenset({("atom", i), ("atom", i + 1)}))
        for i in range(N - 1)
    ]
    assert validate_qd(Q, QueryDecomposition(verts)).valid
    assert validate_qd(Q, QueryDecomposition(moved(verts, "id"))).violations == (
        Violation("QD2", [MOVED - 1, MOVED], f"atom {MOVED} disconnected"),
        Violation("QD3", [MOVED - 2, MOVED - 1, MOVED], f"variable X{MOVED} disconnected"),
        Violation("QD3", [MOVED - 1, MOVED, MOVED + 1], f"variable X{MOVED + 1} disconnected"),
    )


def test_path_jointree():
    verts = [JtVertex(i, parent(i)) for i in range(N)]
    assert validate_jointree(Q, JoinTree(verts)).valid
    assert validate_jointree(Q, JoinTree(moved(verts, "atom"))).violations == (
        Violation("JT1", [MOVED - 1, MOVED], f"variable X{MOVED} disconnected"),
    )


STAR_BODY = ", ".join(f"r(A,B{i})" for i in range(N + 1))
STAR = parse_query(f"ans <- {STAR_BODY}.")


def star_hd_vertices():
    """Vertex 0 holds atom 0; vertex i, one of N leaves under it, atom i.
    The centre A sorts before every B, so it is each atom's least variable
    and every vertex holds it."""
    return [
        HtVertex(i, 0 if i else None, frozenset({"A", f"B{i}"}), frozenset({i}))
        for i in range(N + 1)
    ]


def test_star_hd():
    verts = star_hd_vertices()
    h = Hypertree(verts)
    assert validate_hd(STAR, h).valid
    assert is_complete(STAR, h)
    assert list(complete_hd(STAR, h)) == verts
    jt = hd_to_jointree(STAR, h)
    assert validate_jointree(STAR, jt).valid
    leaves = [JtVertex(i, 0) for i in range(1, N + 1)]
    assert sorted(jt, key=lambda v: v.atom) == [JtVertex(0, None)] + leaves
    # leaf MOVED without its own variable: only atom MOVED loses its cover
    cut = [replace(v, chi=frozenset({"A"})) if v.id == MOVED else v for v in verts]
    assert validate_hd(STAR, Hypertree(cut)).violations == (
        Violation("HD1", None, f"atom {MOVED} (r(A,B{MOVED})) uncovered"),
    )


def test_eval_along_star_hd():
    h = Hypertree(star_hd_vertices())
    db = parse_database("r(a,b). r(a,c). r(d,b).")
    assert eval_boolean(STAR, db, hd=h)
    centre = parse_query(f"ans(A) <- {STAR_BODY}.")
    assert eval_full(centre, db, hd=h) == [("a",), ("d",)]
    # s(A) lies inside every chi, so every vertex folds it in; s has no facts
    assert not eval_boolean(parse_query(f"ans <- {STAR_BODY}, s(A)."), db, hd=h)
    ends = parse_query(f"ans(A, B0, B{N}) <- {STAR_BODY}.")
    assert eval_full(ends, db, hd=h) == [
        ("a", "b", "b"),
        ("a", "b", "c"),
        ("a", "c", "b"),
        ("a", "c", "c"),
        ("d", "b", "b"),
    ]
