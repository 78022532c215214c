"""Tree checks on a 5,000-atom path, built by hand without the search.

Each check is one pass over the tree; a check that rescanned the tree once
per variable or atom would take minutes here.  No timing bound is set.
"""

from dataclasses import replace

from htd import parse_query
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
Q = parse_query("ans <- " + ", ".join(f"r(X{i},X{i + 1})" for i in range(N)) + ".")


def parent(i):
    return i - 1 if i else None


def moved(verts, key):
    return [replace(v, parent=0) if getattr(v, key) == MOVED else v for v in verts]


def test_path_hd():
    verts = [
        HtVertex(i, parent(i), frozenset({f"X{i}", f"X{i + 1}"}), frozenset({i}))
        for i in range(N)
    ]
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
