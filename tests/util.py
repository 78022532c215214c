"""Random corpus generators shared by the test modules."""

from __future__ import annotations

import random

from htd import (
    Atom,
    ConjunctiveQuery,
    Database,
    X3CInstance,
    constant,
    variable,
    x3c_to_query,
)
from htd.hypertree import Hypertree, HtVertex

RELATIONS = ["r", "s", "t", "u", "w"]


def rand_query(
    rng: random.Random,
    max_atoms: int = 5,
    max_vars: int = 6,
    max_arity: int = 3,
    consts: list[str] | None = None,
    head_vars: bool = False,
    consistent_arity: bool = False,
) -> ConjunctiveQuery:
    """A small random query; relation arities are kept consistent when the
    query is meant to be evaluated over a database."""
    n = rng.randint(1, max_atoms)
    vs = [f"V{i}" for i in range(1, rng.randint(2, max_vars) + 1)]
    arity: dict[str, int] = {}
    body = []
    for i in range(n):
        rel = rng.choice(RELATIONS)
        ar = rng.randint(1, max_arity)
        if consistent_arity:
            ar = arity.setdefault(rel, ar)
        args = []
        for _ in range(ar):
            if consts and rng.random() < 0.15:
                args.append(constant(rng.choice(consts)))
            else:
                args.append(variable(rng.choice(vs)))
        body.append(Atom(rel, tuple(args), i))
    head_args = ()
    if head_vars:
        bvars = sorted(set().union(*(a.variables() for a in body)))
        if bvars:
            head_args = tuple(
                variable(v)
                for v in rng.sample(bvars, rng.randint(0, min(2, len(bvars))))
            )
    return ConjunctiveQuery(Atom("ans", head_args), tuple(body))


def reduction_query() -> ConjunctiveQuery:
    """The 32-atom query of a 6-element X3C instance with no exact cover:
    decompose refutes it at k=3 and solves it at k=4."""
    inst = X3CInstance(
        ("g1", "g2", "g3", "g4", "g5", "g6"),
        (frozenset({"g1", "g2", "g3"}), frozenset({"g1", "g4", "g5"})),
    )
    return x3c_to_query(inst)


def trivial_hd(q: ConjunctiveQuery) -> Hypertree:
    """One vertex over all variables, labeled with every atom that has any."""
    va = frozenset(i for i, a in enumerate(q.body) if a.variables())
    return Hypertree([HtVertex(0, None, q.variables(), va)])


def rand_db(
    rng: random.Random,
    q: ConjunctiveQuery,
    consts: list[str],
    max_facts: int = 6,
) -> Database:
    """Facts for every relation of the query, at its arity in the query."""
    arities = {a.relation: len(a.args) for a in q.body}
    relations = {}
    kept = {}
    for rel, ar in arities.items():
        rows = frozenset(
            tuple(rng.choice(consts) for _ in range(ar))
            for _ in range(rng.randint(0, max_facts))
        )
        if rows:
            relations[rel] = rows
            kept[rel] = ar
    return Database(relations, kept)


# Edge lists of hypergraph families over variables 0, 1, ...; n is the
# family's size: the number of atoms of a path, star or tree, the length of
# a cycle, the columns of a 2 x n grid, the vertices of a clique.
FAMILIES = {
    "path": lambda n, rng: [(i, i + 1) for i in range(n)],
    "star": lambda n, rng: [(0, i) for i in range(1, n + 1)],
    "tree": lambda n, rng: [(rng.randrange(i), i) for i in range(1, n + 1)],
    "cycle": lambda n, rng: [(i, (i + 1) % n) for i in range(n)],
    "grid2x": lambda n, rng: [
        (2 * i + r, 2 * i + 2 + r) for i in range(n - 1) for r in (0, 1)
    ]
    + [(2 * i, 2 * i + 1) for i in range(n)],
    "clique": lambda n, rng: [(i, j) for i in range(n) for j in range(i + 1, n)],
}


def family_query(
    family: str, n: int, rng: random.Random, ground: int = 0
) -> ConjunctiveQuery:
    """Binary atoms over a family's edges, in shuffled order, each flipped at
    random, with shuffled variable names; plus ``ground`` variable-free
    atoms, empty or over constants."""
    edges = FAMILIES[family](n, rng)
    n_vars = 1 + max((max(e) for e in edges), default=0)
    names = [f"V{j}" for j in rng.sample(range(n_vars), n_vars)]
    atoms = [("e", tuple(variable(names[x]) for x in rng.sample(e, 2))) for e in edges]
    for _ in range(ground):
        consts = rng.sample("abc", rng.randint(0, 2))
        atoms.append(("g", tuple(constant(c) for c in consts)))
    rng.shuffle(atoms)
    body = tuple(Atom(rel, args, i) for i, (rel, args) in enumerate(atoms))
    return ConjunctiveQuery(Atom("ans", ()), body)
