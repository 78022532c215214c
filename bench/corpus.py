"""Seeded inputs of the three workloads, and the program's one-time work on them.

``generate(workload, seed)`` returns a JSON-able spec: the text the program
reads plus what the benchmark knows about each input by construction.  It is
the benchmark's own work and is never timed.  ``setup(htd, workload, spec)``
is the program's one-time work on a spec (``parse_x3c``/``x3c_to_query``,
``parse_query``, ``parse_database``); it is what ``setup_s`` times.
"""

from __future__ import annotations

import random
import re
import sys
from pathlib import Path

WORKLOADS = ("search_x3c", "width_families", "eval_joins")
SRC = Path(__file__).resolve().parent.parent / "src"


def load_program():
    """Import ``htd`` from the source tree beside the benchmark, never from
    anywhere else; exit with code 2 when that tree is missing."""
    if not (SRC / "htd" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'htd'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import htd

    return htd


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _var_names(rng: random.Random, n: int) -> list[str]:
    """n distinct variable names in a seeded order, so the sorted variable
    order (and with it the program's bitmask layout) differs per seed."""
    return [f"V{i}" for i in rng.sample(range(100 * n + 100), n)]


# ---------------------------------------------------------------------------
# search_x3c: renamed and reordered copies of one X3C reduction query

# The smallest instance with an exact cover: a ground set of 3 elements and
# one subset, the cover.  Its query has 20 atoms and 76 variables.  The next
# size, 6 elements and 2 subsets, has 32 atoms, and one decompose call on it
# takes 2-14 s, enough to fill a run.  x3c_to_query names the elements by
# position, so the instance is fixed; the seed sets only the variable names
# and the atom order of each of the X3C_QUERIES copies of its query.
X3C_TEXT = "1 1\na b c\na b c\n"
X3C_QUERIES = 12
X3C_VARS = 76
# Atom positions of the reduction's gadgets in x3c_to_query's order: two
# 4-atom blocks for each of the 2 levels, the link atom, the subset's 3 atoms.
X3C_GADGETS = (
    (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15), (16,), (17, 18, 19),
)


def _gen_search_x3c(rng: random.Random) -> dict:
    instances = []
    for n in range(X3C_QUERIES):
        # Atoms are shuffled within each gadget, not across gadgets: across
        # gadgets the decompose(q, 4) time ranges over 100x with the order
        # alone, which would make a run's cost depend on its seed.
        order = []
        for gadget in X3C_GADGETS:
            g = list(gadget)
            rng.shuffle(g)
            order += g
        instances.append(
            {
                "name": f"x3c_{n}",
                # k=4 runs on every query, k=3 on every second one: a
                # refutation costs about 4x a k=4 search, and with both on
                # every query the median latency would fall between the two
                "refute": n % 2 == 0,
                "order": order,
                "names": _var_names(rng, X3C_VARS),
            }
        )
    return {"x3c": X3C_TEXT, "instances": instances}


def x3c_query(htd, inst: dict, q0):
    """The reduction query with the spec's atom order and variable names."""
    old = sorted(q0.variables())
    if len(old) != len(inst["names"]) or len(q0.body) != len(inst["order"]):
        raise ValueError("reduction query does not have the expected shape")
    ren = dict(zip(old, inst["names"]))
    body = []
    for i, j in enumerate(inst["order"]):
        a = q0.body[j]
        args = tuple(
            htd.variable(ren[t.name]) if t.is_variable else t for t in a.args
        )
        body.append(htd.Atom(a.relation, args, i))
    return htd.ConjunctiveQuery(q0.head, tuple(body))


# ---------------------------------------------------------------------------
# width_families: hypergraph families whose width is known by construction


def _path(n, rng):
    return [(i, i + 1) for i in range(n)]


def _star(n, rng):
    return [(0, i) for i in range(1, n + 1)]


def _tree(n, rng):
    return [(rng.randrange(i), i) for i in range(1, n + 1)]


def _cycle(n, rng):
    return [(i, (i + 1) % n) for i in range(n)]


def _ladder(n, rng):
    """The 2 x n grid."""
    rails = [(2 * i + r, 2 * i + 2 + r) for i in range(n - 1) for r in (0, 1)]
    return rails + [(2 * i, 2 * i + 1) for i in range(n)]


def _clique(n, rng):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# (family, sizes, width by construction, acyclic by construction).  Acyclic
# families have width 1, cycles width 2; the 2 x n grid is cyclic and has the
# width-2 chain of rail pairs; K_n of binary atoms has width ceil(n/2).
FAMILIES = (
    ("path", _path, (20, 40, 80, 150), lambda n: 1, True),
    ("star", _star, (20, 40, 80), lambda n: 1, True),
    ("tree", _tree, (20, 40, 80), lambda n: 1, True),
    ("cycle", _cycle, (10, 20, 40, 80), lambda n: 2, False),
    ("grid2x", _ladder, (4, 8, 16, 32), lambda n: 2, False),
    ("clique", _clique, (4, 5, 6, 7), lambda n: (n + 1) // 2, False),
)


# Seeded copies of each family member.  The cost of one call moves by up to
# 20% with the variable names, the atom order and the interpreter's string
# hash seed, which differs per process; with one copy, the 90th percentile
# spread 16% (IQR / median) over ten seeds.  Copies average this within a run.
WIDTH_COPIES = 3


def _gen_width_families(rng: random.Random) -> dict:
    queries = []
    for family, edges_of, sizes, width, acyclic in FAMILIES:
        for i, n in enumerate(sizes):
            for copy in range(WIDTH_COPIES):
                edges = edges_of(n, rng)
                n_vars = 1 + max(max(e) for e in edges)
                names = _var_names(rng, n_vars)
                rng.shuffle(edges)
                atoms = []
                for x, y in edges:
                    if rng.random() < 0.5:
                        x, y = y, x
                    atoms.append([names[x], names[y]])
                body = ", ".join(f"e({x},{y})" for x, y in atoms)
                queries.append(
                    {
                        "name": f"{family}_{n}_{copy}",
                        "text": f"ans <- {body}.",
                        "atoms": atoms,
                        "width": width(n),
                        "acyclic": acyclic,
                        # gyo_acyclic runs on the larger half of each family: on
                        # the smaller inputs it takes about 1 ms, and with it on
                        # every input the median latency would fall in the gap
                        # between the two kinds of call
                        "gyo": i >= len(sizes) // 2,
                    }
                )
    return {"queries": queries}


# ---------------------------------------------------------------------------
# eval_joins: join queries over a seeded fact database

# relation -> (facts, domain size, constant prefix).  The 4-cycle's relations
# are kept small: its decomposition joins a(A,B) with c(C,D), a product.
EVAL_RELATIONS = {
    "r": (900, 150, "c"),
    "s": (900, 150, "c"),
    "t": (900, 150, "c"),
    "u": (900, 150, "c"),
    "a": (140, 40, "c"),
    "b": (140, 40, "c"),
    "c": (140, 40, "c"),
    "d": (140, 40, "c"),
    "g": (1200, 200, "g"),
}
BIPARTITE = (600, 150)  # e: edges between sides l and m, stored both ways
DEAD_END = 300  # z: first column from a domain no other relation uses

# (name, query, answer by construction of a Boolean query, else None).
# eval_boolean and eval_full run on the 4 non-Boolean queries, eval_boolean
# alone on the 7 Boolean ones (there eval_full only wraps eval_boolean).
# That makes 15 operations a pass: sorted by latency, the median falls in the
# middle of the 8th operation, among the width-2 joins, and the 90th
# percentile in the middle of the 14th, eval_full on the star, below only
# eval_full on the chain.  With both calls on every query, 16 operations, the
# median fell on the edge between two operations whose order the seed set.
EVAL_QUERIES = (
    ("triangle", "ans(A,B,C) <- r(A,B), s(B,C), t(C,A).", None),
    ("cycle4", "ans(A,C) <- a(A,B), b(B,C), c(C,D), d(D,A).", None),
    ("chain", "ans(A,E) <- r(A,B), s(B,C), t(C,D), u(D,E).", None),
    ("star", "ans(A,B,C,D) <- r(A,B), s(A,C), u(A,D).", None),
    ("bool_triangle_true", "ans <- g(A,B), g(B,C), g(C,A).", True),
    ("bool_triangle_false", "ans <- e(A,B), e(B,C), e(C,A).", False),
    ("bool_cycle4_true", "ans <- a(A,B), b(B,C), c(C,D), d(D,A).", True),
    ("bool_chain_true", "ans <- r(A,B), s(B,C), t(C,D), u(D,E).", True),
    ("bool_path_false", "ans <- e(A,B), e(B,C), z(C,D).", False),
    ("bool_star_false", "ans <- r(A,B), s(A,C), z(A,D).", False),
    ("bool_path_true", "ans <- r(A,B), s(B,C), t(C,D).", True),
)


def _gen_eval_joins(rng: random.Random) -> dict:
    facts: dict[str, set] = {}
    for rel, (n, dom, prefix) in EVAL_RELATIONS.items():
        rows: set = set()
        while len(rows) < n:
            rows.add((f"{prefix}{rng.randrange(dom)}", f"{prefix}{rng.randrange(dom)}"))
        facts[rel] = rows
    # planted witnesses of the true Boolean queries
    facts["g"] |= {("g0", "g1"), ("g1", "g2"), ("g2", "g0")}
    for rel, row in zip("rstu", (("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c4"))):
        facts[rel].add(row)
    for rel, row in zip("abcd", (("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c0"))):
        facts[rel].add(row)
    # e is bipartite, so it has no triangle
    n, dom = BIPARTITE
    edges: set = set()
    while len(edges) < n:
        edges.add((f"l{rng.randrange(dom)}", f"m{rng.randrange(dom)}"))
    facts["e"] = edges | {(y, x) for x, y in edges}
    facts["z"] = {(f"n{rng.randrange(dom)}", f"m{rng.randrange(dom)}") for _ in range(DEAD_END)}
    lines = [f"{rel}({x},{y})." for rel in sorted(facts) for x, y in sorted(facts[rel])]
    rng.shuffle(lines)
    queries = [
        {"name": name, "text": text, "boolean": expected, **_split_rule(text)}
        for name, text, expected in EVAL_QUERIES
    ]
    return {"facts": "\n".join(lines) + "\n", "queries": queries}


def _split_rule(text: str) -> dict:
    """Head arguments and body atoms of one of the rules above."""
    atoms = [
        (rel, args.split(",") if args else [])
        for rel, args in re.findall(r"(\w+)(?:\(([^)]*)\))?", text)
    ]
    return {"head": atoms[0][1], "body": atoms[1:]}


_GENERATORS = {
    "search_x3c": _gen_search_x3c,
    "width_families": _gen_width_families,
    "eval_joins": _gen_eval_joins,
}


def generate(workload: str, seed: int) -> dict:
    return _GENERATORS[workload](_rng(workload, seed))


def setup(htd, workload: str, spec: dict, timed=None) -> dict:
    """The program's one-time work on the inputs; ``timed(name, fn, *args)``
    wraps each public call when the caller traces them."""
    call = timed or (lambda name, fn, *args: fn(*args))
    if workload == "search_x3c":
        q0 = call("hardness.x3c_to_query", htd.x3c_to_query, htd.parse_x3c(spec["x3c"]))
        return {"queries": {i["name"]: x3c_query(htd, i, q0) for i in spec["instances"]}}
    if workload == "width_families":
        return {
            "queries": {
                e["name"]: call("model.parse_query", htd.parse_query, e["text"])
                for e in spec["queries"]
            }
        }
    db = call("model.parse_database", htd.parse_database, spec["facts"])
    queries = {
        e["name"]: call("model.parse_query", htd.parse_query, e["text"])
        for e in spec["queries"]
    }
    return {"db": db, "queries": queries}
