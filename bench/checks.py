"""Checks of the program's outputs that share no code with the program.

``check_hd`` tests the four conditions of a hypertree decomposition on plain
data; ``evaluate`` is a small join evaluator.  Both take queries as lists of
atoms over variable names (strings starting with an uppercase letter) and
constants (any other string).
"""

from __future__ import annotations

import hashlib
import re


def _is_var(term: str) -> bool:
    return term[:1].isupper()


def check_hd(atoms, vertices) -> list[str]:
    """Problems of a hypertree decomposition, empty when it is valid.

    ``atoms[i]`` is the set of variables of body atom i; ``vertices`` are
    ``(id, parent, chi, lam)`` tuples, with lam a set of atom indices.
    """
    atoms = [frozenset(a) for a in atoms]
    chi = {}
    lam = {}
    parent = {}
    for vid, par, c, l in vertices:
        if vid in chi:
            return [f"duplicate vertex {vid}"]
        chi[vid], lam[vid], parent[vid] = frozenset(c), frozenset(l), par
    if not chi:
        return [] if not any(atoms) else ["empty tree for a query with variables"]
    roots = [v for v, p in parent.items() if p is None]
    if len(roots) != 1:
        return [f"{len(roots)} roots"]
    children = {v: [] for v in chi}
    for v, p in parent.items():
        if p is not None:
            if p not in chi:
                return [f"vertex {v} has unknown parent {p}"]
            children[p].append(v)
    order = []  # preorder
    stack = [roots[0]]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    if len(order) != len(chi):
        return ["parent links do not form a tree"]

    problems = []
    for v in order:
        bad = [i for i in lam[v] if not 0 <= i < len(atoms)]
        if bad:
            return [f"vertex {v}: unknown atoms {bad}"]
    # 1. every atom's variables lie in some chi
    for i, a in enumerate(atoms):
        if a and not any(a <= chi[v] for v in order):
            problems.append(f"atom {i} not covered")
    # 2. for each variable the vertices holding it are connected: exactly one
    #    of them is the root or has a parent without the variable
    tops: dict[str, int] = {}
    for v in order:
        p = parent[v]
        for x in chi[v]:
            if p is None or x not in chi[p]:
                tops[x] = tops.get(x, 0) + 1
    for x, n in sorted(tops.items()):
        if n > 1:
            problems.append(f"variable {x} in {n} disconnected parts")
    # 3. chi(p) within var(lam(p)); 4. the special condition
    #    var(lam(p)) & chi(T_p) within chi(p)
    below: dict[int, frozenset] = {}
    for v in reversed(order):
        sub = set(chi[v])
        for c in children[v]:
            sub |= below[c]
        below[v] = frozenset(sub)
        lam_vars = frozenset().union(*(atoms[i] for i in lam[v]))
        if not chi[v] <= lam_vars:
            problems.append(f"vertex {v}: chi not within var(lambda)")
        if (lam_vars & below[v]) - chi[v]:
            problems.append(f"vertex {v}: special condition")
    return problems


def hd_width(vertices) -> int:
    return max((len(l) for _, _, _, l in vertices), default=0)


def _atom_table(args, tuples):
    """Rows over the atom's distinct variables; constants select."""
    schema = tuple(dict.fromkeys(a for a in args if _is_var(a)))
    rows = set()
    for t in tuples:
        if len(t) != len(args):
            continue
        env = {}
        for a, value in zip(args, t):
            if _is_var(a):
                if env.setdefault(a, value) != value:
                    break
            elif a != value:
                break
        else:
            rows.add(tuple(env[x] for x in schema))
    return schema, rows


def _join(s1, r1, s2, r2, keep):
    """Hash join of two tables, projected to the variables in ``keep``."""
    shared = [x for x in s2 if x in s1]
    out_schema = tuple(x for x in s1 + s2 if x in keep)
    out_schema = tuple(dict.fromkeys(out_schema))
    p1 = [s1.index(x) for x in shared]
    p2 = [s2.index(x) for x in shared]
    index: dict[tuple, list] = {}
    for row in r2:
        index.setdefault(tuple(row[i] for i in p2), []).append(row)
    src = [(0, s1.index(x)) if x in s1 else (1, s2.index(x)) for x in out_schema]
    out = set()
    for row in r1:
        for match in index.get(tuple(row[i] for i in p1), ()):
            pair = (row, match)
            out.add(tuple(pair[side][i] for side, i in src))
    return out_schema, out


def evaluate(head, body, relations) -> list[tuple]:
    """All answers of ``head <- body``, sorted, as tuples in head order.

    ``body`` is a list of ``(relation, args)``; ``relations`` maps a relation
    name to its tuples.  A Boolean query answers ``[()]`` or ``[]`` (with
    head constants, the tuple of them).
    """
    tables = [_atom_table(args, relations.get(rel, ())) for rel, args in body]
    head_vars = {a for a in head if _is_var(a)}
    schema, rows = (), {()}
    todo = list(range(len(tables)))
    while todo and rows:
        # next: the table sharing most variables with the result, then the smallest
        nxt = max(todo, key=lambda i: (len(set(tables[i][0]) & set(schema)), -len(tables[i][1])))
        todo.remove(nxt)
        later = set(head_vars)
        for i in todo:
            later |= set(tables[i][0])
        schema, rows = _join(schema, rows, *tables[nxt], keep=later)
    if todo:
        rows = set()
    out = set()
    for row in rows:
        env = dict(zip(schema, row))
        out.add(tuple(env[a] if _is_var(a) else a for a in head))
    return sorted(out)


def parse_facts(text: str) -> dict[str, list[tuple]]:
    """Relations of a fact text, one ``rel(c1,...,cn).`` per line."""
    relations: dict[str, list[tuple]] = {}
    for rel, args in re.findall(r"^\s*(\w+)\(([^)]*)\)\.\s*$", text, re.M):
        relations.setdefault(rel, []).append(tuple(a.strip() for a in args.split(",")))
    return relations


def digest(rows) -> str:
    """A digest of a list of answer tuples of strings."""
    h = hashlib.sha256()
    for row in rows:
        h.update(("\x1f".join(row) + "\x1e").encode())
    return h.hexdigest()
