"""The oracles stay independent of the fast paths they check.

``htd.oracle`` may read the query model, the errors and the tree types, but
not the component index, the width search or the evaluator: a static check
of its imports, and mutants of the index and of evaluation that leave the
oracles' answers unchanged.  The slow property runs the search and the
evaluator against the oracles on larger seeded corpora.
"""

import ast
import random
from pathlib import Path

import pytest

import htd
from htd import (
    Atom,
    ConjunctiveQuery,
    InconclusiveError,
    brute_force_eval,
    brute_force_qw,
    constant,
    decompose,
    eval_boolean,
    eval_full,
    fixpoint_decide,
    gyo_acyclic,
)
from htd import evaluate, oracle
from htd.components import _Index
from htd.hypertree import validate_qd

import util

SRC = Path(htd.__file__).parent
ORACLES = ("gyo_acyclic", "fixpoint_decide", "brute_force_qw", "brute_force_eval")
FORBIDDEN = {"components", "detect", "evaluate", "_Index"}


def _imported_names(path: Path) -> set[str]:
    """Every module path part and name that the file's imports mention."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
                names.add(alias.asname or alias.name)
    return names


def test_oracle_imports_no_fast_path():
    # static: hypertree imports _Index for its validators, so the modules
    # loaded at run time always include htd.components
    assert not _imported_names(SRC / "oracle.py") & FORBIDDEN
    # brute_force_eval reads the string relations, never the rank encoding
    read = set()
    for node in ast.walk(ast.parse((SRC / "oracle.py").read_text())):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    assert not read & {"encoding", "Encoding"}


def test_search_and_evaluation_define_no_oracle():
    for module in ("detect.py", "evaluate.py"):
        tree = ast.parse((SRC / module).read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        defined |= _imported_names(SRC / module)
        assert not defined & {*ORACLES, "_set_partitions"}, module
    for name in ORACLES:
        assert getattr(htd, name) is getattr(oracle, name)


def _merge_none(self, free: int, atoms=None) -> list[int]:
    """A broken ``_Index.pieces`` that merges nothing: each atom's part of
    free is its own piece."""
    return list(dict.fromkeys(m & free for m in self.atom_masks if m & free))


def test_fixpoint_decide_ignores_a_broken_component_split(monkeypatch):
    rng = random.Random(26)
    cases = [(util.rand_query(rng), k) for _ in range(300) for k in (1, 2)]
    want = [fixpoint_decide(q, k) for q, k in cases]
    monkeypatch.setattr(_Index, "pieces", _merge_none)
    assert [fixpoint_decide(q, k) for q, k in cases] == want
    # the mutant does mislead the search
    assert any((decompose(q, k) is not None) != w for (q, k), w in zip(cases, want))


def test_brute_force_eval_ignores_a_broken_ground_check(monkeypatch):
    rng = random.Random(27)
    cases = []
    for _ in range(300):
        q = util.rand_query(
            rng, consts=["a", "b"], head_vars=True, consistent_arity=True
        )
        cases.append((q, util.rand_db(rng, q, ["a", "b"])))
    want = [brute_force_eval(q, db) for q, db in cases]
    real = evaluate._ground_atoms_hold
    monkeypatch.setattr(evaluate, "_ground_atoms_hold", lambda q, db: not real(q, db))
    assert [brute_force_eval(q, db) for q, db in cases] == want
    # the stub does mislead the evaluator
    assert any(eval_full(q, db) != w for (q, db), w in zip(cases, want))


def _structure_corpus():
    rng = random.Random(2026)
    yield from (util.rand_query(rng, max_atoms=7, max_vars=8) for _ in range(500))
    for family in util.FAMILIES:
        for n in range(2, 7):
            yield util.family_query(family, n, rng, ground=2)


@pytest.mark.slow
def test_search_agrees_with_the_oracles():
    inconclusive = 0
    for q in _structure_corpus():
        assert (decompose(q, 1) is not None) == gyo_acyclic(q), q
        for k in (1, 2, 3):
            h = decompose(q, k)
            assert (h is not None) == fixpoint_decide(q, k), (q, k)
            try:
                d = brute_force_qw(q, k, budget=50_000)
            except InconclusiveError:
                inconclusive += 1
                continue
            if d is not None:  # hypertree width <= query width
                assert h is not None, (q, k)
                assert validate_qd(q, d).valid and d.width() <= k, (q, k)
    assert inconclusive < 50


def _with_head_constant(rng: random.Random, q: ConjunctiveQuery) -> ConjunctiveQuery:
    args = list(q.head.args)
    args.insert(rng.randint(0, len(args)), constant(rng.choice(["a", "h"])))
    return ConjunctiveQuery(Atom(q.head.relation, tuple(args)), q.body)


@pytest.mark.slow
def test_evaluation_agrees_with_brute_force():
    rng = random.Random(2027)
    # "z" is a query constant that no database holds
    for _ in range(1500):
        q = util.rand_query(
            rng,
            max_atoms=5,
            max_vars=5,
            consts=["a", "b", "z"],
            head_vars=True,
            consistent_arity=True,
        )
        if rng.random() < 0.3:
            q = _with_head_constant(rng, q)
        db = util.rand_db(rng, q, ["a", "b", "c"])
        want = brute_force_eval(q, db)
        assert eval_full(q, db) == want, q
        assert eval_boolean(q, db) == bool(want), q
