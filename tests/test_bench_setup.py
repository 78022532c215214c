"""The benchmark's set-up path (``bench/corpus.py``'s ``setup``) on seed 0 of
every workload: the same calls that its ``setup_s`` metric times; and the
``eval_joins`` answers against the benchmark's own join evaluator."""

import importlib.util
import sys
from pathlib import Path

import pytest

import htd

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """Import bench/<name>.py without writing its bytecode beside it."""
    path = _BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


corpus = _load("corpus")
checks = _load("checks")


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_setup(workload):
    spec = corpus.generate(workload, 0)
    inputs = corpus.setup(htd, workload, spec)
    assert inputs["queries"]
    for q in inputs["queries"].values():
        assert htd.parse_query(str(q)) == q
    if workload == "eval_joins":
        lines = spec["facts"].splitlines()
        assert len(lines) == 6868
        assert sum(map(len, inputs["db"].relations.values())) == len(lines)


def test_eval_joins_answers_match_checks():
    """The check that the benchmark applies to every eval_joins operation:
    count and digest of each query's answers, from ``checks.evaluate``."""
    spec = corpus.generate("eval_joins", 0)
    inputs = corpus.setup(htd, "eval_joins", spec)
    relations = checks.parse_facts(spec["facts"])
    for e in spec["queries"]:
        q, db = inputs["queries"][e["name"]], inputs["db"]
        expect = checks.evaluate(e["head"], e["body"], relations)
        if e["boolean"] is None:
            out = htd.eval_full(q, db)
        else:
            out = [()] if htd.eval_boolean(q, db) else []
            assert bool(out) is e["boolean"], e["name"]
        got = (len(out), checks.digest(out))
        assert got == (len(expect), checks.digest(expect)), e["name"]
