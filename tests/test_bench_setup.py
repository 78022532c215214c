"""The benchmark's set-up path (``bench/corpus.py``'s ``setup``) on seed 0 of
every workload: the same calls that its ``setup_s`` metric times."""

import importlib.util
import sys
from pathlib import Path

import pytest

import htd

_CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"


def _load_corpus():
    """Import bench/corpus.py without writing its bytecode beside it."""
    spec = importlib.util.spec_from_file_location("bench_corpus", _CORPUS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


corpus = _load_corpus()


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
