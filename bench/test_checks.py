"""Tests of the benchmark's own checkers; no timing is asserted.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

htd = corpus.load_program()


def _rand_query(rng, n_atoms, n_vars, consts=()):
    vs = [f"X{i}" for i in range(n_vars)]
    body = []
    for _ in range(n_atoms):
        rel = rng.choice("rst")
        arity = {"r": 2, "s": 2, "t": 3}[rel]
        args = [
            rng.choice(consts) if consts and rng.random() < 0.15 else rng.choice(vs)
            for _ in range(arity)
        ]
        body.append((rel, args))
    used = sorted({a for _, args in body for a in args if a in vs})
    head = rng.sample(used, min(len(used), rng.randint(0, 2)))
    text = f"ans({','.join(head)}) <- " if head else "ans <- "
    text += ", ".join(f"{rel}({','.join(args)})" for rel, args in body) + "."
    return head, body, text


def _tree(h):
    return [(v.id, v.parent, set(v.chi), set(v.lam)) for v in h]


def _valid_trees(n):
    rng = random.Random(7)
    out = []
    while len(out) < n:
        _, body, text = _rand_query(rng, rng.randint(2, 7), rng.randint(3, 7))
        q = htd.parse_query(text)
        found = htd.hypertree_width(q, 3)
        if found is not None and len(found[1]) > 1:
            out.append((q, [{a for a in args} for _, args in body], found[1]))
    return out


def test_checker_accepts_program_witnesses():
    for q, atoms, h in _valid_trees(40):
        assert checks.check_hd(atoms, _tree(h)) == []


def _mutate(rng, tree, atoms):
    tree = [list(v) for v in tree]
    v = rng.choice(tree)
    kind = rng.choice(["drop_chi", "add_chi", "drop_lam", "reparent", "cycle"])
    all_vars = sorted(set().union(*atoms))
    if kind == "drop_chi" and v[2]:
        v[2] = v[2] - {rng.choice(sorted(v[2]))}
    elif kind == "add_chi":
        v[2] = v[2] | {rng.choice(all_vars)}
    elif kind == "drop_lam" and v[3]:
        v[3] = v[3] - {rng.choice(sorted(v[3]))}
    elif kind == "reparent" and v[1] is not None:
        v[1] = rng.choice([w[0] for w in tree if w[0] != v[0]])
    elif kind == "cycle" and v[1] is not None:
        parent = next(w for w in tree if w[0] == v[1])
        parent[1] = v[0]
    return [tuple(w) for w in tree]


def test_checker_agrees_with_validate_hd_on_mutations():
    rng = random.Random(11)
    rejected = 0
    for q, atoms, h in _valid_trees(60):
        for _ in range(5):
            mutant = _mutate(rng, _tree(h), atoms)
            problems = checks.check_hd(atoms, mutant)
            try:
                tree = htd.Hypertree(
                    htd.HtVertex(i, p, frozenset(c), frozenset(l)) for i, p, c, l in mutant
                )
                valid = htd.validate_hd(q, tree).valid
            except htd.DecompositionFormatError:
                valid = False
            assert (problems == []) == valid, (mutant, problems)
            rejected += bool(problems)
    assert rejected > 100


def test_checker_names_each_condition():
    atoms = [{"A", "B"}, {"B", "C"}]
    ok = [(0, None, {"A", "B", "C"}, {0, 1})]
    assert checks.check_hd(atoms, ok) == []
    assert checks.check_hd(atoms, [(0, None, {"A", "B"}, {0})]) == ["atom 1 not covered"]
    assert checks.check_hd(
        atoms,
        [(0, None, {"A", "B"}, {0}), (1, 0, {"B", "C"}, {1}), (2, 1, {"A"}, {0})],
    ) == ["variable A in 2 disconnected parts"]
    assert checks.check_hd(atoms, [(0, None, {"A", "B", "C"}, {0})]) == [
        "vertex 0: chi not within var(lambda)"
    ]
    # only the special condition fails: A is below the root, in var(lambda(root)),
    # but not in chi(root)
    assert checks.check_hd(
        atoms, [(0, None, {"B"}, {0}), (1, 0, {"A", "B", "C"}, {0, 1})]
    ) == ["vertex 0: special condition"]
    assert checks.check_hd(atoms, [(0, 1, {"A"}, {0}), (1, 0, {"B"}, {1})]) == ["0 roots"]


def test_reference_evaluator_matches_brute_force():
    rng = random.Random(3)
    consts = ["a", "b", "c", "d"]
    for _ in range(300):
        head, body, text = _rand_query(rng, rng.randint(1, 4), rng.randint(2, 5), consts)
        relations = {
            rel: [tuple(rng.choice(consts) for _ in range(ar)) for _ in range(rng.randint(0, 8))]
            for rel, ar in (("r", 2), ("s", 2), ("t", 3))
        }
        facts = "".join(f"{rel}({','.join(t)}).\n" for rel, ts in relations.items() for t in ts)
        db = htd.parse_database(facts) if facts else htd.Database({})
        want = htd.brute_force_eval(htd.parse_query(text), db)
        assert checks.evaluate(head, body, checks.parse_facts(facts)) == want, text


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_one_pass(workload):
    spec = corpus.generate(workload, 1)
    if workload == "search_x3c":  # one input keeps the pass short
        spec["instances"] = spec["instances"][:1]
    assert corpus.generate(workload, 1) == corpus.generate(workload, 1)
    state = corpus.setup(htd, workload, spec)
    expected = json.loads(json.dumps(reference.expected(workload, spec)))
    ops = run.build_ops(htd, workload, spec, state, expected)
    results = run.run_pass(ops, speed.Speed(speed.WORKLOAD_TASKS[workload]))
    assert [r[2] for r in results] == [None] * len(ops)


def test_speed_probes_cover_every_workload():
    assert set(speed.WORKLOAD_TASKS) == set(corpus.WORKLOADS)
    spd = speed.Speed(speed.WORKLOAD_TASKS["eval_joins"])
    assert [spd.probe(fresh=True), spd.probe(fresh=True)] == [0, 1]
    assert spd.factor(0) > 0 and spd.factor(1) == spd.probes[1]
    assert speed.fresh_slowdown(speed.WORKLOAD_TASKS["search_x3c"]) > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_no_result_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval_joins",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
