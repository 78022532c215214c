"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line; run with ``pytest -s`` (or execute
this file directly) to see the lines as they complete.
"""

import random

from htd import (
    brute_force_eval,
    brute_force_qw,
    decompose,
    eval_boolean,
    eval_full,
    fixpoint_decide,
    gen_strict_3ps,
    gyo_acyclic,
    hypertree_width,
    parse_query,
    verify_strict_3ps,
    witness_qd_from_cover,
    x3c_to_query,
)
from htd.components import v_components
from htd.hardness import X3CInstance, exact_cover
from htd.hypertree import (
    Hypertree,
    HtVertex,
    qd_to_hd,
    treecomps,
    validate_hd,
    validate_nf,
    validate_qd,
)

from conftest import Q1_TEXT, Q2_TEXT, Q3_TEXT, Q4_TEXT, Q5_TEXT
import util

CONSTS = ["a", "b", "c", "d"]

Q1 = parse_query(Q1_TEXT)
Q2 = parse_query(Q2_TEXT)
Q3 = parse_query(Q3_TEXT)
Q4 = parse_query(Q4_TEXT)
Q5 = parse_query(Q5_TEXT)

Q1_HD = Hypertree(
    [
        HtVertex(0, None, frozenset("PSCA"), frozenset({1, 2})),
        HtVertex(1, 0, frozenset("SCR"), frozenset({0})),
    ]
)


def corpus(n=200, seed=20240917):
    rng = random.Random(seed)
    return [
        util.rand_query(rng, max_atoms=5, max_vars=6, max_arity=3)
        for _ in range(n)
    ]


CORPUS = corpus()


def report(n, ok, what):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {what}", flush=True)
    assert ok, f"criterion {n} failed: {what}"


def test_criterion_1_fixture_widths():
    ok = (
        hypertree_width(Q2)[0] == 1
        and hypertree_width(Q3)[0] == 1
        and hypertree_width(Q1)[0] == 2
        and hypertree_width(Q5)[0] == 2
        and decompose(Q1, 1) is None
        and decompose(Q5, 1) is None
    )
    report(1, ok, "fixture hypertree widths are exactly 1, 1, 2, 2")


def test_criterion_2_query_width_cross_check():
    ok = (
        brute_force_qw(Q4, 2) is not None
        and brute_force_qw(Q5, 2) is None
        and brute_force_qw(Q5, 3) is not None
    )
    report(2, ok, "exhaustive query-width search separates width 2 from 3")


def test_criterion_3_width_one_is_acyclicity():
    bad = [
        q for q in CORPUS if (decompose(q, 1) is not None) != gyo_acyclic(q)
    ]
    report(
        3,
        not bad,
        f"width 1 and ear-removal acyclicity agree on {len(CORPUS)} queries",
    )


def test_criterion_4_pure_qd_converts():
    checked = 0
    ok = True
    for q, k in [(q, k) for q in CORPUS for k in (1, 2)] + [
        (Q1, 2),
        (Q2, 1),
        (Q3, 1),
        (Q4, 2),
    ]:
        d = brute_force_qw(q, k)
        if d is None or not d.is_pure():
            continue
        checked += 1
        h = qd_to_hd(q, d)
        if not (
            validate_hd(q, h).valid
            and h.width() <= k
            and decompose(q, k) is not None
        ):
            ok = False
            break
    report(4, ok and checked >= 100, f"{checked} pure witnesses converted")


def test_criterion_5_evaluation_oracle():
    rng = random.Random(987)
    pairs = 0
    ok = True
    while pairs < 500 and ok:
        q = util.rand_query(
            rng,
            max_atoms=4,
            max_vars=5,
            consts=CONSTS,
            head_vars=True,
            consistent_arity=True,
        )
        db = util.rand_db(rng, q, CONSTS)
        expect = brute_force_eval(q, db)
        trivial = Hypertree(
            [
                HtVertex(
                    0,
                    None,
                    q.variables(),
                    frozenset(
                        i for i, a in enumerate(q.body) if a.variables()
                    ),
                )
            ]
        )
        ok = (
            eval_full(q, db) == expect
            and eval_boolean(q, db) == bool(expect)
            and (
                not q.variables()
                or (
                    eval_full(q, db, hd=trivial) == expect
                    and eval_boolean(q, db, hd=trivial) == bool(expect)
                )
            )
        )
        pairs += 1
    report(5, ok and pairs >= 500, f"{pairs} query/database pairs match brute force")


def _components_within(q, sep, region):
    return {c.members for c in v_components(q, sep) if c.members <= region}


def _vertex_component_equivalence(q, h):
    comps = treecomps(q, h)
    for v in h:
        tc = comps[v.id]
        lam_vars = frozenset().union(
            *(q.body[i].variables() for i in v.lam)
        ) if v.lam else frozenset()
        if _components_within(q, v.chi, tc) != _components_within(
            q, lam_vars, tc
        ):
            return False
    return True


def _mutations(h):
    for v in h:
        for x in sorted(v.chi):
            yield [
                w if w.id != v.id else HtVertex(w.id, w.parent, w.chi - {x}, w.lam)
                for w in h
            ]
        for i in sorted(v.lam):
            yield [
                w if w.id != v.id else HtVertex(w.id, w.parent, w.chi, w.lam - {i})
                for w in h
            ]
    root = h.root
    yield [
        w if w.id != root.id else HtVertex(w.id, w.parent, w.chi | {"R"}, w.lam)
        for w in h
    ]


def test_criterion_6_validator_and_normal_form():
    ok = True
    for q in CORPUS + [Q1, Q2, Q3, Q4, Q5]:
        found = hypertree_width(q)
        if found is None:
            ok = False
            break
        _, h = found
        if not (
            validate_hd(q, h).valid
            and validate_nf(q, h).valid
            and len(h) <= max(1, len(q.variables()))
            and _vertex_component_equivalence(q, h)
        ):
            ok = False
            break
    mutants = 0
    for verts in _mutations(Q1_HD):
        mutants += 1
        if validate_hd(Q1, Hypertree(verts)).conditions() == frozenset():
            ok = False
    report(
        6,
        ok,
        f"all emitted decompositions normal and small; {mutants} mutants rejected",
    )


def test_criterion_7_engine_equivalence():
    ok = True
    for q in CORPUS + [Q1, Q2, Q3, Q4, Q5]:
        for k in (1, 2, 3):
            if fixpoint_decide(q, k) != (decompose(q, k) is not None):
                ok = False
                break
    report(7, ok, "fixpoint and memoized recursion agree for k in 1..3")


def positive_instances(count, seed=4242):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = 2 if len(out) % 7 == 6 else 1
        ground = [f"g{i}" for i in range(1, 3 * s + 1)]
        rng.shuffle(ground)
        sets = [frozenset(ground[3 * i : 3 * i + 3]) for i in range(s)]
        for _ in range(rng.randint(0, 2)):
            d = frozenset(rng.sample(ground, 3))
            if d not in sets:
                sets.append(d)
        rng.shuffle(sets)
        out.append(X3CInstance(tuple(sorted(ground)), tuple(sets)))
    return out


def test_criterion_8_hardness_constructions():
    ok = True
    for m in range(1, 6):
        for k in range(1, 4):
            system = gen_strict_3ps(m, k)
            if not verify_strict_3ps(system):
                ok = False
            if len(system.base) > 27 * m**3 + 2 * m + 3 * k:
                ok = False
    count = 0
    for inst in positive_instances(20):
        cover = exact_cover(inst)
        if cover is None:
            ok = False
            continue
        q = x3c_to_query(inst)
        d = witness_qd_from_cover(inst, cover)
        if not (
            validate_qd(q, d).valid
            and d.width() <= 4
            and decompose(q, 4) is not None
        ):
            ok = False
        count += 1
    report(
        8,
        ok and count >= 20,
        f"strict systems verified; {count} reduction instances certified at width 4",
    )


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
