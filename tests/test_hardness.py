import hashlib
import random
import time

import pytest

from htd import (
    ThreePartitionSystem,
    X3CInstance,
    decompose,
    exact_cover,
    format_x3c,
    gen_strict_3ps,
    parse_x3c,
    verify_strict_3ps,
    witness_qd_from_cover,
    x3c_to_query,
)
from htd.hypertree import qd_to_hd, validate_hd, validate_qd


def fs(*xs):
    return frozenset(str(x) for x in xs)


# --- strict partition systems ----------------------------------------------


def test_generator_output_passes_checker():
    for m in range(1, 5):
        for k in range(1, 4):
            sys = gen_strict_3ps(m, k)
            assert len(sys.partitions) >= m
            assert all(len(c) >= k for p in sys.partitions for c in p)
            assert verify_strict_3ps(sys)


def test_base_bound():
    for m in range(1, 6):
        for k in range(1, 4):
            assert len(gen_strict_3ps(m, k).base) <= 27 * m**3 + 2 * m + 3 * k


def test_generator_output_is_pinned():
    """The systems for m = 1..12 and k = 1..3, each class in base order,
    hash to the digest of the generator that looked up each class triple
    in a list and rebuilt the base set for it."""
    h = hashlib.sha256()
    for m in range(1, 13):
        for k in range(1, 4):
            sys = gen_strict_3ps(m, k)
            pos = {x: i for i, x in enumerate(sys.base)}
            parts = [[sorted(c, key=pos.__getitem__) for c in p] for p in sys.partitions]
            h.update(repr((m, k, sys.base, parts)).encode())
    assert h.hexdigest() == (
        "79fd46dcec958645437b9f2b498aafac79a2b7a74cd58af9d29f0b5a1299f6a1"
    )


def test_generator_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_strict_3ps(0, 1)
    with pytest.raises(ValueError):
        gen_strict_3ps(1, 0)


def test_checker_accepts_hand_built_strict_pair():
    base = tuple("123456")
    sys = ThreePartitionSystem(
        base,
        (
            (fs(1, 2), fs(3, 4), fs(5, 6)),
            (fs(1, 4), fs(2, 5), fs(3, 6)),
        ),
    )
    assert verify_strict_3ps(sys)


def test_checker_rejects_cross_partition_cover():
    # {1,2} u {3,4} u {5,6,1} covers the base without being a family triple
    base = tuple("123456")
    sys = ThreePartitionSystem(
        base,
        (
            (fs(1, 2), fs(3, 4), fs(5, 6)),
            (fs(1, 5, 6), fs(2, 3), fs(4)),
        ),
    )
    assert not verify_strict_3ps(sys)


def test_checker_rejects_malformed_systems():
    base = tuple("1234")
    overlapping = ThreePartitionSystem(base, ((fs(1, 2), fs(2, 3), fs(4)),))
    assert not verify_strict_3ps(overlapping)
    incomplete = ThreePartitionSystem(base, ((fs(1), fs(2), fs(3)),))
    assert not verify_strict_3ps(incomplete)
    repeated_class = ThreePartitionSystem(
        base,
        (
            (fs(1), fs(2), fs(3, 4)),
            (fs(1), fs(2, 3), fs(4)),
        ),
    )
    assert not verify_strict_3ps(repeated_class)


# --- instance format -------------------------------------------------------


POS_TEXT = """\
2 3
g1 g2 g3 g4 g5 g6
g1 g2 g3
g4 g5 g6
g1 g4 g5
"""


def test_parse_format_round_trip():
    inst = parse_x3c(POS_TEXT)
    assert inst.ground == tuple(f"g{i}" for i in range(1, 7))
    assert len(inst.sets) == 3
    assert parse_x3c(format_x3c(inst)) == inst


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "1\na b c\na b c",
        "1 1\na b\na b c",
        "1 1\na b c\na b",
        "1 2\na b c\na b c",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_x3c(bad)


def test_instance_validation():
    with pytest.raises(ValueError):
        X3CInstance(("a", "b"), (frozenset("ab"),))


@pytest.mark.parametrize(
    "ground, sets, message",
    [
        ("aab", ["aab"], "ground elements must be distinct"),
        ("ab", ["ab"], "ground set size must be a positive multiple of 3"),
        ("", [], "ground set size must be a positive multiple of 3"),
        ("abc", ["ab"], "not a 3-element subset of the ground set: ['a', 'b']"),
        ("abc", ["abc", "abd"], "not a 3-element subset of the ground set: ['a', 'b', 'd']"),
        ("abcdef", ["abcd"], "not a 3-element subset of the ground set: ['a', 'b', 'c', 'd']"),
        ("abc", [], "at least one subset is required"),
    ],
)
def test_instance_validation_messages(ground, sets, message):
    with pytest.raises(ValueError) as err:
        X3CInstance(tuple(ground), tuple(frozenset(d) for d in sets))
    assert str(err.value) == message


class _CountedGround(tuple):
    """A ground tuple that counts the passes over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_large_instance_reads_its_ground_once():
    """The subset check reads one set of the ground, built once: 1,200
    subsets of 3,600 elements are checked in one pass over the ground, not
    one pass per subset."""
    ground = _CountedGround(f"g{i}" for i in range(3600))
    sets = tuple(frozenset(ground[3 * i : 3 * i + 3]) for i in range(1200))
    ground.passes = 0
    inst = X3CInstance(ground, sets)
    assert ground.passes == 1
    assert len(inst.sets) == 1200


# --- exact cover -----------------------------------------------------------


def test_exact_cover_positive():
    inst = parse_x3c(POS_TEXT)
    cover = exact_cover(inst)
    assert cover is not None
    chosen = [inst.sets[i] for i in cover]
    assert len(chosen) == 2
    assert frozenset().union(*chosen) == frozenset(inst.ground)


def test_exact_cover_negative():
    inst = parse_x3c("2 2\ng1 g2 g3 g4 g5 g6\ng1 g2 g3\ng1 g4 g5\n")
    assert exact_cover(inst) is None


def _recursive_exact_cover(inst):
    """Reference: the first uncovered element in ground order, covered by
    each fitting subset in input order, one recursion level per subset."""
    covers_of = {x: [i for i, d in enumerate(inst.sets) if x in d] for x in inst.ground}

    def rec(remaining, used):
        if not remaining:
            return list(used)
        x = min(remaining, key=inst.ground.index)
        for i in covers_of[x]:
            if inst.sets[i] <= remaining:
                found = rec(remaining - inst.sets[i], used + [i])
                if found is not None:
                    return found
        return None

    return rec(set(inst.ground), [])


def test_exact_cover_matches_the_recursive_solver():
    """Same cover, or None; 19 of these instances have a cover only after
    backtracking."""
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        ground = [f"g{i}" for i in range(3 * rng.randint(1, 5))]
        sets = [frozenset(rng.sample(ground, 3)) for _ in range(rng.randint(1, 12))]
        inst = X3CInstance(tuple(ground), tuple(sets))
        expected = _recursive_exact_cover(inst)
        assert exact_cover(inst) == expected
        found += expected is not None
    assert 20 < found < 280


def test_exact_cover_of_many_disjoint_subsets():
    """One subset per ground triple: 1,200 subsets, within no recursion
    limit and with no scan of the ground set per step."""
    ground = tuple(f"g{i}" for i in range(3600))
    sets = tuple(frozenset(ground[3 * i : 3 * i + 3]) for i in range(1200))
    start = time.perf_counter()
    assert exact_cover(X3CInstance(ground, sets)) == list(range(1200))
    assert time.perf_counter() - start < 5


# --- reduction query -------------------------------------------------------


def test_reduction_body_size():
    inst = parse_x3c(POS_TEXT)
    q = x3c_to_query(inst)
    s, m = 2, 3
    assert len(q.body) == 8 * (s + 1) + s + 3 * m
    assert {a.relation for a in q.body} == {"q", "pa", "pb", "pc", "link", "s"}


def test_witness_qd_validates_at_width_4():
    inst = parse_x3c(POS_TEXT)
    cover = exact_cover(inst)
    q = x3c_to_query(inst)
    d = witness_qd_from_cover(inst, cover)
    assert validate_qd(q, d).valid
    assert d.width() <= 4
    assert d.is_pure()
    h = qd_to_hd(q, d)
    assert validate_hd(q, h).valid and h.width() <= 4


def test_witness_rejects_non_cover():
    inst = parse_x3c(POS_TEXT)
    with pytest.raises(ValueError):
        witness_qd_from_cover(inst, [0, 2])


def test_decompose_accepts_reduction_at_4():
    inst = parse_x3c("1 2\ng1 g2 g3\ng1 g2 g3\ng1 g2 g3\n")
    q = x3c_to_query(inst)
    assert decompose(q, 4) is not None


def random_positive_instance(rng, s, extra):
    """An instance built around a planted exact cover."""
    ground = [f"g{i}" for i in range(1, 3 * s + 1)]
    rng.shuffle(ground)
    sets = [frozenset(ground[3 * i : 3 * i + 3]) for i in range(s)]
    for _ in range(extra):
        d = frozenset(rng.sample(ground, 3))
        if d not in sets:
            sets.append(d)
    rng.shuffle(sets)
    return X3CInstance(tuple(sorted(ground, key=lambda g: int(g[1:]))), tuple(sets))


def test_random_positive_instances_certified():
    rng = random.Random(7)
    for trial in range(6):
        inst = random_positive_instance(rng, s=1 + trial % 2, extra=rng.randint(0, 2))
        cover = exact_cover(inst)
        assert cover is not None
        q = x3c_to_query(inst)
        d = witness_qd_from_cover(inst, cover)
        assert validate_qd(q, d).valid and d.width() <= 4
