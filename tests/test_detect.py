import random

import pytest
from hypothesis import given, settings, strategies as st

from htd import (
    brute_force_qw,
    decompose,
    fixpoint_decide,
    gyo_acyclic,
    hypertree_width,
    is_acyclic,
    normalize_hd,
    parse_query,
)
from htd.oracle import _set_partitions
from htd.errors import InconclusiveError
from htd.hypertree import (
    Hypertree,
    complete_hd,
    qd_to_hd,
    validate_hd,
    validate_jointree,
    validate_nf,
    validate_qd,
)

import util


# --- fixture widths --------------------------------------------------------


def test_widths_of_fixtures(q1, q2, q3, q4, q5, triangle):
    assert hypertree_width(q2)[0] == 1
    assert hypertree_width(q3)[0] == 1
    assert hypertree_width(q1)[0] == 2
    assert hypertree_width(q4)[0] == 2
    assert hypertree_width(q5)[0] == 2
    assert hypertree_width(triangle)[0] == 2


def test_decompose_respects_bound(q1, q5):
    assert decompose(q1, 1) is None
    assert decompose(q5, 1) is None
    assert decompose(q1, 2) is not None
    assert decompose(q5, 2) is not None


def test_decompose_output_is_valid_nf(q1, q2, q3, q4, q5, triangle):
    for q in (q1, q2, q3, q4, q5, triangle):
        k, h = hypertree_width(q)
        assert validate_hd(q, h).valid
        assert validate_nf(q, h).valid
        assert h.width() == k
        assert len(h) <= len(q.variables())


def test_decompose_rejects_bad_k(q1):
    with pytest.raises(ValueError):
        decompose(q1, 0)


@pytest.mark.parametrize("text", ["ans <- r(X,Y), s(Y,Z).", "ans <- g.", "ans <- ."])
def test_hypertree_width_rejects_bound_below_one(text):
    for k_max in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            hypertree_width(parse_query(text), k_max)


def test_decompose_empty_body():
    q = parse_query("ans <- .")
    h = decompose(q, 1)
    assert h is not None and len(h) == 0


def test_decompose_variable_free_atoms_only():
    q = parse_query("ans <- r(a,b), s(c).")
    h = decompose(q, 1)
    assert h is not None and len(h) == 1


def test_raw_build_is_normal_form():
    """decompose returns its raw build: already in normal form, and a fixed
    point of normalize_hd."""
    for seed in range(300):
        rng = random.Random(seed)
        q = util.rand_query(rng, max_atoms=rng.choice([4, 6, 8]), max_vars=7)
        for k in (1, 2, 3):
            h = decompose(q, k)
            if h is None or not len(h):
                continue
            assert validate_nf(q, h).valid, (seed, k)
            assert list(normalize_hd(q, h)) == list(h), (seed, k)


def test_decompose_deep_path():
    n = 1100
    q = parse_query(
        "ans <- " + ", ".join(f"r(X{i},X{i + 1})" for i in range(n)) + "."
    )
    h = decompose(q, 1)
    assert h is not None and len(h) == n
    assert validate_hd(q, h).valid
    form = h.canonical()
    assert len(form) == n
    assert form == Hypertree(reversed(list(h))).canonical()


def test_decompose_disconnected_query():
    q = parse_query("ans <- r(X,Y), s(Z,W).")
    h = decompose(q, 1)
    assert h is not None
    assert validate_hd(q, h).valid
    assert validate_nf(q, h).valid


# --- acyclicity ------------------------------------------------------------


def test_acyclic_fixtures(q1, q2, q3, q4, q5, triangle):
    assert is_acyclic(q2)
    assert is_acyclic(q3)
    for q in (q1, q4, q5, triangle):
        assert is_acyclic(q) is None
    assert gyo_acyclic(q2) and gyo_acyclic(q3)
    assert not (gyo_acyclic(q1) or gyo_acyclic(q4) or gyo_acyclic(q5))


def test_is_acyclic_yields_valid_jointree(q2, q3):
    for q in (q2, q3):
        jt = is_acyclic(q)
        assert jt is not None
        assert validate_jointree(q, jt).valid
        assert len(jt) == len(q.body)


def test_acyclic_empty_body():
    q = parse_query("ans <- .")
    jt = is_acyclic(q)
    assert jt is not None and len(jt) == 0
    assert gyo_acyclic(q)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_width_one_iff_gyo_acyclic(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng)
    assert (decompose(q, 1) is not None) == gyo_acyclic(q)


# --- the two decision engines agree ----------------------------------------


def test_fixpoint_on_fixtures(q1, q2, q3, q4, q5, triangle):
    for q in (q1, q2, q3, q4, q5, triangle):
        for k in (1, 2, 3):
            assert fixpoint_decide(q, k) == (decompose(q, k) is not None)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_fixpoint_matches_recursive(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng)
    for k in (1, 2):
        assert fixpoint_decide(q, k) == (decompose(q, k) is not None)


# --- exhaustive query-width search -----------------------------------------


def test_brute_force_qw_fixtures(q4, q5):
    d = brute_force_qw(q4, 2)
    assert d is not None and validate_qd(q4, d).valid and d.width() <= 2
    assert brute_force_qw(q5, 2) is None
    d5 = brute_force_qw(q5, 3)
    assert d5 is not None and validate_qd(q5, d5).valid and d5.width() <= 3


def test_brute_force_qw_zero_and_empty(q1):
    assert brute_force_qw(q1, 0) is None
    q = parse_query("ans <- .")
    assert brute_force_qw(q, 1) is not None


def _recursive_set_partitions(items: list):
    """``_set_partitions`` as it was before it became lazy, verbatim."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _recursive_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


@pytest.mark.parametrize("n", range(9))
def test_set_partitions_in_the_old_sorted_order(n):
    items = [f"g{i}" for i in range(n)]
    expect = sorted(_recursive_set_partitions(items), key=len, reverse=True)
    assert list(_set_partitions(items)) == expect


def test_brute_force_qw_budget_bounds_many_groups():
    # separating one atom leaves 14 groups: Bell(14) = 190M partitions,
    # which must be drawn one at a time for the budget to stop the search
    body = []
    for i in range(14):
        body += [f"e(X0,A{i})", f"e(A{i},B{i})", f"e(B{i},X0)"]
    q = parse_query(f"ans <- {', '.join(body)}.")
    with pytest.raises(InconclusiveError):
        brute_force_qw(q, 1, budget=10_000)


def test_query_width_never_above_hypertree_width_on_fixtures(q1, q2, q3):
    # a pure decomposition at width k also certifies hypertree width k
    for q in (q1, q2, q3):
        k, _ = hypertree_width(q)
        d = brute_force_qw(q, k)
        assert d is not None
        h = qd_to_hd(q, d)
        assert validate_hd(q, h).valid and h.width() <= k


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_qw_witness_converts_and_bounds_decompose(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng, max_atoms=4, max_vars=5)
    for k in (1, 2):
        d = brute_force_qw(q, k)
        if d is None:
            continue
        assert validate_qd(q, d).valid
        assert d.width() <= k
        if d.is_pure():
            h = qd_to_hd(q, d)
            assert validate_hd(q, h).valid
            assert decompose(q, k) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_hypertree_width_minimality(seed):
    rng = random.Random(seed)
    q = util.rand_query(rng, max_atoms=4, max_vars=5)
    k, h = hypertree_width(q)
    assert validate_hd(q, h).valid
    assert h.width() == k
    assert k == 1 or decompose(q, k - 1) is None


def test_completion_after_decompose(q3):
    h = decompose(q3, 1)
    done = complete_hd(q3, h)
    covered = set()
    for v in done:
        covered |= v.lam
    assert covered == set(range(len(q3.body)))
