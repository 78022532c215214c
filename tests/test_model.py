import pytest
from hypothesis import given, settings, strategies as st

from htd import (
    DatabaseFormatError,
    QuerySyntaxError,
    parse_database,
    parse_query,
    print_query,
    query_hypergraph,
)
from conftest import Q1_TEXT, Q2_TEXT

import util


def test_parse_simple(q1):
    assert q1.head.relation == "ans"
    assert q1.is_boolean
    assert len(q1.body) == 3
    assert q1.body[0].relation == "enrolled"
    assert q1.body[0].index == 0
    assert q1.variables() == frozenset("SCRPA")


def test_parse_primed_variables(q2):
    assert "C'" in q2.variables()


def test_parse_constants_and_quoting():
    q = parse_query("ans <- r(X,abc), s(X,'Hello world').")
    assert q.body[0].args[1].name == "abc"
    assert q.body[1].args[1].name == "Hello world"
    assert str(q) == "ans <- r(X,abc), s(X,'Hello world')."


def test_parse_empty_body():
    q = parse_query("ans <- .")
    assert q.body == ()
    assert str(q) == "ans <- ."


def test_parse_head_variables():
    q = parse_query("ans(X,Y) <- r(X,Y,Z).")
    assert not q.is_boolean
    assert [t.name for t in q.head.args] == ["X", "Y"]


def test_unsafe_head_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query("ans(W) <- r(X,Y).")


def test_syntax_error_position():
    with pytest.raises(QuerySyntaxError) as e:
        parse_query("ans <- r(X,\n  s(Y).")
    assert e.value.line == 2


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        # after a quoted constant that spans a line
        ("ans <- p('x\ny') q(X).", "expected '.'", 2, 5),
        # after a % comment
        ("ans <- r(X,\n  %s(Y.", "expected a term", 2, 8),
    ],
)
def test_syntax_error_line_and_column(text, message, line, column):
    with pytest.raises(QuerySyntaxError) as e:
        parse_query(text)
    assert message in str(e.value)
    assert (e.value.line, e.value.column) == (line, column)


@pytest.mark.parametrize(
    "bad",
    ["", "ans r(X).", "ans <- r(X)", "ans <- r(X,).", "ans <- r(X). extra"],
)
def test_malformed_queries(bad):
    with pytest.raises(QuerySyntaxError):
        parse_query(bad)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_query, "ans <- r(X) ',' s(Y) '.'"),
        (parse_query, "ans '<-' r(X)."),
        (parse_database, "r'('a')' '.'"),
    ],
)
def test_quoted_constant_is_not_punctuation(parse, text):
    with pytest.raises(QuerySyntaxError):
        parse(text)
    assert parse_query("ans <- r(',').").body[0].args[0].name == ","
    assert parse_database("r(',', '.').").tuples("r") == {(",", ".")}


def test_comments_ignored():
    q = parse_query("% header\nans <- r(X,Y). % trailing")
    assert len(q.body) == 1


def test_round_trip_fixture_texts():
    for text in (Q1_TEXT, Q2_TEXT):
        assert print_query(parse_query(text)) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_queries(seed):
    import random

    q = util.rand_query(random.Random(seed), consts=["a", "b"], head_vars=True)
    assert parse_query(print_query(q)) == q


def test_parse_database_basics():
    db = parse_database("r(a,b). r(a,c).\ns(a). % note\n")
    assert db.tuples("r") == {("a", "b"), ("a", "c")}
    assert db.arities == {"r": 2, "s": 1}
    assert db.universe == frozenset("abc")


def test_parse_database_set_semantics():
    db = parse_database("r(a). r(a).")
    assert len(db.tuples("r")) == 1


def test_parse_database_rejects_variables():
    with pytest.raises(DatabaseFormatError):
        parse_database("r(X).")


def test_parse_database_rejects_arity_mismatch():
    with pytest.raises(DatabaseFormatError):
        parse_database("r(a). r(a,b).")


def test_hypergraph(q1):
    hg = query_hypergraph(q1)
    assert hg.vertices == q1.variables()
    assert len(hg.edges) == 3
    assert hg.edges[0] == (0, frozenset("SCR"))


def test_hypergraph_skips_variable_free_atoms():
    q = parse_query("ans <- r(a,b), s(X).")
    hg = query_hypergraph(q)
    assert [i for i, _ in hg.edges] == [1]
