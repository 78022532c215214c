"""The scanner against a reference copy of the character-loop tokenizer and
parser it replaced, over seeded mutations of query and fact texts.

Both must give the same queries, databases, error types and messages.  Error
positions must agree too, except in texts with a ``%`` comment or a quoted
constant that spans a line: the reference did not advance the column across
a comment, nor the line inside a quoted constant.  The reference also took a
quoted constant spelling punctuation, such as ``'.'``, for that punctuation;
where the outcomes differ, the text must hold such a constant and the new
parser must reject it.

``parse_database`` reads a text of plain facts in one regex pass.  It is
also checked against its token path alone, over seeded fact files that mix
plain facts with every other kind of text: the two must give the same
database, or the same error type, message, line and column.
"""

import random
import re
from dataclasses import dataclass

import pytest

from htd import model
from htd import (
    Atom,
    ConjunctiveQuery,
    Database,
    DatabaseFormatError,
    QuerySyntaxError,
    Term,
    constant,
    format_answers,
    parse_database,
    parse_query,
    variable,
)
from conftest import Q1_TEXT, Q2_TEXT, Q3_TEXT, Q4_TEXT, Q5_TEXT, TRIANGLE_TEXT

# ---------------------------------------------------------------------------
# reference: the character-loop tokenizer and its parser, verbatim

_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_']*")
_CONST_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # name | variable | quoted | punct | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise QuerySyntaxError("unterminated quoted constant", line, col)
            tokens.append(_Token("quoted", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
        elif text.startswith("<-", i):
            tokens.append(_Token("punct", "<-", line, col))
            i += 2
            col += 2
        elif c in "(),.":
            tokens.append(_Token("punct", c, line, col))
            i += 1
            col += 1
        else:
            m = _VAR_RE.match(text, i) or _CONST_RE.match(text, i)
            if m is None:
                raise QuerySyntaxError(f"unexpected character {c!r}", line, col)
            kind = "variable" if text[i].isupper() else "name"
            tokens.append(_Token(kind, m.group(), line, col))
            col += m.end() - i
            i = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str):
        t = self.peek()
        raise QuerySyntaxError(message, t.line, t.column)

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text or t.kind == "end":
            raise QuerySyntaxError(f"expected {text!r}", t.line, t.column)
        return t

    def term(self) -> Term:
        t = self.next()
        if t.kind == "variable":
            return variable(t.text)
        if t.kind in ("name", "quoted"):
            return constant(t.text)
        raise QuerySyntaxError("expected a term", t.line, t.column)

    def termlist(self) -> tuple[Term, ...]:
        terms = [self.term()]
        while self.peek().text == ",":
            self.next()
            terms.append(self.term())
        return tuple(terms)

    def atom(self, index: int = -1) -> Atom:
        t = self.next()
        if t.kind != "name":
            raise QuerySyntaxError("expected a relation name", t.line, t.column)
        args: tuple[Term, ...] = ()
        if self.peek().text == "(":
            self.next()
            args = self.termlist()
            self.expect(")")
        return Atom(t.text, args, index)


def ref_parse_query(text: str) -> ConjunctiveQuery:
    """Parse a single rule into a ConjunctiveQuery."""
    if not text.strip():
        raise QuerySyntaxError("empty input")
    p = _Parser(text)
    head = p.atom()
    p.expect("<-")
    body: list[Atom] = []
    if p.peek().text != ".":
        body.append(p.atom(0))
        while p.peek().text == ",":
            p.next()
            body.append(p.atom(len(body)))
    p.expect(".")
    if p.peek().kind != "end":
        p.fail("trailing text after query")
    return ConjunctiveQuery(head, tuple(body))


def ref_parse_database(text: str) -> Database:
    """Parse a fact file (one ground atom per line) into a Database."""
    relations: dict[str, set[tuple[str, ...]]] = {}
    arities: dict[str, int] = {}
    p = _Parser(text)
    while p.peek().kind != "end":
        atom = p.atom()
        p.expect(".")
        row = []
        for t in atom.args:
            if t.is_variable:
                raise DatabaseFormatError(
                    f"non-ground term {t.name} in fact {atom.relation}"
                )
            row.append(t.name)
        arity = len(row)
        if atom.relation in arities and arities[atom.relation] != arity:
            raise DatabaseFormatError(
                f"arity mismatch for relation {atom.relation}: "
                f"{arities[atom.relation]} vs {arity}"
            )
        arities[atom.relation] = arity
        relations.setdefault(atom.relation, set()).add(tuple(row))
    return Database({r: frozenset(ts) for r, ts in relations.items()}, arities)


# ---------------------------------------------------------------------------
# reference: parse_database's token path alone, verbatim


def token_parse_database(text: str) -> Database:
    """parse_database as it was before the regex pass: the token path."""
    relations: dict[str, set[tuple[str, ...]]] = {}
    arities: dict[str, int] = {}
    p = model._Parser(text)
    while p.peek()[0] != "end":
        atom = p.atom()
        p.expect(".")
        row = []
        for t in atom.args:
            if t.is_variable:
                raise DatabaseFormatError(
                    f"non-ground term {t.name} in fact {atom.relation}"
                )
            row.append(t.name)
        arity = len(row)
        if atom.relation in arities and arities[atom.relation] != arity:
            raise DatabaseFormatError(
                f"arity mismatch for relation {atom.relation}: "
                f"{arities[atom.relation]} vs {arity}"
            )
        arities[atom.relation] = arity
        relations.setdefault(atom.relation, set()).add(tuple(row))
    return Database({r: frozenset(ts) for r, ts in relations.items()}, arities)


# ---------------------------------------------------------------------------
# seeded mutations

SEEDS = (
    Q1_TEXT,
    Q2_TEXT,
    Q3_TEXT,
    Q4_TEXT,
    Q5_TEXT,
    TRIANGLE_TEXT,
    "ans(X,Y) <- r(X,abc), s(X,'Hello world'), t(Y,0x_1).",
    "% header\nans(X) <-\n  r(X,Y), % note\n  s(Y,'a\nb').",
    "ans <- .",
    "r(a,b). r(b,c).\ns('x y',c). % comment\nt.\nu(1,'', 'it''s').\n",
    "e(l1,m2).\ne(m2,l1).\n\tz(n0,m3).\r\n",
)
ALPHABET = "'%\n\t\r <-(),.;#aZzX0_é'\"\\"


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1 :]
        elif op == 2:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1 :]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:i] + text[min(i, j) : max(i, j)] + text[i:]
    return text


_POSITION = re.compile(r" \(line \d+, column \d+\)$")


def outcome(parse, text: str):
    """The parse result, or the error type, message and position."""
    try:
        return parse(text)
    except (QuerySyntaxError, DatabaseFormatError) as e:
        position = (getattr(e, "line", None), getattr(e, "column", None))
        return type(e), _POSITION.sub("", str(e)), position


def positions_comparable(text: str) -> bool:
    """No % comment and no quoted constant with a newline.  Without a
    comment, every other quote opens a quoted constant."""
    return "%" not in text and not any("\n" in s for s in text.split("'")[1::2])


def quotes_punctuation(text: str) -> bool:
    """A quoted constant spells punctuation, which the reference took for it."""
    return any(
        t.kind == "quoted" and t.text in ("<-", "(", ")", ",", ".")
        for t in _tokenize(text)
    )


def check_corpus(n: int, seed: int) -> set[str]:
    rng = random.Random(seed)
    seen = set()
    for _ in range(n):
        text = mutate(rng, rng.choice(SEEDS))
        comparable = positions_comparable(text)
        for ref, new in ((ref_parse_query, parse_query), (ref_parse_database, parse_database)):
            want, got = outcome(ref, text), outcome(new, text)
            if isinstance(want, tuple) and isinstance(got, tuple):
                same = got[:2] == want[:2] and (not comparable or got[2] == want[2])
            else:
                same = got == want
            if not same:
                assert quotes_punctuation(text), text
                assert isinstance(got, tuple) and got[0] is QuerySyntaxError, text
                seen.add("quoted punctuation")
            elif isinstance(want, tuple):
                seen.add(want[1].split(" ")[0])
            else:
                seen.add(new.__name__)
    return seen


def test_scanner_matches_reference():
    seen = check_corpus(4000, seed=0)
    # the corpus reaches both parsers' results and every kind of error
    assert {"parse_query", "parse_database", "unterminated", "unexpected", "expected"} <= seen
    assert {"trailing", "unsafe", "non-ground", "arity"} <= seen


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 21))
def test_scanner_matches_reference_slow(seed):
    check_corpus(5000, seed)


def test_exemption_covers_the_reference_bugs():
    for text in ("ans <- p('x\ny') q(X).", "ans <- r(X,\n  %s(Y."):
        assert not positions_comparable(text)
        assert outcome(ref_parse_query, text)[2] != outcome(parse_query, text)[2]
    for parse, text in (
        (parse_query, "ans <- r(X) ',' s(Y) '.'"),
        (parse_query, "ans '<-' r(X)."),
        (parse_database, "r'('a')' '.'"),
    ):
        assert quotes_punctuation(text)
        assert outcome(parse, text)[0] is QuerySyntaxError
    assert ref_parse_query("ans '<-' r(X).") == parse_query("ans <- r(X).")


# ---------------------------------------------------------------------------
# parse_database's regex pass against its token path alone

CONSTANTS = ("a", "b1", "c_d", "0x", "n9Z")


def plain_fact(rng: random.Random) -> str:
    rel = rng.choice("prst")
    arity = "prst".index(rel)
    if rng.random() < 0.05:  # an arity mismatch
        arity = rng.choice((0, 1, 2, 3, 4))
    args = ",".join(rng.choice(CONSTANTS) for _ in range(arity))
    return f"{rel}({args})." if arity else f"{rel}."


OTHER_PIECES = (
    "r('x y').",
    "s(',',a).",
    "t('.',a,'').",
    "r('it''s').",
    "s( a , b ).",
    "t (a,b,c) .",
    "r(X).",
    "s(a,Y').",
    "t().",
    "r(a,%c\nb).",
    "r('é').",
    "é(a).",
    "s(a,b)",
    "r(a",
    "(",
    ")",
    ".",
    ",",
    "<-",
    "'",
    "?",
)
SEPARATORS = ("\n", "\r\n", " ", "", "\t", "\n\n", "% note\n", " %é\r\n")
ENDINGS = ("", "\n", "\r\n", "% end", "\n% end", "%", " \t")


def fact_file(rng: random.Random) -> str:
    """Plain facts between separators; in every second text, also pieces of
    any other kind."""
    mixed = rng.random() < 0.5
    parts = [rng.choice(SEPARATORS) if rng.random() < 0.3 else ""]
    for _ in range(rng.randint(0, 12)):
        if mixed and rng.random() < 0.2:
            parts.append(rng.choice(OTHER_PIECES))
        else:
            parts.append(plain_fact(rng))
        parts.append(rng.choice(SEPARATORS))
    parts[-1] = rng.choice(ENDINGS)
    return "".join(parts)


def check_fact_files(n: int, seed: int) -> set[str]:
    rng = random.Random(seed)
    seen = set()
    for _ in range(n):
        text = fact_file(rng)
        want = outcome(token_parse_database, text)
        assert outcome(parse_database, text) == want, text
        seen.add(want[1].split(" ")[0] if isinstance(want, tuple) else "database")
    return seen


def test_regex_pass_matches_token_path():
    seen = check_fact_files(3000, seed=0)
    assert {"database", "unterminated", "unexpected", "expected"} <= seen
    assert {"non-ground", "arity"} <= seen


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 11))
def test_regex_pass_matches_token_path_slow(seed):
    check_fact_files(20_000, seed)


def _no_token_path(text):
    raise AssertionError("the token path ran on a file of plain facts")


def test_plain_files_take_the_regex_pass(monkeypatch):
    rows = [("a", "b1"), ("0x", "c_d"), ("n9Z", "n9Z")]
    answers = format_answers(parse_query("ans(X,Y) <- r(X,Y)."), rows)
    files = (
        "r(a,b). s(c).\n% between facts\nr(b,c).\n",
        "r(a,b).\ns(c). % a trailing comment, no final newline",
        "r(a,b).\r\ns(c).\r\n% crlf\r\nt.\r\n",
        "t. u.\nt.",
        "%only a comment",
        "",
        answers,
    )
    want = [token_parse_database(text) for text in files]
    monkeypatch.setattr(model, "_Parser", _no_token_path)
    assert [parse_database(text) for text in files] == want
    assert parse_database(answers).tuples("ans") == set(rows)


def test_one_quoted_constant_takes_the_token_path(monkeypatch):
    built = []

    class Counting(model._Parser):
        def __init__(self, text):
            built.append(text)
            super().__init__(text)

    text = "r(a,b).\nr(c,'d e').\ns(f).\n"
    want = token_parse_database(text)
    monkeypatch.setattr(model, "_Parser", Counting)
    assert parse_database(text) == want
    assert built == [text]
    assert want.tuples("r") == {("a", "b"), ("c", "d e")}


@pytest.mark.slow
def test_baseline_database_same_on_both_paths():
    # r, s, t, u: 18k distinct pairs each over 300 constants
    rng = random.Random(2024)
    lines = []
    for rel in "rstu":
        rows: set = set()
        while len(rows) < 18_000:
            rows.add((f"c{rng.randrange(300)}", f"c{rng.randrange(300)}"))
        lines += [f"{rel}({a},{b})." for a, b in sorted(rows)]
    text = "\n".join(lines) + "\n"
    db = parse_database(text)
    assert db == token_parse_database(text)
    assert {r: len(ts) for r, ts in db.relations.items()} == dict.fromkeys("rstu", 18_000)
