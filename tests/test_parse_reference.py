"""The scanner against a reference copy of the character-loop tokenizer and
parser it replaced, over seeded mutations of query and fact texts.

Both must give the same queries, databases, error types and messages.  Error
positions must agree too, except in texts with a ``%`` comment or a quoted
constant that spans a line: the reference did not advance the column across
a comment, nor the line inside a quoted constant.  The reference also took a
quoted constant spelling punctuation, such as ``'.'``, for that punctuation;
where the outcomes differ, the text must hold such a constant and the new
parser must reject it.
"""

import random
import re
from dataclasses import dataclass

import pytest

from htd import (
    Atom,
    ConjunctiveQuery,
    Database,
    DatabaseFormatError,
    QuerySyntaxError,
    Term,
    constant,
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
