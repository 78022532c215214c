"""Query and database model plus the text front-end.

Queries are datalog-style rules ``ans(X) <- r(X,Y), s(Y).``; fact files are
ground atoms ``r(a,b).`` separated by whitespace or comments.  Variables
start with an uppercase letter, constants are lowercase/digit identifiers or
single-quoted text, and ``%`` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Optional

from .errors import DatabaseFormatError, QuerySyntaxError

_NAME = r"[a-z0-9][A-Za-z0-9_]*"  # relation names and unquoted constants
_NAME_RE = re.compile(_NAME)


@dataclass(frozen=True, order=True)
class Term:
    kind: str  # "variable" | "constant"
    name: str

    @property
    def is_variable(self) -> bool:
        return self.kind == "variable"

    def __str__(self) -> str:
        return format_constant(self.name) if self.kind == "constant" else self.name


def format_constant(name: str) -> str:
    """A constant as the parser reads it back: quoted unless a plain name."""
    return name if _NAME_RE.fullmatch(name) else "'" + name + "'"


def variable(name: str) -> Term:
    return Term("variable", name)


def constant(name: str) -> Term:
    return Term("constant", name)


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[Term, ...]
    index: int = -1  # 0-based position in the query body; -1 for heads

    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.args if t.is_variable)

    def __str__(self) -> str:
        if not self.args:
            return self.relation
        return f"{self.relation}({','.join(str(t) for t in self.args)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self):
        body_vars = self.variables()
        for t in self.head.args:
            if t.is_variable and t.name not in body_vars:
                raise QuerySyntaxError(
                    f"unsafe head variable {t.name}: does not occur in the body"
                )

    def variables(self) -> frozenset[str]:
        """var(Q): the variables occurring in body atoms."""
        out: set[str] = set()
        for a in self.body:
            out.update(a.variables())
        return frozenset(out)

    @property
    def is_boolean(self) -> bool:
        return not any(t.is_variable for t in self.head.args)

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} <- {body}."


@dataclass(frozen=True)
class Hypergraph:
    """Variables of a query plus one edge per body atom with >= 1 variable."""

    vertices: frozenset[str]
    edges: tuple[tuple[int, frozenset[str]], ...]


@dataclass(frozen=True)
class Encoding:
    """An order-preserving dictionary of a database's constants (Binnig,
    Hildenbrand, Faerber, SIGMOD 2009): constant i of the sorted table has
    rank i, so ranks compare as their constants do."""

    constants: tuple[str, ...]  # sorted; rank i spells constants[i]
    rank: dict[str, int]
    relations: dict[str, frozenset[tuple[int, ...]]]  # each fact as ranks


@dataclass(frozen=True)
class Database:
    relations: dict[str, frozenset[tuple[str, ...]]]
    arities: dict[str, int] = field(default_factory=dict)

    @cached_property
    def encoding(self) -> Encoding:
        """Built on first use, once; not a field, so == and repr ignore it."""
        facts = chain.from_iterable(self.relations.values())
        constants = tuple(sorted(set(chain.from_iterable(facts))))
        rank = dict(zip(constants, range(len(constants))))
        codes = repeat(rank.__getitem__)
        relations = {
            r: frozenset(map(tuple, map(map, codes, ts)))
            for r, ts in self.relations.items()
        }
        return Encoding(constants, rank, relations)

    @property
    def universe(self) -> frozenset[str]:
        return frozenset(self.encoding.constants)

    def tuples(self, relation: str) -> frozenset[tuple[str, ...]]:
        return self.relations.get(relation, frozenset())


# ---------------------------------------------------------------------------
# scanner / parsers

# One token per match; whitespace and % comments match without a named group.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|%[^\n]*)+"
    r"|'(?P<quoted>[^']*)'"
    r"|(?P<punct><-|[(),.])"
    r"|(?P<variable>[A-Z][A-Za-z0-9_']*)"
    rf"|(?P<name>{_NAME})"
)


# Whitespace and comments, then a plain ground fact, one other character (which
# sends the text to the token path) or the end: the matches tile the text.
_FACT_RE = re.compile(
    rf"(?:[ \t\r\n]|%[^\n]*)*(?:({_NAME})(?:\(({_NAME}(?:,{_NAME})*)\))?\.|(.)|\Z)"
)


class _Parser:
    """Recursive descent over (kind, text, offset) tokens, where kind is a
    group name of _TOKEN_RE, the text itself for punctuation, or "end", so
    a quoted constant never reads as punctuation; offsets become line and
    column only when an error is raised."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self.pos = 0
        end = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != end:
                break
            end = m.end()
            kind = m.lastgroup
            if kind:
                spelled = m[kind]
                if kind == "punct":
                    kind = spelled
                self.tokens.append((kind, spelled, m.start()))
        if end < len(text):
            c = text[end]
            if c == "'":
                self.fail("unterminated quoted constant", end)
            self.fail(f"unexpected character {c!r}", end)
        self.tokens.append(("end", "", end))

    def fail(self, message: str, offset: int):
        text = self.text
        line = text.count("\n", 0, offset) + 1
        raise QuerySyntaxError(message, line, offset - text.rfind("\n", 0, offset))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> None:
        got, _, offset = self.next()
        if got != text:
            self.fail(f"expected {text!r}", offset)

    def term(self) -> Term:
        kind, text, offset = self.next()
        if kind == "variable":
            return variable(text)
        if kind == "name" or kind == "quoted":
            return constant(text)
        self.fail("expected a term", offset)

    def termlist(self) -> tuple[Term, ...]:
        terms = [self.term()]
        while self.peek()[0] == ",":
            self.next()
            terms.append(self.term())
        return tuple(terms)

    def atom(self, index: int = -1) -> Atom:
        kind, relation, offset = self.next()
        if kind != "name":
            self.fail("expected a relation name", offset)
        args: tuple[Term, ...] = ()
        if self.peek()[0] == "(":
            self.next()
            args = self.termlist()
            self.expect(")")
        return Atom(relation, args, index)


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a single rule into a ConjunctiveQuery."""
    if not text.strip():
        raise QuerySyntaxError("empty input")
    p = _Parser(text)
    head = p.atom()
    p.expect("<-")
    body: list[Atom] = []
    if p.peek()[0] != ".":
        body.append(p.atom(0))
        while p.peek()[0] == ",":
            p.next()
            body.append(p.atom(len(body)))
    p.expect(".")
    kind, _, offset = p.peek()
    if kind != "end":
        p.fail("trailing text after query", offset)
    return ConjunctiveQuery(head, tuple(body))


def print_query(q: ConjunctiveQuery) -> str:
    return str(q)


def parse_database(text: str) -> Database:
    """Parse a fact file (ground atoms separated by whitespace or comments)
    into a Database.  A text of plain facts takes one regex pass; any other
    text goes through the token parser, with the same result or error."""
    facts: dict[str, set[tuple[str, ...]]] = {}
    for name, args, other in _FACT_RE.findall(text):
        if other:
            break
        if name:
            facts.setdefault(name, set()).add(tuple(args.split(",")) if args else ())
    else:  # only facts; an arity mismatch also goes to the token path
        lengths = {r: set(map(len, ts)) for r, ts in facts.items()}
        if all(len(n) == 1 for n in lengths.values()):
            arities = {r: n.pop() for r, n in lengths.items()}
            return Database({r: frozenset(ts) for r, ts in facts.items()}, arities)
    relations: dict[str, set[tuple[str, ...]]] = {}
    arities: dict[str, int] = {}
    p = _Parser(text)
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


def query_hypergraph(q: ConjunctiveQuery) -> Hypergraph:
    """H(Q): vertices are variables, one edge var(A) per body atom with vars."""
    edges = []
    for a in q.body:
        vs = a.variables()
        if vs:
            edges.append((a.index, vs))
    return Hypergraph(q.variables(), tuple(edges))


def atoms_vars(q: ConjunctiveQuery, indices: Iterable[int]) -> frozenset[str]:
    """var(R) for a set R of body-atom indices."""
    out: set[str] = set()
    for i in indices:
        out.update(q.body[i].variables())
    return frozenset(out)
