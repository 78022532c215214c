"""The htd command line on mutated inputs.

Query texts, a fact file and decomposition JSON are mutated by character
insert, delete, replace and slice copy, and JSON values are swapped for
out-of-range or ill-typed ones.  Every run must end in a documented exit
code (0 success, 1 negative, 2 usage or parse error, 3 internal or
resource error), with no exception escaping ``run`` and no traceback on
stderr.
"""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from htd import decompose, parse_query
from htd.cli import run
from htd.hypertree import (
    QdVertex,
    QueryDecomposition,
    hypertree_to_json,
    qd_to_json,
)
from conftest import Q1_TEXT, Q2_TEXT, Q3_TEXT, Q4_TEXT, Q5_TEXT, TRIANGLE_TEXT

QUERY_TEXTS = [Q1_TEXT, Q2_TEXT, Q3_TEXT, Q4_TEXT, Q5_TEXT, TRIANGLE_TEXT]

# at most two facts per relation keeps the backtracking oracle small
FACT_TEXT = """\
enrolled(sue,db,spring). enrolled(bob,ai,fall).
teaches(ann,db,mon). parent(ann,sue).
r(a,b). r(b,c). s(b,c). s(c,a). t(c,a). t(a,b,c).
g(a,b). a(x,y,z,u,w). d(a,b). e('b c',a).
"""

ALPHABET = "abXYZ019_ (),.<-'\"\n\t{}[]:;\\%é"

# JSON tokens swapped in for a value: overflowing (json reads 1e400 as inf),
# non-finite, negative, and values of every other JSON type
SWAPS = ["1e400", "-1e400", "NaN", "-1", '"x"', "[]", "null", "true"]


def _decomposition_texts(text):
    """HD and QD JSON of a width-<=3 decomposition of the query; the QD
    labels each vertex with its lambda atoms and chi variables."""
    q = parse_query(text)
    h = next(h for k in (1, 2, 3) if (h := decompose(q, k)) is not None)
    d = QueryDecomposition(
        [
            QdVertex(
                v.id,
                v.parent,
                frozenset(("atom", i) for i in v.lam)
                | frozenset(("var", x) for x in v.chi),
            )
            for v in h
        ]
    )
    return hypertree_to_json(q, h), qd_to_json(q, d)


DECOMPOSITION_TEXTS = {t: _decomposition_texts(t) for t in QUERY_TEXTS}


def mutate_text(rng, text):
    """One to three character edits: insert, delete, replace, slice copy."""
    s = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["insert", "delete", "replace", "copy"])
        at = rng.randint(0, len(s))
        if op == "insert":
            s.insert(at, rng.choice(ALPHABET))
        elif op == "delete" and s:
            del s[min(at, len(s) - 1)]
        elif op == "replace" and s:
            s[min(at, len(s) - 1)] = rng.choice(ALPHABET)
        elif op == "copy" and s:
            i = rng.randrange(len(s))
            s[at:at] = s[i : i + rng.randint(1, 24)]
    return "".join(s)


def _values(doc, path=()):
    """Paths to every value inside a parsed JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _values(value, path + (key,))


def mutate_json(rng, text):
    """Swap one value for a token of SWAPS; sometimes edit characters too."""
    doc = json.loads(text)
    *where, last = rng.choice(list(_values(doc)))
    holder = doc
    for key in where:
        holder = holder[key]
    holder[last] = "\0swap\0"
    text = json.dumps(doc).replace(json.dumps("\0swap\0"), rng.choice(SWAPS))
    return mutate_text(rng, text) if rng.random() < 0.3 else text


# each command with the inputs it reads; Kn stands for a random k in 0..n,
# kept small so the searches stay quick
COMMANDS = [
    ["decompose", "q", "K3"],
    ["check", "q", "hd"],
    ["check", "q", "hd", "--nf"],
    ["check", "q", "hd", "--complete"],
    ["check", "q", "qd", "--qd"],
    ["width", "q", "--max", "3"],
    ["eval", "q", "db", "--k-cap", "3"],
    ["eval", "q", "db", "--k-cap", "3", "--hd", "hd"],
    ["eval", "q", "db", "--k-cap", "3", "--brute"],
    ["eval", "q", "db", "--k-cap", "3", "--hd", "hd", "--brute"],
    ["acyclic", "q"],
    ["oracle", "qw", "q", "K2"],
    ["oracle", "eval", "q", "db"],
]


def fuzz_once(seed):
    rng = random.Random(seed)
    base = rng.choice(QUERY_TEXTS)
    hd, qd = DECOMPOSITION_TEXTS[base]
    texts = {"q": base, "hd": hd, "qd": qd, "db": FACT_TEXT}
    command = rng.choice(COMMANDS)
    # mutate one input of the command, so the others still reach the code
    # under it; half the time the last one, its decomposition file if any
    inputs = [a for a in command if a in texts]
    name = inputs[-1] if rng.random() < 0.5 else rng.choice(inputs)
    if name in ("hd", "qd"):
        texts[name] = mutate_json(rng, texts[name])
    elif rng.random() < 0.9:
        texts[name] = mutate_text(rng, texts[name])
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for arg in command:
            if arg in texts:
                path = os.path.join(tmp, arg)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(texts[arg])
                arg = path
            elif arg in ("K2", "K3"):
                arg = str(rng.randint(0, int(arg[1])))
            argv.append(arg)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2, 3), (argv, texts, code)
    assert "Traceback" not in err.getvalue(), (argv, texts, err.getvalue())


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**9))
def test_cli_fuzz(seed):
    fuzz_once(seed)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(st.integers(0, 10**9))
def test_cli_fuzz_large(seed):
    fuzz_once(seed)
