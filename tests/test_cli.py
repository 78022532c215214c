import json

import pytest

from htd.cli import run
from conftest import Q1_TEXT, Q2_TEXT, Q5_TEXT, TRIANGLE_TEXT

DB1_TEXT = """\
enrolled(sue,db,spring). enrolled(bob,ai,fall).
teaches(ann,db,mon). teaches(ann,ai,tue).
parent(ann,sue).
"""


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, put


def test_decompose_stdout(files, capsys):
    _, put = files
    q = put("q.txt", Q1_TEXT)
    assert run(["decompose", q, "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["query"].startswith("ans <-")
    assert len(doc["nodes"]) >= 1


def test_decompose_outfile(files, capsys):
    tmp, put = files
    q = put("q.txt", Q1_TEXT)
    out = str(tmp / "hd.json")
    assert run(["decompose", q, "2", "-o", out]) == 0
    assert "width 2" in capsys.readouterr().out
    json.loads((tmp / "hd.json").read_text())


def test_decompose_negative(files, capsys):
    _, put = files
    q = put("q.txt", Q1_TEXT)
    assert run(["decompose", q, "1"]) == 1
    assert "no decomposition" in capsys.readouterr().out


def test_decompose_bad_k(files, capsys):
    _, put = files
    q = put("q.txt", Q1_TEXT)
    assert run(["decompose", q, "0"]) == 2


def test_decompose_missing_file(tmp_path):
    assert run(["decompose", str(tmp_path / "nope.txt"), "2"]) == 2


def test_decompose_syntax_error(files, capsys):
    _, put = files
    q = put("q.txt", "ans <- r(X")
    assert run(["decompose", q, "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_roundtrip(files, capsys):
    tmp, put = files
    q = put("q.txt", Q1_TEXT)
    out = str(tmp / "hd.json")
    run(["decompose", q, "2", "-o", out])
    capsys.readouterr()
    assert run(["check", q, out, "--nf"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_reports_violation(files, capsys):
    tmp, put = files
    q = put("q.txt", Q1_TEXT)
    hd = put(
        "bad.json",
        json.dumps(
            {
                "query": Q1_TEXT,
                "nodes": [
                    {"id": 0, "parent": None, "chi": ["P", "C", "A"], "lambda": [1]},
                    {"id": 1, "parent": 0, "chi": ["S", "C", "R"], "lambda": [0]},
                    {"id": 2, "parent": 0, "chi": ["P", "S"], "lambda": [2]},
                ],
            }
        ),
    )
    assert run(["check", q, hd]) == 1
    out = capsys.readouterr().out
    assert "CONDITION HD2" in out and "vertex" in out


def test_check_incomplete(files, capsys):
    tmp, put = files
    q = put("q.txt", TRIANGLE_TEXT)
    hd = put(
        "part.json",
        json.dumps(
            {
                "query": TRIANGLE_TEXT,
                "nodes": [
                    {"id": 0, "parent": None, "chi": ["X", "Y", "Z"], "lambda": [0, 1]}
                ],
            }
        ),
    )
    assert run(["check", q, hd]) == 0
    capsys.readouterr()
    assert run(["check", q, hd, "--complete"]) == 1
    assert "COMPLETE" in capsys.readouterr().out


def test_check_qd(files, capsys):
    tmp, put = files
    q = put("q.txt", Q1_TEXT)
    d = put(
        "d.json",
        json.dumps(
            {
                "query": Q1_TEXT,
                "nodes": [
                    {"id": 0, "parent": None, "label": [{"atom": 1}, {"atom": 2}]},
                    {"id": 1, "parent": 0, "label": [{"atom": 0}]},
                ],
            }
        ),
    )
    assert run(["check", q, d, "--qd"]) == 0
    assert capsys.readouterr().out == "ok\n"


CHAIN_TEXT = "ans <- r(X,Y), s(Y,Z)."
CHAIN_HD = [
    {"id": 0, "parent": None, "chi": ["X", "Y"], "lambda": [0]},
    {"id": 1, "parent": 0, "chi": ["Y", "Z"], "lambda": [1]},
]
CHAIN_QD = [
    {"id": 0, "parent": None, "label": [{"atom": 0}]},
    {"id": 1, "parent": 0, "label": [{"atom": 1}]},
]


@pytest.mark.parametrize(
    "query, message",
    [
        ("ans <- t(A).", "error: decomposition file is for another query"),
        ("ans(X) <- r(X,Y), s(Y,Z).", "error: decomposition file is for another query"),
        ("ans <- r(X,Y", "bad decomposition file: expected ')'"),
    ],
    ids=["other-body", "other-head", "unparsable"],
)
def test_decomposition_file_for_another_query(files, capsys, query, message):
    _, put = files
    q = put("q.txt", CHAIN_TEXT)
    db = put("db.txt", "r(a,b). s(b,c).")
    hd = put("hd.json", json.dumps({"query": query, "nodes": CHAIN_HD}))
    qd = put("qd.json", json.dumps({"query": query, "nodes": CHAIN_QD}))
    for argv in (
        ["check", q, hd],
        ["check", q, qd, "--qd"],
        ["eval", q, db, "--hd", hd],
    ):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err


def test_decomposition_file_for_the_same_query(files, capsys):
    # the queries are compared parsed, so spacing and comments do not matter
    _, put = files
    q = put("q.txt", CHAIN_TEXT)
    db = put("db.txt", "r(a,b). s(b,c).")
    query = "ans <-  r(X, Y),\n s(Y,Z) . % the chain"
    hd = put("hd.json", json.dumps({"query": query, "nodes": CHAIN_HD}))
    qd = put("qd.json", json.dumps({"query": query, "nodes": CHAIN_QD}))
    assert run(["check", q, hd, "--nf", "--complete"]) == 0
    assert run(["check", q, qd, "--qd"]) == 0
    assert run(["eval", q, db, "--hd", hd]) == 0
    assert capsys.readouterr().out == "ok\nok\ntrue\n"


HD_NODE = {"id": 0, "parent": None, "chi": ["X", "Y", "Z"], "lambda": [0, 1]}
QD_NODE = {"id": 0, "parent": None, "label": [{"atom": 0}, {"atom": 1}]}


@pytest.mark.parametrize(
    "doc, qd",
    [
        ([HD_NODE], False),  # top level is a list
        ([QD_NODE], True),
        ({"query": TRIANGLE_TEXT, "nodes": [HD_NODE, 7]}, False),
        ({"query": TRIANGLE_TEXT, "nodes": [["id", 0]]}, True),
        ({"query": TRIANGLE_TEXT, "nodes": {"0": HD_NODE}}, False),
        ({"query": TRIANGLE_TEXT, "nodes": [dict(HD_NODE, chi="XYZ")]}, False),
        ({"query": TRIANGLE_TEXT, "nodes": [dict(HD_NODE, **{"lambda": "01"})]}, False),
        ({"query": TRIANGLE_TEXT, "nodes": [dict(QD_NODE, label="01")]}, True),
        ({"query": TRIANGLE_TEXT, "nodes": [dict(QD_NODE, label=[0, 1])]}, True),
        ({"query": 5, "nodes": [HD_NODE]}, False),
        ({"query": TRIANGLE_TEXT, "nodes": [dict(HD_NODE, chi=["X", 1])]}, False),
        ({"query": TRIANGLE_TEXT, "nodes": [dict(QD_NODE, label=[{"var": 1}])]}, True),
    ],
)
def test_check_malformed_json(files, capsys, doc, qd):
    _, put = files
    q = put("q.txt", TRIANGLE_TEXT)
    d = put("d.json", json.dumps(doc))
    assert run(["check", q, d] + (["--qd"] if qd else [])) == 2
    assert "bad decomposition file" in capsys.readouterr().err


BIG_NODES = {
    "id": (dict(HD_NODE, id="BIG"), False),
    "parent": (dict(HD_NODE, parent="BIG"), False),
    "lambda": (dict(HD_NODE, **{"lambda": [0, "BIG"]}), False),
    "atom": (dict(QD_NODE, label=[{"atom": 0}, {"atom": "BIG"}]), True),
}


@pytest.mark.parametrize(
    "node, qd, big",
    [
        pytest.param(node, qd, big, id=where if big == "1e400" else f"{where}-{big}")
        for big in ("1e400", "true", "0.5", '"0"')
        for where, (node, qd) in BIG_NODES.items()
    ],
)
def test_check_json_number_overflow(files, capsys, node, qd, big):
    # json reads 1e400 as inf; it, true, 0.5 and "0" are JSON values but not ints
    _, put = files
    q = put("q.txt", TRIANGLE_TEXT)
    text = json.dumps({"query": TRIANGLE_TEXT, "nodes": [node]})
    d = put("d.json", text.replace('"BIG"', big))
    assert run(["check", q, d] + (["--qd"] if qd else [])) == 2
    assert "bad decomposition file" in capsys.readouterr().err
    if not qd:
        db = put("db.txt", "r(a,a). s(a,a). t(a,a).")
        assert run(["eval", q, db, "--hd", d]) == 2
        assert "bad decomposition file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "nodes, message",
    [
        (
            [
                {"id": 0, "parent": None, "label": [{"atom": 0}]},
                {"id": 1, "parent": 2, "label": [{"atom": 1}]},
                {"id": 2, "parent": 1, "label": []},
            ],
            "parent links do not form a tree",
        ),
        (
            [
                {"id": 0, "parent": None, "label": [{"atom": 0}]},
                {"id": 0, "parent": None, "label": [{"atom": 1}]},
            ],
            "duplicate vertex id 0",
        ),
        ([], "expected exactly one root vertex"),
    ],
)
def test_check_qd_bad_tree_shape(files, capsys, nodes, message):
    _, put = files
    q = put("q.txt", "ans <- r(X), s(Y).")
    d = put("d.json", json.dumps({"nodes": nodes}))
    assert run(["check", q, d, "--qd"]) == 2
    assert message in capsys.readouterr().err


def test_width_deep_acyclic_query(files, capsys):
    _, put = files
    path = " , ".join(f"r(X{i},X{i + 1})" for i in range(1100))
    q = put("q.txt", f"ans <- {path}.")
    assert run(["width", q]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["acyclic", q]) == 0
    assert capsys.readouterr().out.strip() == "acyclic"


def test_width(files, capsys):
    _, put = files
    q = put("q.txt", Q5_TEXT)
    assert run(["width", q]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["width", q, "--max", "1"]) == 1


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_width_bound_below_one_is_a_usage_error(files, capsys, bound):
    _, put = files
    q = put("q.txt", Q5_TEXT)
    db = put("db.txt", "a(x,x,x,x,x).")
    for argv in (["width", q, "--max", bound], ["eval", q, db, "--k-cap", bound]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be at least 1" in captured.err


def test_eval_boolean(files, capsys):
    _, put = files
    q = put("q.txt", Q1_TEXT)
    db = put("db.txt", DB1_TEXT)
    assert run(["eval", q, db]) == 0
    assert capsys.readouterr().out.strip() == "true"
    empty = put("empty.txt", "parent(ann,sue).")
    assert run(["eval", q, empty]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_eval_full(files, capsys):
    _, put = files
    q = put(
        "q.txt", "ans(S,C) <- enrolled(S,C,R), teaches(P,C,A), parent(P,S)."
    )
    db = put("db.txt", DB1_TEXT)
    assert run(["eval", q, db, "--brute"]) == 0
    assert capsys.readouterr().out.strip() == "ans(sue,db)."


def test_eval_output_quotes_constants(files, capsys):
    _, put = files
    q = put("q.txt", "ans(X,Y) <- r(X,Y).")
    db = put("db.txt", "r('a b','c,d'). r('X', e).")
    assert run(["eval", q, db]) == 0
    assert capsys.readouterr().out == "ans('X',e).\nans('a b','c,d').\n"


def test_eval_output_repeats_quoted_constants(files, capsys):
    # one constant in several rows and columns is spelled the same each time
    _, put = files
    q = put("q.txt", "ans(X,Y,X) <- r(X,Y), s(Y).")
    db = put(
        "db.txt", "r('a b',c). r('a b','D'). r(e,'a b'). s(c). s('D'). s('a b')."
    )
    assert run(["eval", q, db]) == 0
    assert capsys.readouterr().out == (
        "ans('a b','D','a b').\nans('a b',c,'a b').\nans(e,'a b',e).\n"
    )


def test_eval_with_hd_file(files, capsys):
    tmp, put = files
    q = put("q.txt", Q1_TEXT)
    db = put("db.txt", DB1_TEXT)
    out = str(tmp / "hd.json")
    run(["decompose", q, "2", "-o", out])
    capsys.readouterr()
    assert run(["eval", q, db, "--hd", out, "--brute"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_along_a_nested_hd_file(files, capsys):
    # the triangle's width-2 witness, {A,B} over {A,B,C}, plus a leaf whose
    # chi {A} lies inside its parent's: evaluation contracts both away
    tmp, put = files
    q = put("q.txt", "ans(A,C) <- r(A,B), s(B,C), t(C,A).")
    db = put("db.txt", "r(a,b). r(b,c). r(c,a). s(b,c). s(c,a). s(a,b). t(c,a).")
    out = str(tmp / "hd.json")
    assert run(["decompose", q, "2", "-o", out]) == 0
    doc = json.loads(open(out).read())
    inner = max(doc["nodes"], key=lambda n: len(n["chi"]))
    doc["nodes"].append({"id": 9, "parent": inner["id"], "chi": ["A"], "lambda": [0]})
    nested = put("nested.json", json.dumps(doc))
    capsys.readouterr()
    assert run(["eval", q, db]) == 0
    plain = capsys.readouterr().out
    assert plain
    assert run(["eval", q, db, "--hd", nested, "--brute"]) == 0
    assert capsys.readouterr().out == plain


def test_eval_arity_mismatch_exits_2(files, capsys):
    _, put = files
    db = put("db.txt", "r(a,b,c). s(c).")
    for text in (
        "ans <- r(a,b), s(X).",
        "ans <- r(a,Y), s(X).",
        "ans(X) <- r(a,b), s(X).",
    ):
        q = put("q.txt", text)
        assert run(["eval", q, db]) == 2
        assert "arity" in capsys.readouterr().err
    for text in ("ans <- r(a,Y), s(X).", "ans <- r(a,b), s(X)."):
        q = put("q.txt", text)
        assert run(["oracle", "eval", q, db]) == 2
        assert "arity" in capsys.readouterr().err
    # a ground atom that fails must not hide another atom's arity mismatch
    db = put("db.txt", "r(a,b). s(c,d).")
    q = put("q.txt", "ans <- r(x,y), s(X).")
    for argv in (["eval", q, db], ["eval", q, db, "--brute"], ["oracle", "eval", q, db]):
        assert run(argv) == 2
        assert "arity" in capsys.readouterr().err


def test_eval_k_cap(files, capsys):
    _, put = files
    q = put("q.txt", Q5_TEXT)
    db = put("db.txt", "a(x,x,x,x,x).")
    assert run(["eval", q, db, "--k-cap", "1"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, flags, wrong, message",
    [
        ("ans <- r(X,Y).", [], [], "mismatch: decomposition=True brute=False"),
        (
            "ans(X) <- r(X,Y).",
            ["--boolean"],
            [],
            "mismatch: decomposition=True brute=False",
        ),
        (
            "ans(X) <- r(X,Y).",
            [],
            [("a",), ("b",)],
            "mismatch: decomposition gave 1 rows, brute force gave 2",
        ),
    ],
)
def test_eval_brute_mismatch_exits_3(
    files, capsys, monkeypatch, text, flags, wrong, message
):
    _, put = files
    q = put("q.txt", text)
    db = put("db.txt", "r(a,b).")
    monkeypatch.setattr("htd.oracle.brute_force_eval", lambda q, db: wrong)
    assert run(["eval", q, db, "--brute"] + flags) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_check_nf_reports_nf1(files, capsys):
    # a valid tree whose one child holds two [parent]-components
    _, put = files
    q = put("q.txt", Q2_TEXT)
    nodes = [
        {"id": 0, "parent": None, "chi": ["P", "S"], "lambda": [2]},
        {"id": 1, "parent": 0, "chi": list("ACPRS") + ["C'"], "lambda": [0, 1]},
    ]
    d = put("d.json", json.dumps({"nodes": nodes}))
    assert run(["check", q, d]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert run(["check", q, d, "--nf"]) == 1
    assert capsys.readouterr().out.startswith("CONDITION NF1 vertex 1:")


def test_acyclic(files, capsys):
    _, put = files
    qa = put("qa.txt", Q2_TEXT)
    qc = put("qc.txt", TRIANGLE_TEXT)
    assert run(["acyclic", qa]) == 0
    assert capsys.readouterr().out.strip() == "acyclic"
    assert run(["acyclic", qc]) == 1
    assert capsys.readouterr().out.strip() == "cyclic"


def test_gen_hard_3ps(files, capsys):
    _, put = files
    assert run(["gen-hard", "--3ps", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("base: ")
    assert "partition 0:" in out and "|" in out


def test_gen_hard_3ps_infeasible(capsys):
    assert run(["gen-hard", "--3ps", "0", "1"]) == 2


def test_gen_hard_x3c(files, capsys):
    tmp, put = files
    inst = put("i.txt", "1 1\ng1 g2 g3\ng1 g2 g3\n")
    assert run(["gen-hard", "--x3c", inst, "-o", str(tmp / "gadget")]) == 0
    query_text = (tmp / "gadget.query").read_text()
    assert query_text.startswith("ans <-")
    qd = json.loads((tmp / "gadget.qd.json").read_text())
    assert qd["nodes"]


def test_gen_hard_x3c_negative(files, capsys):
    _, put = files
    inst = put("i.txt", "2 2\ng1 g2 g3 g4 g5 g6\ng1 g2 g3\ng1 g4 g5\n")
    assert run(["gen-hard", "--x3c", inst]) == 1
    err = capsys.readouterr().err
    assert "no exact cover" in err


def test_oracle_qw(files, capsys):
    _, put = files
    q = put("q.txt", TRIANGLE_TEXT)
    assert run(["oracle", "qw", q, "2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["oracle", "qw", q, "1"]) == 1


def test_oracle_eval(files, capsys):
    _, put = files
    q = put("q.txt", Q1_TEXT)
    db = put("db.txt", DB1_TEXT)
    assert run(["oracle", "eval", q, db]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_oracle_eval_deep_path(files, capsys):
    _, put = files
    path = " , ".join(f"r(X{i},X{i + 1})" for i in range(1100))
    q = put("q.txt", f"ans <- {path}.")
    db = put("db.txt", "r(a,a).")
    assert run(["oracle", "eval", q, db]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_oracle_qw_deep_path(files, capsys):
    _, put = files
    path = " , ".join(f"r(X{i},X{i + 1})" for i in range(1100))
    q = put("q.txt", f"ans <- {path}.")
    assert run(["oracle", "qw", q, "1"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_oracle_qw_star(files, capsys):
    # each leaf is its own group under the hub atom: Bell(39) partitions
    _, put = files
    star = " , ".join(f"e(X0,X{i})" for i in range(1, 41))
    q = put("q.txt", f"ans <- {star}.")
    assert run(["oracle", "qw", q, "1"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["decompose"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["--help"]) == 0
