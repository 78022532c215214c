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
    ],
)
def test_check_malformed_json(files, capsys, doc, qd):
    _, put = files
    q = put("q.txt", TRIANGLE_TEXT)
    d = put("d.json", json.dumps(doc))
    assert run(["check", q, d] + (["--qd"] if qd else [])) == 2
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


def test_eval_with_hd_file(files, capsys):
    tmp, put = files
    q = put("q.txt", Q1_TEXT)
    db = put("db.txt", DB1_TEXT)
    out = str(tmp / "hd.json")
    run(["decompose", q, "2", "-o", out])
    capsys.readouterr()
    assert run(["eval", q, db, "--hd", out, "--brute"]) == 0
    assert capsys.readouterr().out.strip() == "true"


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


def test_eval_k_cap(files, capsys):
    _, put = files
    q = put("q.txt", Q5_TEXT)
    db = put("db.txt", "a(x,x,x,x,x).")
    assert run(["eval", q, db, "--k-cap", "1"]) == 3
    assert "error:" in capsys.readouterr().err


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


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["decompose"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["--help"]) == 0
