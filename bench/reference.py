"""Expected outputs of a workload, computed in a process of their own so that
their memory does not count in the harness's ``peak_rss_mb``.

Reads a workload spec (JSON) on standard input and writes one JSON object:

* search_x3c: per input refuted at k=3, ``fixpoint_decide(q, 3)``, the program's independent
  bottom-up engine, to cross-check each k=3 refutation;
* eval_joins: per query, the answer count and digest from ``checks.evaluate``
  on the relations that ``checks.parse_facts`` reads from the fact text.

    python3 bench/reference.py WORKLOAD < spec.json
"""

import json
import sys

import checks
import corpus


def expected(workload: str, spec: dict) -> dict:
    if workload == "search_x3c":
        htd = corpus.load_program()
        q0 = htd.x3c_to_query(htd.parse_x3c(spec["x3c"]))
        return {
            inst["name"]: htd.fixpoint_decide(corpus.x3c_query(htd, inst, q0), 3)
            for inst in spec["instances"]
            if inst["refute"]
        }
    if workload == "eval_joins":
        relations = checks.parse_facts(spec["facts"])
        out = {}
        for e in spec["queries"]:
            rows = checks.evaluate(e["head"], e["body"], relations)
            out[e["name"]] = [len(rows), checks.digest(rows)]
        return out
    return {}


def main() -> None:
    workload = sys.argv[1]
    spec = json.loads(sys.stdin.read())
    json.dump(expected(workload, spec), sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
