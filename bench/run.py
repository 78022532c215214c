"""Whole-pass benchmark of htd: width search, tree post-processing, evaluation.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

One process, one caller, closed loop.  The seed makes the inputs
(``corpus.py``); the program gets only those inputs.  A run is one untimed
warm-up pass over a fixed list of operations, then whole timed passes until
``--seconds`` have gone by and at least ``MIN_OPS`` operations were attempted.
Every output is checked, by ``checks.py``, which shares no code with the
program, and against the outputs of ``reference.py``.  The last line of
standard output is the result, as JSON; the result and, with ``--trace 1``,
the spans are also written under ``.bench_out/``.

Every time is divided by the machine's slowdown, probed between calls
(``speed.py``) and taken as the geometric mean of the probes before and after
the call, so it reads as at the reference speed; the unscaled figures
go to the result file under ``.bench_out/`` only.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, which record a span around every public
call and re-run the layers below it, and reports the per-layer metrics per
traced pass and the tracing overhead against the untraced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import corpus
import speed

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
MIN_OPS = 100  # so that latency_p90_ms has at least ten samples beyond it
SETUP_SAMPLES = (5, 4)  # fresh-process set-ups before and after the passes
K_CAP = 5  # eval's default width cap, as in `htd eval`

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "detect.decompose_no_ms": "ms",
    "detect.decompose_yes_ms": "ms",
    "detect.search_self_ms": "ms",
    "detect.hypertree_width_ms": "ms",
    "detect.gyo_acyclic_ms": "ms",
    "hypertree.normalize_hd_ms": "ms",
    "components.v_components_ms": "ms",
    "hypertree.complete_hd_ms": "ms",
    "evaluate.vertex_tables_ms": "ms",
    "evaluate.vertex_rows": "count",
    "evaluate.reduce_join_ms": "ms",
    "evaluate.eval_boolean_ms": "ms",
    "evaluate.eval_full_ms": "ms",
    "model.parse_database_s": "s",
    "model.parse_query_ms": "ms",
    "hardness.x3c_to_query_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans (id, name, input, start, end, parent, probe) and counts, in
    memory; ``probe`` indexes the speed probe taken before the operation."""

    def __init__(self, spd):
        self.spd = spd
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.probe = 0

    def call(self, name, key, parent, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        sid = len(self.spans)
        self.spans.append((sid, name, key, t0, t1, parent, self.probe))
        return out, sid

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> dict[str, float]:
        """Summed scaled seconds per span name."""
        out: dict[str, float] = {}
        for _, name, _, t0, t1, _, probe in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0) / self.spd.factor(probe)
        return out


@dataclass
class Op:
    """One call into the program, with the check of its output.

    ``check(out)`` returns a problem or None; ``derive(tracer, span, out)``
    re-runs the layers below the call in traced passes."""

    name: str
    key: str
    fn: Callable
    args: tuple
    check: Callable
    derive: Optional[Callable] = None


def _check_tree(atoms, h, max_width):
    if h is None:
        return "no decomposition returned"
    verts = [(v.id, v.parent, v.chi, v.lam) for v in h]
    problems = checks.check_hd(atoms, verts)
    if not problems and checks.hd_width(verts) > max_width:
        problems = [f"width {checks.hd_width(verts)} above {max_width}"]
    return "; ".join(problems[:3]) or None


def _atoms_of(q):
    return [{t.name for t in a.args if t.is_variable} for a in q.body]


def _derive_normalize(htd, q, h, key, tr, parent):
    """normalize_hd re-run on a witness, and v_components(q, chi(p)) per vertex."""
    _, ns = tr.call("hypertree.normalize_hd", key, parent, htd.normalize_hd, q, h)
    for v in h:
        tr.call("components.v_components", key, ns, htd.v_components, q, v.chi)


def build_ops(htd, workload, spec, state, expected: dict) -> list[Op]:
    """The operations of one pass; ``expected`` holds the reference outputs
    and may be filled after the ops are built."""
    ops = []
    if workload == "search_x3c":
        for inst in spec["instances"]:
            key = inst["name"]
            q = state["queries"][key]
            atoms = _atoms_of(q)

            def check_no(out, key=key):
                if out is not None:
                    return "a width-3 decomposition of a reduction query"
                if expected[key]:
                    return "fixpoint_decide finds width 3"
                return None

            def derive_yes(tr, sid, out, q=q, key=key):
                if out is not None:
                    _derive_normalize(htd, q, out, key, tr, sid)

            if inst["refute"]:
                ops.append(Op("detect.decompose_no", key, htd.decompose, (q, 3), check_no))
            ops.append(Op("detect.decompose_yes", key, htd.decompose, (q, 4),
                          lambda out, a=atoms: _check_tree(a, out, 4), derive_yes))
    elif workload == "width_families":
        for e in spec["queries"]:
            key = e["name"]
            q = state["queries"][key]

            def check_width(out, e=e):
                if out is None:
                    return "no width found"
                k, h = out
                if k != e["width"]:
                    return f"width {k}, expected {e['width']}"
                return _check_tree(e["atoms"], h, k)

            def derive_width(tr, sid, out, q=q, key=key):
                _derive_normalize(htd, q, out[1], key, tr, sid)

            ops.append(Op("detect.hypertree_width", key, htd.hypertree_width, (q,),
                          check_width, derive_width))
            if e["gyo"]:
                ops.append(Op("detect.gyo_acyclic", key, htd.gyo_acyclic, (q,),
                              lambda out, a=e["acyclic"]: None if out is a else f"answered {out}"))
    else:
        db = state["db"]
        for e in spec["queries"]:
            key = e["name"]
            q = state["queries"][key]

            def check_bool(out, e=e, key=key):
                count = expected[key][0]
                if out != (count > 0) or e["boolean"] not in (None, out):
                    return f"answered {out}"
                return None

            def check_full(out, key=key):
                count, dig = expected[key]
                if len(out) != count or checks.digest(out) != dig:
                    return f"{len(out)} answers differ from the {count} expected"
                return None

            def derive_eval(tr, sid, out, q=q, key=key):
                found, hs = tr.call("detect.hypertree_width", key, sid,
                                    htd.hypertree_width, q, K_CAP)
                h = found[1]
                _derive_normalize(htd, q, h, key, tr, hs)
                if not htd.is_complete(q, h):  # as eval_* does
                    h, _ = tr.call("hypertree.complete_hd", key, sid, htd.complete_hd, q, h)
                inst, _ = tr.call("evaluate.vertex_tables", key, sid, htd.shrink, q, db, h)
                tr.count("evaluate.vertex_rows", sum(len(r) for r in inst.db.relations.values()))

            ops.append(Op("evaluate.eval_boolean", key, htd.eval_boolean, (q, db),
                          check_bool, derive_eval))
            if e["boolean"] is None:
                ops.append(Op("evaluate.eval_full", key, htd.eval_full, (q, db),
                              check_full, derive_eval))
    return ops


def _spawn(script: str, workload: str, spec_bytes: bytes) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    proc.stdin.write(spec_bytes)
    proc.stdin.close()
    return proc


def setup_samples(workload: str, spec_bytes: bytes, n: int) -> list[tuple]:
    """(seconds from starting a process to its report that set-up is done,
    the slowdown of a fresh process probed just before)."""
    out = []
    for _ in range(n):
        slow = speed.fresh_slowdown(speed.WORKLOAD_TASKS[workload])
        t0 = time.perf_counter()
        proc = _spawn("setup_child.py", workload, spec_bytes)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            sys.exit("bench: set-up process failed")
        out.append((t1 - t0, slow))
    return out


def run_pass(ops, spd, tracer=None):
    """One pass: [(op, seconds or None if it failed, problem, wrong output,
    index of the speed probe before it)]."""
    results = []
    for op in ops:
        probe = spd.probe()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = op.fn(*op.args)
                dt = time.perf_counter() - t0
            else:
                tracer.probe = probe
                out, sid = tracer.call(op.name, op.key, None, op.fn, *op.args)
                dt = tracer.spans[sid][4] - tracer.spans[sid][3]
                if op.derive:
                    op.derive(tracer, sid, out)
        except Exception as exc:  # a call that raises is counted as failed
            results.append((op, None, f"raised {type(exc).__name__}: {exc}"[:200], False, probe))
            continue
        problem = op.check(out)
        results.append((op, None if problem else dt, problem, problem is not None, probe))
    return results


def scaled(passes, spd):
    """Scaled seconds of every operation that succeeded."""
    return [r[1] / spd.factor(r[4]) for res in passes for r in res if r[1] is not None]


def timed_passes(ops, spd, seconds, min_ops):
    """Whole passes until ``seconds`` have gone by and ``min_ops`` were run."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or len(ops) * len(passes) < min_ops:
        gc.collect()
        passes.append(run_pass(ops, spd))
    spd.probe(fresh=True)  # the probe after the last operation
    return passes


def traced_passes(ops, spd, seconds, tracer):
    """Untraced and traced passes in turn, so that both meet the same
    machine; returns both lists of passes."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        plain.append(run_pass(ops, spd))
        gc.collect()
        traced.append(run_pass(ops, spd, tracer))
    spd.probe(fresh=True)
    return plain, traced


def end_to_end(lat, setups, peak_rss_mb) -> dict[str, float]:
    """The end-to-end values from operation and set-up seconds."""
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(tracer, n_passes, setup_totals, overhead_pct):
    """Per-layer metrics per traced pass (set-up calls: per set-up)."""
    tot = tracer.totals()
    spans = tracer.spans

    def below(parents):
        ids = {s[0] for s in spans if s[1] in parents}
        return sum((s[4] - s[3]) / tracer.spd.factor(s[6]) for s in spans if s[5] in ids)

    below_eval = below(("evaluate.eval_boolean", "evaluate.eval_full"))
    normalize_search = below(("detect.decompose_no", "detect.decompose_yes"))

    def ms(*names):
        return 1000 * sum(tot.get(n, 0.0) for n in names) / n_passes

    decompose = ms("detect.decompose_no", "detect.decompose_yes")
    eval_ms = ms("evaluate.eval_boolean", "evaluate.eval_full")
    values = {
        "detect.decompose_no_ms": ms("detect.decompose_no"),
        "detect.decompose_yes_ms": ms("detect.decompose_yes"),
        "detect.search_self_ms": decompose - 1000 * normalize_search / n_passes,
        "detect.hypertree_width_ms": ms("detect.hypertree_width"),
        "detect.gyo_acyclic_ms": ms("detect.gyo_acyclic"),
        "hypertree.normalize_hd_ms": ms("hypertree.normalize_hd"),
        "components.v_components_ms": ms("components.v_components"),
        "hypertree.complete_hd_ms": ms("hypertree.complete_hd"),
        "evaluate.vertex_tables_ms": ms("evaluate.vertex_tables"),
        "evaluate.vertex_rows": tracer.counts.get("evaluate.vertex_rows", 0) // n_passes,
        "evaluate.reduce_join_ms": eval_ms - 1000 * below_eval / n_passes,
        "evaluate.eval_boolean_ms": ms("evaluate.eval_boolean"),
        "evaluate.eval_full_ms": ms("evaluate.eval_full"),
        "model.parse_database_s": setup_totals.get("model.parse_database", 0.0),
        "model.parse_query_ms": 1000 * setup_totals.get("model.parse_query", 0.0),
        "hardness.x3c_to_query_ms": 1000 * setup_totals.get("hardness.x3c_to_query", 0.0),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def traced_setup(htd, workload, spec, spd) -> dict[str, float]:
    """Median over 3 fresh set-ups of the summed scaled seconds per public call."""
    runs = []
    for _ in range(3):
        tr = Tracer(spd)
        tr.probe = spd.probe(fresh=True)
        corpus.setup(htd, workload, spec, lambda name, fn, *a: tr.call(name, "setup", None, fn, *a)[0])
        spd.probe(fresh=True)
        runs.append(tr.totals())
    return {name: statistics.median(r.get(name, 0.0) for r in runs) for name in runs[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    htd = corpus.load_program()
    w = args.workload

    spec = corpus.generate(w, args.seed)
    spec_bytes = json.dumps(spec).encode()
    spd = speed.Speed(speed.WORKLOAD_TASKS[w])
    setups = [] if args.trace else setup_samples(w, spec_bytes, SETUP_SAMPLES[0])
    state = corpus.setup(htd, w, spec)

    # the reference outputs are computed in another process during the
    # warm-up, whose outputs are dropped: every timed pass checks them all
    expected: dict = {}
    ops = build_ops(htd, w, spec, state, expected)
    ref = _spawn("reference.py", w, spec_bytes)
    try:
        for op in ops:
            spd.probe()
            try:
                op.fn(*op.args)
            except Exception:  # counted in every timed pass
                pass
        ref_out = ref.stdout.read()
        ref.wait()
    finally:
        if ref.returncode is None:  # the harness failed first
            ref.kill()
            ref.wait()
        ref.stdout.close()
    if ref.returncode != 0:
        sys.exit("bench: reference process failed")
    expected.update(json.loads(ref_out))

    tracer = Tracer(spd) if args.trace else None
    if tracer is not None:
        plain, traced = traced_passes(ops, spd, args.seconds, tracer)
        overhead = 100 * (sum(scaled(traced, spd)) / sum(scaled(plain, spd)) - 1)
        setup_totals = traced_setup(htd, w, spec, spd)
        metrics = layer_metrics(tracer, len(traced), setup_totals, overhead)
        unscaled = None
        passes = plain + traced
    else:
        passes = timed_passes(ops, spd, args.seconds, MIN_OPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += setup_samples(w, spec_bytes, SETUP_SAMPLES[1])
        lat = scaled(passes, spd)
        if len(lat) < 2:
            sys.exit("bench: fewer than two operations succeeded")
        values = end_to_end(lat, [t / slow for t, slow in setups], peak_rss_mb)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        raw = [r[1] for res in passes for r in res if r[1] is not None]
        unscaled = end_to_end(raw, [t for t, _ in setups], peak_rss_mb)

    failed = [r for res in passes for r in res if r[1] is None]
    for name, key, problem in sorted({(r[0].name, r[0].key, r[2]) for r in failed}):
        print(f"bench: {name} on {key} failed: {problem}", file=sys.stderr)
    result = {
        "correct": not any(r[3] for r in failed),
        "attempted": sum(len(res) for res in passes),
        "failed": len(failed),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{w}-seed{args.seed}-trace{args.trace}"
    probes = {"slowdown_median": statistics.median(spd.probes), "probes": len(spd.probes)}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {**result, "machine": probes, "unscaled": unscaled}, indent=1) + "\n")
    if tracer is not None:
        (OUT_DIR / f"trace-{tag}.json").write_text(json.dumps({
            "fields": ["id", "name", "input", "start", "end", "parent", "probe"],
            "spans": tracer.spans,
            "probes": spd.probes,
            "counts": tracer.counts,
        }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
