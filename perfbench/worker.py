"""The load process: runs a workload's invocation over and over.

    PYTHONPATH=<checkout>/src python3 worker.py PLAN_JSON RESULT_JSON

One process, one thread, a closed loop with one client: each invocation
starts when the previous one ends. Rounds repeat until the plan's seconds
have been spent, so every run attempts whole rounds.

mode "timed": a round is one flowcast.cli.cli_main call.
mode "trace": a round is the invocation twice, as a plain cli_main call
and as a traced one, and rounds come in pairs. For the traced call the library functions
flowcast.cli calls are swapped, in this process only, for wrappers that
record a span around each call. Spans stay in memory and are written to
the plan's spans file at the end.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import flowcast.cli

# The names flowcast.cli calls each layer by, and their span names.
LAYER_CALLS = {
    "read_counts_csv": "io.read_counts",
    "read_series_csv": "io.read_series",
    "aggregate": "series.aggregate",
    "estimate_noise": "kalman.estimate_noise",
    "filter_series": "kalman.filter",
    "build_report": "metrics.build_report",
    "write_report": "io.write_outputs",
    "render_plots": "plots.render",
}
PASSES = ("cli", "traced")


class Tracer:
    """Spans as (op id, span id, parent span id, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = ""
        self._parent = None
        # A name flowcast.cli no longer has raises here: the run stops
        # rather than charging that layer's time to the CLI.
        self._originals = {name: getattr(flowcast.cli, name) for name in LAYER_CALLS}
        self._wrappers = {name: self._wrap(fn, LAYER_CALLS[name]) for name, fn in self._originals.items()}

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._parent = parent
            self.spans[span_id] = (self.op_id, span_id, parent, name, start, end)

    def _wrap(self, fn, span_name: str):
        def traced(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        for name, fn in self._wrappers.items():
            setattr(flowcast.cli, name, fn)
        try:
            yield
        finally:
            for name, fn in self._originals.items():
                setattr(flowcast.cli, name, fn)


def invoke_cli(op: dict, out_root: Path) -> int:
    """One cli_main call, returning its exit code."""
    argv = [op["command"], op["input"], "--out-dir", str(out_root / op["name"])]
    try:
        return flowcast.cli.cli_main(argv)
    except Exception:  # a crash counts as one failed invocation; the run goes on
        traceback.print_exc()
        return -1


def timed_round(op: dict, out_root: Path) -> dict:
    start = time.perf_counter()
    code = invoke_cli(op, out_root)
    return {"seconds": time.perf_counter() - start, "code": code}


def traced_round(op: dict, out_root: Path, tracer: Tracer, round_index: int) -> dict:
    """The invocation plain and traced, back to back; the order alternates per round."""
    passes = {}
    for j in range(len(PASSES)):
        name = PASSES[(round_index + j) % len(PASSES)]
        start = time.perf_counter()
        if name == "traced":
            tracer.op_id = f"{out_root.name}/{op['name']}"
            with tracer.installed(), tracer.span("op"):
                code = invoke_cli(op, out_root / name)
        else:
            code = invoke_cli(op, out_root / name)
        passes[name] = {"seconds": time.perf_counter() - start, "code": code}
    return passes


def span_cost(tracer: Tracer, calls: int = 20000) -> float:
    """Seconds one span adds to a call: a no-op timed bare and wrapped."""
    def noop():
        return None

    wrapped = tracer._wrap(noop, "noop")
    first = len(tracer.spans)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    del tracer.spans[first:]
    return (traced - bare) / calls


def layer_seconds(spans: list[tuple]) -> dict:
    """Summed span time per layer, and the CLI's self time around them."""
    totals = dict.fromkeys(LAYER_CALLS.values(), 0.0)
    ops = 0.0
    for _op, _id, _parent, name, start, end in spans:
        if name == "op":
            ops += end - start
        else:
            totals[name] += end - start
    totals["cli.self"] = ops - sum(totals.values())
    return totals


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    if not Path(flowcast.cli.__file__).resolve().is_relative_to(src):
        print(f"flowcast was imported from {flowcast.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    op = plan["op"]
    timed = plan["mode"] == "timed"
    tracer = Tracer()
    rounds = []
    elapsed = 0.0
    # Traced rounds come in pairs, so that each of the two calls goes first
    # equally often.
    while not rounds or elapsed < plan["seconds"] or (not timed and len(rounds) % 2):
        gc.collect()
        out = Path(plan["out"]) / f"r{len(rounds)}"
        if timed:
            result = timed_round(op, out)
            elapsed += result["seconds"]
        else:
            first = len(tracer.spans)
            result = traced_round(op, out, tracer, len(rounds))
            result["layers"] = layer_seconds(tracer.spans[first:])
            result["spans"] = len(tracer.spans) - first
            elapsed += sum(result[name]["seconds"] for name in PASSES)
        rounds.append(result)

    summary = {"rounds": rounds, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if not timed:
        summary["span_cost_s"] = span_cost(tracer)
        fields = ("op", "id", "parent", "name", "start", "end")
        with open(plan["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
    Path(result_path).write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
