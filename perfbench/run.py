"""flowcast benchmark: seeded inputs, closed-loop invocations, output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale small]

The program is imported from the src directory beside perfbench/; without
one the command exits 2 and prints no result. Generates the workload's
input from --seed, times the import of flowcast.cli in fresh interpreters,
runs the invocation over and over in one worker process for --seconds,
checks every output against the benchmark's own computations and prints
one JSON object as the last line of stdout. --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones from a separate traced run. --scale
small shrinks the input to a week, so every check runs in seconds. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from checks import CheckFailed, innovation_acf1, verify
from inputs import BIN_SECONDS, Op, make_inputs

WORKLOADS = ("year-counts-run", "year-series-evaluate")
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 140
PROBE = (
    "import time; t = time.perf_counter(); import flowcast.cli; "
    "print(time.perf_counter() - t); print(flowcast.cli.__file__)"
)


def _child_env(src: Path) -> dict:
    # The load is one thread: keep numpy's BLAS from starting a pool.
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def setup_seconds(src: Path, env: dict) -> float:
    """Median time for a fresh interpreter to import flowcast.cli.

    The first probe is a warm-up and is not counted.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=src, capture_output=True,
                              text=True, timeout=60, check=True)
        seconds, module_file = done.stdout.split("\n")[:2]
        if not Path(module_file).resolve().is_relative_to(src):
            raise RuntimeError(f"flowcast.cli imported from {module_file}, not from {src}")
        samples.append(float(seconds))
    return statistics.median(samples[1:])


def run_worker(plan: dict, work: Path, env: dict) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    log_path = work / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path), str(result_path)],
            env=env, cwd=work, stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S,
        )
    if done.returncode != 0:
        sys.stderr.write(log_path.read_text(encoding="utf-8")[-4000:])
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check(op: Op, out_dir: Path, code: int, errors: list[str]):
    """The verified outputs of one invocation, or None if it failed or was wrong."""
    outputs = None
    if code == 0:
        try:
            outputs = verify(out_dir / op.name, op.start, BIN_SECONDS, op.pcu)
        except CheckFailed as exc:
            errors.append(str(exc))
    shutil.rmtree(out_dir, ignore_errors=True)
    return outputs


def end_to_end(op: Op, result: dict, setup_s: float, out: Path, errors: list[str]) -> dict:
    throughput = []
    outputs = None
    for k, timed in enumerate(result["rounds"]):
        verified = check(op, out / f"r{k}", timed["code"], errors)
        throughput.append(len(op.pcu) / timed["seconds"] if verified else 0.0)
        outputs = outputs or verified
    report_reference(outputs)
    print(f"bins_per_s is the median of {len(throughput)} rounds")
    return {
        "setup_s": (setup_s, "s"),
        "bins_per_s": (statistics.median(throughput), "bins/s"),
        "peak_rss_mb": (result["peak_rss_kb"] * 1024 / 1e6, "MB"),
        "output_bytes_per_bin": (outputs.output_bytes / outputs.bins if outputs else float("nan"), "bytes/bin"),
        "forecast_mape_pct": (
            100.0 * outputs.abs_pct_error_sum / outputs.scored if outputs else float("nan"), "%",
        ),
    }


def per_layer(op: Op, result: dict, out: Path, errors: list[str]) -> dict:
    rounds = result["rounds"]
    per_round = []
    overheads = []
    for k, paired in enumerate(rounds):
        check(op, out / f"r{k}" / "cli", paired["cli"]["code"], errors)
        traced = check(op, out / f"r{k}" / "traced", paired["traced"]["code"], errors)
        values = {f"{layer}_s": seconds for layer, seconds in paired["layers"].items()}
        values["io.trace_bytes"] = traced.trace_bytes if traced else float("nan")
        values["plots.svg_bytes"] = traced.svg_bytes if traced else float("nan")
        values["kalman.innovation_acf1_abs"] = abs(innovation_acf1(traced.innovations)) if traced else float("nan")
        per_round.append(values)
        overheads.append(paired["traced"]["seconds"] - paired["cli"]["seconds"])
        if k == 0:
            report_reference(traced)
    # The tracer's own cost is its spans times the measured cost of one.
    # The gap between traced and untraced calls, a mean over pairs of rounds
    # in which each call goes first once, also carries the machine's drift.
    plain = statistics.fmean(r["cli"]["seconds"] for r in rounds)
    spans = statistics.fmean(r["spans"] for r in rounds)
    cost = spans * result["span_cost_s"]
    gap = statistics.fmean(overheads)
    print(f"tracing overhead: {cost:.3e} s per call, {100 * cost / plain:.5f}% of {plain:.4f} s untraced "
          f"({spans:g} spans at {1e6 * result['span_cost_s']:.2f} us); traced minus untraced calls: "
          f"{gap:+.4f} s ({100 * gap / plain:+.2f}%, mean of {len(rounds)} rounds)")
    units = {"io.trace_bytes": "bytes", "plots.svg_bytes": "bytes", "kalman.innovation_acf1_abs": "ratio"}
    return {name: (statistics.median_low(r[name] for r in per_round), units.get(name, "s")) for name in per_round[0]}


def report_reference(outputs) -> None:
    if outputs:
        print(f"estimated q {outputs.q!r}, r {outputs.r!r}, final gain {outputs.final_gain!r}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "flowcast" / "cli.py").is_file():
        print(f"perfbench: no flowcast sources at {src}", file=sys.stderr)
        return 2

    work = Path(__file__).resolve().parent / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = Path(__file__).resolve().parent / "results"
    try:
        env = _child_env(src)
        setup_s = None if args.trace else setup_seconds(src, env)
        op = make_inputs(args.workload, args.seed, args.scale == "small", work / "inputs")
        results.mkdir(exist_ok=True)
        plan = {
            "src": str(src),
            "mode": "trace" if args.trace else "timed",
            "seconds": args.seconds,
            "out": str(work / "out"),
            "spans": str(results / f"spans-{args.workload}-seed{args.seed}.jsonl"),
            "op": {"name": op.name, "command": op.command, "input": str(op.input_path)},
        }
        result = run_worker(plan, work, env)
        errors: list[str] = []
        rounds = result["rounds"]
        if args.trace:
            metrics = per_layer(op, result, work / "out", errors)
            codes = [r[name]["code"] for r in rounds for name in ("cli", "traced")]
        else:
            metrics = end_to_end(op, result, setup_s, work / "out", errors)
            codes = [r["code"] for r in rounds]
        attempted, failed = len(codes), sum(1 for c in codes if c != 0)
        if failed:
            sys.stderr.write((work / "worker.log").read_text(encoding="utf-8")[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in errors[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} invocations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
