"""Benchmark for strassen7: exact products through the rank-7 recursion,
and the derive -> verify -> multiply pipeline.

    python3 perfbench/run.py --workload gf-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each workload runs as a closed loop from one caller in this process, on
inputs generated beforehand from ``--seed``, for ``--seconds`` seconds and
at least ``MIN_OPS`` ops.  Every op's output is checked exactly; only the
op is timed, not its check.  Times are scaled to a reference host speed
(see ``hostspeed.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json; with
``--trace 1`` every other cycle of ops runs traced and the metrics are the
per-layer ones, derived from the spans, plus the tracing overhead against
the untraced cycles of the same run.  Results, the environment and (when
traced) the spans are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SRC = ROOT / "src"
if not (SRC / "strassen7").is_dir():
    sys.exit(f"error: no strassen7 sources under {SRC}")
sys.path.insert(0, str(SRC))

from hostspeed import REFERENCE_S, reference_seconds  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100  # so that op_ms_p90 has at least 10 samples beyond it
EXTRA_LOOP_S = 60  # a run that has not reached MIN_OPS stops this much after --seconds
SETUP_SAMPLES = 7  # fresh processes timed per run; setup_s is their median
WINDOW_OPS = 10  # ops_per_s is the median rate over consecutive windows of this many ops

# Exact per-op counts of the seed engine; the self-test fails when they move.
EXPECTED_COUNTS = {"gf-deep": (2401, 12870), "rational-padded": (3136, 5520)}


def run_op(workload, i, tr):
    """Run op ``i``; return (seconds in the op, error text or None).  The
    check and, when traced, the layer probes run after the clock stops."""
    tr.op_id = i
    t0 = time.perf_counter()
    try:
        result = tr.call("op", workload.op, i, tr)
    except Exception as exc:
        return time.perf_counter() - t0, f"op {i}: {exc!r}"
    seconds = time.perf_counter() - t0
    try:
        workload.check(i, result, tr)
    except Exception as exc:
        return seconds, f"op {i}: {exc!r}"
    if tr.enabled:
        workload.probe(i, result, tr)
    return seconds, None


def measure(workload, tr, seconds, traced_run):
    """Closed loop over whole cycles of ops.  Returns, per op, whether it
    was traced and its wall seconds; the reference seconds timed before the
    first op and after each op; and the error texts of failed ops."""
    block = workload.cycle * (2 if traced_run else 1)
    ops = []
    errors = []
    gc.collect()
    refs = [reference_seconds()]
    start = time.perf_counter()
    i = 0
    while True:
        if i % block == 0:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= MIN_OPS) or elapsed >= seconds + EXTRA_LOOP_S:
                return ops, refs, errors
        tr.enabled = traced_run and (i // workload.cycle) % 2 == 1
        op_seconds, error = run_op(workload, i, tr)
        ops.append((tr.enabled, op_seconds))
        refs.append(reference_seconds())
        if error is not None:
            errors.append(error)
        i += 1


def timed_setup(workload: str, seed: int) -> float:
    """Wall seconds from spawning a fresh interpreter until it has imported
    strassen7 and built the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=60)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup process failed (exit {proc.returncode})")
    return elapsed


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def self_test(workdir) -> int:
    """Exact counts repeat on the engine workloads; every workload has
    error_rate 0 on the derived decomposition and 1, without crashing, on
    one with a perturbed scalar."""
    problems = []
    for name, want in EXPECTED_COUNTS.items():
        for seed in (1, 2):
            w = WORKLOADS[name](seed, workdir)
            for i in range(3):
                counter = w.op(i, Tracer())[1]
                if (counter.mults, counter.adds) != want:
                    problems.append(f"{name} seed {seed} op {i}: counts "
                                    f"{counter.mults}/{counter.adds}, want {want[0]}/{want[1]}")
    for name, make in WORKLOADS.items():
        for perturb, want_rate in ((False, 0.0), (True, 1.0)):
            w = make(1, workdir, perturb=perturb)
            outcomes = [run_op(w, i, Tracer())[1] for i in range(2 * w.cycle)]
            rate = sum(e is not None for e in outcomes) / len(outcomes)
            print(f"{name}: perturbed={perturb} error_rate {rate}")
            if rate != want_rate:
                problems.append(f"{name} perturbed={perturb}: error_rate {rate}, want {want_rate}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs, print 'ready' and exit")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, OUT)
        print("ready", flush=True)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.self_test:
            return self_test(workdir)
        setups = [] if args.trace else [
            timed_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)
        ]
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tr = Tracer()
        ops, refs, errors = measure(workload, tr, args.seconds, bool(args.trace))

    attempted = len(ops)
    failed = len(errors)
    # each op is scaled by the mean of the reference timings around it
    op_scale = [2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i in range(attempted)]
    untraced = [s * op_scale[i] for i, (traced, s) in enumerate(ops) if not traced]
    wall = [s for traced, s in ops if not traced]
    if args.trace:
        traced_scale = {i: op_scale[i] for i, (traced, _) in enumerate(ops) if traced}
        values = layer_metrics(tr.spans, traced_scale)
        traced_p50 = statistics.median(ops[i][1] * f for i, f in traced_scale.items())
        values["trace.overhead_pct"] = (traced_p50 / statistics.median(untraced) - 1) * 100
    else:
        values = {
            "op_ms_p50": statistics.median(untraced) * 1e3,
            "op_ms_p90": statistics.quantiles(untraced, n=10)[8] * 1e3,
            "ops_per_s": statistics.median(
                WINDOW_OPS / sum(untraced[k:k + WINDOW_OPS])
                for k in range(0, len(untraced) - WINDOW_OPS + 1, WINDOW_OPS)
            ),
            "success_rate": (attempted - failed) / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")

    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "timed_samples": len(untraced),
        "wall": {
            "op_ms_p50": statistics.median(wall) * 1e3,
            "op_ms_p90": statistics.quantiles(wall, n=10)[8] * 1e3,
            "reference_ms_p50": statistics.median(refs) * 1e3,
        },
        "errors": errors[:20],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tr.spans) + "\n")

    for error in errors[:5]:
        print(f"failed: {error}", file=sys.stderr)
    print("env " + json.dumps(env))
    for name in units:
        print(f"{name:<40} {values[name]:>14.6g} {units[name]}")
    print(f"timed samples {len(untraced)}, attempted {attempted}, failed {failed}, "
          f"error_rate {failed / attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
