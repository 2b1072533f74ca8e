"""Outside-in benchmark of specshift: one process, one closed-loop client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload transform --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see README.md).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

specshift is imported from ``src/`` of the checkout this file sits in; the
run stops with exit status 2 if that source tree is missing.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

# Set-up is measured this many times per run, each in a fresh process.
SETUP_REPEATS = 5


def _import_specshift() -> None:
    if not (SRC / "specshift" / "__init__.py").is_file():
        print(f"specshift source tree not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import specshift

    if Path(specshift.__file__).resolve().parent != SRC / "specshift":
        print(f"imported specshift from {specshift.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment(workload: str, seed: int, ops: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "ops": ops,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


class Client:
    """Closed-loop client: the next op starts when the previous one ends."""

    def __init__(self, workload, seed: int):
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.reference = workloads.load_reference(workload)
        self.runner = workload.runner(RUN_DIR / f"{workload.name}-{os.getpid()}")
        self.problems: list[str] = []

    def op(self, slot, index) -> tuple[float, bool]:
        """Run one op; return its latency and whether it was correct."""
        inputs = self.runner.prepare(slot, index)
        start = time.perf_counter()
        try:
            result = self.runner.run(inputs)
        except Exception as exc:  # an op that raises is a failed op
            latency = time.perf_counter() - start
            self.problems.append(f"{slot}/{index}: {type(exc).__name__}: {exc}")
            return latency, False
        latency = time.perf_counter() - start
        found = self.runner.problems(result)
        key = self.workloads.op_key(slot, index)
        mismatch = self.workloads.fingerprint_mismatch(
            self.runner.rows(index, result), self.reference.get(key)
        )
        if mismatch:
            found.append(f"work fingerprint: {mismatch}")
        self.problems.extend(f"{key}: {p}" for p in found)
        return latency, not found

    def warm_up(self) -> bool:
        return self.op(*self.workload.warmup_op())[1]

    def run_for(self, seconds: float, tracer=None):
        """Run whole rotations of ops until ``seconds`` have passed.

        Returns per-op latencies, the failure count and the wall time.  With
        a ``tracer``, every op runs twice, untraced and then traced, and the
        latencies are ``(untraced, traced)`` pairs: interleaving keeps the
        drift of a shared CPU out of the tracing overhead."""
        latencies, failed = [], 0
        rotation = len(self.workload.rotation)
        start = time.perf_counter()
        for i, (slot, index) in enumerate(self.workload.schedule(self.seed)):
            latency, ok = self.op(slot, index)
            failed += not ok
            if tracer is not None:
                tracer.op = i
                tracer.install()
                try:
                    traced, ok = self.op(slot, index)
                finally:
                    tracer.uninstall()
                failed += not ok
                latency = (latency, traced)
            latencies.append(latency)
            if (i + 1) % rotation == 0 and time.perf_counter() - start >= seconds:
                break
        return latencies, failed, time.perf_counter() - start

    def close(self):
        self.runner.close()


def _probe_setup(args) -> float:
    """Wall time from starting a fresh process to the end of its warm-up op."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def _quantile(latencies: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile.

    It weights every order statistic by a beta density centred on ``pct``
    instead of interpolating between the two nearest ones.  A resolvent run
    has only five or six ops in its slowest third, and there the two-point
    estimate moves with whichever single op was slowest."""
    import numpy as np
    from scipy.stats import beta

    x = np.sort(latencies)
    n, p = len(x), pct / 100.0
    edges = beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1.0 - p) * (n + 1))
    return float(np.diff(edges) @ x)


def _tail(latencies: list[float], pct: float) -> tuple[float, int]:
    value = _quantile(latencies, pct)
    return value, sum(x > value for x in latencies)


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _report_problems(problems: list[str]) -> None:
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failures", file=sys.stderr)


def run_end_to_end(args, workload) -> int:
    setups = [_probe_setup(args) for _ in range(SETUP_REPEATS)]
    client = Client(workload, args.seed)
    try:
        warm_ok = client.warm_up()
        latencies, failed, wall = client.run_for(args.seconds)
    finally:
        client.close()
    # Read before the percentiles import scipy.stats, which the program never loads.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(latencies)
    tail, beyond = _tail(latencies, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_ms": (1e3 * _quantile(latencies, 50.0), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(json.dumps({"environment": _environment(workload.name, args.seed, n)}))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:10s} {name:12s} {value:12.4f} {unit}")
    print(
        f"{workload.name:10s} {'fail_ratio':12s} {failed / n:12.4f} ratio"
        f"   (op_p50_ms and op_tail_ms are Harrell-Davis p50 and p{workload.tail_pct:g}"
        f" of {n} ops, {beyond} beyond the tail;"
        f" setup_s is the median of {SETUP_REPEATS} fresh processes)"
    )
    _report_problems(client.problems)
    print(_result(warm_ok and failed == 0, n, failed, metrics))
    return 0


def run_traced(args, workload) -> int:
    import stages
    import tracing

    client = Client(workload, args.seed)
    tracer = tracing.Tracer()
    try:
        warm_ok = client.warm_up()
        pairs, failed, _ = client.run_for(args.seconds / 2, tracer=tracer)
        stage_ms = stages.stage_timings(args.seed)
    finally:
        client.close()
    n = len(pairs)
    RUN_DIR.mkdir(exist_ok=True)
    trace_file = RUN_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    metrics = tracer.layer_metrics()
    metrics.update({name: (value, "ms") for name, value in stage_ms.items()})
    plain_s, traced_s = (sum(side) for side in zip(*pairs))
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    metrics["bench.fail_ratio"] = (failed / (2 * n), "ratio")
    print(json.dumps({"environment": _environment(workload.name, args.seed, 2 * n)}))
    print(f"{workload.name}: {n} ops, each run untraced and then traced; spans in {trace_file}")
    self_times = sorted(
        ((v, k) for k, (v, _) in metrics.items() if k.endswith(".self_s") and v > 0),
        reverse=True,
    )
    for value, name in self_times:
        print(f"{name:58s} {value:14.6g} s")
    for name, (value, unit) in metrics.items():
        if not name.endswith(("_s", ".calls")):
            print(f"{name:58s} {value:14.6g} {unit}")
    _report_problems(client.problems)
    print(_result(warm_ok and failed == 0, 2 * n, failed, metrics))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print all their metrics."""
    import workloads

    merged, correct, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, entry in result["metrics"].items():
            merged[f"{name}.{key}"] = (entry["value"], entry["unit"])
    print(_result(correct, attempted, failed, merged))
    return 0


def probe(args, workload) -> int:
    client = Client(workload, args.seed)
    try:
        ok = client.warm_up()
    finally:
        client.close()
    if not ok:
        _report_problems(client.problems)
        return 1
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_specshift()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.probe:
        return probe(args, workload)
    if args.trace:
        return run_traced(args, workload)
    return run_end_to_end(args, workload)


if __name__ == "__main__":
    sys.exit(main())
