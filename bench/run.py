"""Benchmark of the stochgee command line, driven in-process.

    python3 bench/run.py --workload {fit,diagnose,optimality,consistency} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src``. The
workload's inputs are made from ``--seed`` and written under
``.bench_out/``. Each round calls ``stochgee.cli.main`` once per
operation with ``--jobs 1``; rounds repeat until ``--seconds`` have
passed. The reference kernel (``kernel.py``) runs before every
operation's block of calls and after the last, and each call's time is
reported as a multiple of the mean of the two kernel times around it.
The first output of every operation is checked against the independent
references in ``reference.py``; every later output of the same operation
must be byte-identical to it.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` the workload's own operations run in alternating untraced
and traced rounds, and the result carries the per-layer metrics of one
traced round plus the tracing overhead. The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before NumPy loads. The package's LAPACK calls are
# on 3x3 matrices; OpenBLAS's default pool wakes a second thread for each
# of them, which doubles CPU time, and on two shared cores makes a call
# several times slower whenever the other core is busy. Pinned, the
# figures measure the program's own work and stay steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh-process imports and input writes per set-up; the median counts
SETUP_REPEATS = 3


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import() -> None:
    """``import stochgee.cli`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import stochgee.cli"],
        cwd=ROOT,
        env=env,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )


def in_kernels(kernel, fn) -> float:
    """Wall time of ``fn()`` over the mean of the kernel times around it."""
    before = kernel.seconds()
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    return seconds / (0.5 * (before + kernel.seconds()))


class Runner:
    """Runs operations through ``stochgee.cli.main`` and checks outputs."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.first_output: dict = {}
        self.errors: list = []

    def run(self, op) -> tuple:
        """(succeeded, wall seconds) of one operation."""
        # start every operation with an empty young generation, as a fresh
        # CLI process would, so collections of earlier garbage do not land
        # in its time
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(list(op.argv))
        except Exception:  # a crashing operation is counted as failed
            traceback.print_exc(file=sys.stderr)
            code = None
        seconds = time.perf_counter() - t0
        if code != 0:
            sys.stderr.write(f"operation {op.name} failed with exit code {code}\n")
            return False, seconds
        self._verify(op)
        return True, seconds

    def _verify(self, op) -> None:
        with open(op.output) as fh:
            text = fh.read()
        first = self.first_output.get(op.name)
        if first is None:
            self.first_output[op.name] = text
            self.errors += self.workload.check(op, text)
        elif text != first:
            self.errors.append(f"{op.name}: output differs from the first run of the same inputs")


def run_round(runner, ops, times: dict, repeat: bool = True, kernel=None) -> tuple:
    """One round: each operation ``op.repeat`` times (once if not
    ``repeat``). Appends each call's wall seconds to ``times[op.name]``,
    or, given a ``kernel``, a pair (wall seconds, kernel seconds around
    the call's block). Returns (attempted, failed, wall seconds)."""
    attempted = failed = 0
    t0 = time.perf_counter()
    k_before = kernel.seconds() if kernel else None
    for op in ops:
        block = []
        for _ in range(op.repeat if repeat else 1):
            ok, dt = runner.run(op)
            block.append(dt)
            attempted += 1
            failed += not ok
        if kernel:
            k_after = kernel.seconds()
            unit = 0.5 * (k_before + k_after)
            block = [(dt, unit) for dt in block]
            k_before = k_after
        times.setdefault(op.name, []).extend(block)
    return attempted, failed, time.perf_counter() - t0


def measure(runner, ops, seconds: float, kernel) -> tuple:
    """Whole rounds of ``ops`` until ``seconds`` have passed; returns the
    per-operation (wall, kernel) second pairs and the number attempted
    and failed."""
    times: dict = {}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        a, f, _ = run_round(runner, ops, times, kernel=kernel)
        attempted, failed = attempted + a, failed + f
        if time.perf_counter() - start >= seconds:
            return times, attempted, failed


def end_to_end_metrics(ops, times, setup_s: float) -> dict:
    """Each operation's median time in reference-kernel units, per
    replication for a study, plus set-up time and peak memory."""
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for op in ops:
        med = statistics.median(dt / unit for dt, unit in times[op.name])
        metrics[op.metric] = {"value": med / max(op.reps, 1), "unit": "kernels"}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    return metrics


def traced_pass(runner, ops, seconds: float, workload: str, seed: int) -> tuple:
    """Alternate untraced and traced rounds of ``ops``; per-layer metrics
    come from the traced rounds, the overhead from their difference."""
    import tracing

    tracer = tracing.Tracer()
    per_round: list = []
    counts: dict = {}
    last_spans: list = []
    untraced, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        a, f, wall = run_round(runner, ops, {})
        untraced.append(wall)
        attempted, failed = attempted + a, failed + f
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            for op in ops:
                for _ in range(op.repeat):
                    with tracer.span(f"op:{op.name}"):
                        ok, _ = runner.run(op)
                    attempted += 1
                    failed += not ok
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        per_round.append(tracing.self_times(tracer.spans))
        counts = dict(tracer.counts)
        last_spans = list(tracer.spans)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for name in tracing.layer_names():
        calls = per_round[-1].get(name, (0, 0.0))[0]
        self_s = statistics.median(r.get(name, (0, 0.0))[1] for r in per_round)
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name in tracing.counter_names():
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    base = statistics.median(untraced)
    overhead = statistics.median(traced) - base
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": overhead / base, "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    tracing.write_spans(spans_path, last_spans)
    print_breakdown(tracing.self_times_by_root(last_spans))
    return metrics, attempted, failed


def print_breakdown(by_root: dict) -> None:
    """Each traced operation's layer self times and shares of its wall time."""
    for root, trees in by_root.items():
        if not root.startswith("op:"):
            continue
        layers = trees[0]
        wall = sum(self_s for _, self_s in layers.values())
        print(f"{root[3:]}: wall {wall:.4f} s")
        for name, (calls, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
            label = "(harness)" if name == root else name
            print(f"  {label:45s} calls {calls:8d}  self {self_s:9.4f} s  {100 * self_s / wall:5.1f} %")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stochgee" / "cli.py").is_file():
        sys.stderr.write(f"error: the stochgee sources are missing under {SRC}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from kernel import KERNEL_NOMINAL_S, ReferenceKernel

    kernel = ReferenceKernel()
    kernel.seconds()  # warm-up, not set-up: the kernel is not the program
    import_k = statistics.median(in_kernels(kernel, fresh_import) for _ in range(SETUP_REPEATS))
    import stochgee.cli as cli

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.Workload(args.workload, args.seed, str(workdir))
        inputs_k = statistics.median(
            in_kernels(kernel, workload.write_inputs) for _ in range(SETUP_REPEATS)
        )
        runner = Runner(workload, cli)
        # the modules and inputs live for the whole run; frozen, they are
        # not rescanned by every collection
        gc.collect()
        gc.freeze()
        ops = workload.own_operations() if args.trace else workload.operations()
        warmup: dict = {}
        run_round(runner, ops, warmup, repeat=False, kernel=kernel)
        # the warm-up's output checks are not set-up work; only the calls count
        warmup_k = sum(dt / unit for samples in warmup.values() for dt, unit in samples)
        setup_s = KERNEL_NOMINAL_S * (import_k + inputs_k + warmup_k)
        if args.trace:
            metrics, attempted, failed = traced_pass(
                runner, ops, args.seconds, args.workload, args.seed
            )
        else:
            times, attempted, failed = measure(runner, ops, args.seconds, kernel)
            for op in ops:
                samples = times[op.name]
                sys.stderr.write(
                    f"{op.name}: {len(samples)} samples, median "
                    f"{statistics.median(dt for dt, _ in samples):.4f} s, kernel "
                    f"{1e3 * statistics.median(unit for _, unit in samples):.2f} ms\n"
                )
            metrics = end_to_end_metrics(ops, times, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in runner.errors:
        sys.stderr.write(f"check failed: {err}\n")
    result = {
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
