"""Benchmark of the ``simplest-cubic`` command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload period-table --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen): period-table,
exact-sweep, verify-oracle, large-n; ``--workload all`` runs the four in
turn, each in its own interpreter.  The program is imported from ``src/``
of the checkout and driven in-process through ``simplest_cubic.cli.main``
with stdout captured, one command at a time (a closed loop with one
client).  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs round 0 of the workload once untraced and once with
per-layer spans (see ``tracer.py``) and prints the per-layer metrics and
the tracing overhead.  Outputs are checked outside the timed region.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``--size tiny`` shrinks every workload for the smoke test.

Times are scaled by a pure-Python reference loop (see ``Runner``): on a
shared host the same work runs up to 1.5x slower from one minute to the
next, and the scaling keeps the run-to-run spread near 5-10 %.
``error_rate`` (failed / attempted) is printed on its own line; it is 0 for
a correct program, so it is not one of the JSON metrics, none of which may
read 0.

Left out on purpose: ``table --jobs 2`` (seven runs over n in [1, 800]
took 4.1-5.4 s, against 7.1-9.3 s at ``--jobs 1``: too wide a spread on two
shared cores), and ``analyze n --format json`` at n ~ 10^10, which on tame
n whose Delta is not square-free enters the O(f) period loop with f ~ 10^16
and does not finish (a program defect, not something to time).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    SIZES, TRIAL_LIMIT, WORKLOADS, Checker, closed_form_display, is_tame, rounds,
)

REFERENCE_NOMINAL_S = 0.002
CALIBRATE_EVERY_S = 0.1
SETUP_REPEATS = {"full": 7, "tiny": 1}
READY = (
    "import simplest_cubic.cli as cli, sys; cli.build_parser(); "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def setup_seconds(repeats: int) -> float:
    """Median time from starting a fresh interpreter until ``simplest_cubic.cli``
    is imported and its parser built.  One unmeasured start warms the
    bytecode cache first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for i in range(repeats + 1):
        before = speed_factor(time.perf_counter)
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            if proc.wait(timeout=60) != 0 or line != "ready\n":
                raise RuntimeError("simplest_cubic.cli failed to import in a fresh interpreter")
        if i:
            times.append(elapsed * (before + speed_factor(time.perf_counter)) / 2)
    return statistics.median(times)


def environment() -> dict:
    import mpmath

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref[5:])), ref)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": commit,
    }


def reference_loop() -> int:
    acc = 0
    for i in range(1, 20000):
        acc = (acc * 31 + i * i) % 1000003
    return acc


def speed_factor(clock=time.process_time) -> float:
    """Nominal over measured time of the reference loop (best of three).

    The factor is below 1 while the host runs slower than nominal; scaling a
    time by it cancels the host's speed swings, which on a shared machine
    reach 1.5x within a minute."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        reference_loop()
        best = min(best, clock() - start)
    return REFERENCE_NOMINAL_S / best


class Runner:
    """Runs ops through ``cli.main`` and keeps per-op latencies and checks.

    An op's latency is the CPU time of this process while ``cli.main`` runs:
    the program runs single-threaded in this process, so that is its wall
    time minus the time the host scheduler hands to other tenants, which on
    a shared host dominates the tail of millisecond commands.  The speed
    reference is sampled between ops at least every ``CALIBRATE_EVERY_S``
    of wall time, and each latency is scaled by the mean factor of the two
    samples that bracket it.  ``wall`` keeps the unscaled wall-clock total.

    Latency statistics are over distinct commands: a command that runs in
    several rounds contributes the median of its runs, so one stall of the
    host cannot become a tail sample on its own.
    """

    def __init__(self, cli, checker: Checker, tracer=None):
        self.cli = cli
        self.checker = checker
        self.tracer = tracer
        self.runs: dict[tuple[str, ...], list[float]] = {}
        self.busy = 0.0
        self.units = 0
        self.failed = 0
        self.wall = 0.0

    def run(self, ops, digest=None) -> None:
        main = self.cli.main
        tracer = self.tracer
        pending: list[tuple[tuple[str, ...], float]] = []
        factor = speed_factor()
        sampled = time.perf_counter()
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            argv = list(op.argv)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.op_begin()
                start, cpu = time.perf_counter(), time.process_time()
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
                except Exception:  # an escaping error is exit 1 for a CLI user
                    rc = 1
                    traceback.print_exc()
                cpu = time.process_time() - cpu
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.op_end(elapsed)
            pending.append((op.argv, cpu))
            self.wall += elapsed
            self.units += op.units
            text = out.getvalue()
            self.failed += self.checker.failures(op, rc, text, err.getvalue())
            if digest is not None:
                digest.update("\0".join(op.argv).encode() + b"\n" + text.encode())
            if time.perf_counter() - sampled >= CALIBRATE_EVERY_S:
                factor = self._settle(pending, factor)
                sampled = time.perf_counter()
        self._settle(pending, factor)

    def _settle(self, pending: list[tuple[tuple[str, ...], float]], before: float) -> float:
        after = speed_factor()
        scale = (before + after) / 2
        for argv, cpu in pending:
            self.runs.setdefault(argv, []).append(cpu * scale)
            self.busy += cpu * scale
        pending.clear()
        return after

    @property
    def latencies(self) -> list[float]:
        return [statistics.median(runs) for runs in self.runs.values()]

    @property
    def throughput(self) -> float:
        return self.units / self.busy

    def tail(self) -> tuple[float, str]:
        """The highest percentile that still has ten samples beyond it (the
        maximum when there are fewer), with its percentile and sample count."""
        lat = sorted(self.latencies)
        k = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
        return lat[k], (f"p{100 * (k + 1) / len(lat):.1f} of {len(lat)} commands, "
                        f"{len(lat) - k - 1} beyond")


def clear_caches(modules) -> None:
    """Empty every ``functools`` cache of the program, as in a fresh CLI process."""
    for mod in modules:
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def input_properties(api, ns) -> dict:
    """Input properties of round 0, read from the (already warm) conductor cache."""
    tame = sorted({n for n in ns if is_tame(n)})
    closed = 0
    nonsquarefree_f = 0
    for n in tame:
        inv = api.conductor(n)
        if closed_form_display(inv):
            closed += 1
        else:
            nonsquarefree_f += inv.conductor
    distinct = sorted(set(ns))
    rho = sum(
        1 for n in distinct
        if sum(e for p, e in api.conductor(n).decomposition.delta_factors.factors
               if p > TRIAL_LIMIT) >= 2
    )
    return {
        "input.squarefree_share": (closed / len(tame) if tame else 0.0, "ratio"),
        "input.nonsquarefree_conductor_sum": (nonsquarefree_f, "count"),
        "input.rho_share": (rho / len(distinct), "ratio"),
    }


def load_program():
    if not (SRC / "simplest_cubic" / "cli.py").is_file():
        raise FileNotFoundError(f"no simplest_cubic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import simplest_cubic
    import simplest_cubic.cli as cli

    if Path(simplest_cubic.__file__).resolve().parent != SRC / "simplest_cubic":
        raise ImportError(f"simplest_cubic was imported from {simplest_cubic.__file__}")
    modules = [m for name, m in sys.modules.items() if name.startswith("simplest_cubic")]
    return simplest_cubic, cli, modules


def untraced(args, api, cli, modules, checker) -> tuple[dict, Runner, str, dict]:
    setup = setup_seconds(SETUP_REPEATS[args.size])
    runner = Runner(cli, checker)
    digest = hashlib.sha256()
    props = {}
    for r, ops in enumerate(rounds(args.workload, args.seed, args.size, api)):
        clear_caches(modules)
        runner.run(ops, digest if r == 0 else None)
        if r == 0:
            props = input_properties(api, [n for op in ops for n in op.ns])
        if runner.busy >= args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail, tail_note = runner.tail()
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_per_s": (runner.throughput, "1/s"),
        "latency_p50_ms": (statistics.median(runner.latencies) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "latency_tail": tail_note,
        "rounds": r + 1,
        "wall_s": round(runner.wall, 3),
        "unscaled_throughput_per_s": runner.units / runner.wall,
        **{k: v for k, (v, _) in props.items()},
    }
    return metrics, runner, digest.hexdigest(), notes


def traced(args, api, cli, modules, checker) -> tuple[dict, Runner, str, dict]:
    """Round 0 untraced, then again from cold caches under the tracer.  The
    untraced pass runs first, so one-time warm-up lands in it."""
    from tracer import TRACED, Tracer

    core = next(rounds(args.workload, args.seed, args.size, api))
    clear_caches(modules)
    plain = Runner(cli, checker)
    plain.run(core)
    props = input_properties(api, [n for op in core for n in op.ns])

    clear_caches(modules)
    cache = api.conductor.cache_info()
    tracer = Tracer()
    tracer.install()
    runner = Runner(cli, checker, tracer)
    digest = hashlib.sha256()
    try:
        runner.run(core, digest)
    finally:
        tracer.uninstall()
    after = api.conductor.cache_info()
    hits, misses = after.hits - cache.hits, after.misses - cache.misses

    metrics = {}
    for span in TRACED:
        metrics[f"{span}.calls"] = (tracer.calls[span], "count")
        metrics[f"{span}.self_s"] = (tracer.self_s[span], "s")
    metrics["cli.self_s"] = (tracer.self_s["cli"], "s")
    metrics["cli.ops"] = (tracer.calls["cli"], "count")
    metrics["invariants.conductor.hit_ratio"] = (hits / max(hits + misses, 1), "ratio")
    metrics["invariants.conductor.misses"] = (misses, "count")
    under = tracer.callers[("invariants.conductor", "arith.factor")]
    metrics["invariants.conductor.factor_calls_per_miss"] = (under / max(misses, 1), "count")
    metrics["gaussian.numeric_periods.terms"] = (tracer.periods_terms, "count")
    metrics["gaussian.numeric_periods.bits_max"] = (tracer.periods_bits_max, "bits")
    metrics["gaussian.numeric_verify.retries"] = (
        tracer.errors[("gaussian.numeric_verify", "PrecisionInsufficientError")], "count")
    metrics.update(props)
    metrics["trace.untraced_throughput_per_s"] = (plain.throughput, "1/s")
    metrics["trace.traced_throughput_per_s"] = (runner.throughput, "1/s")
    metrics["trace.overhead_ratio"] = (plain.throughput / runner.throughput - 1, "ratio")
    notes = {"wall_s": round(runner.wall, 3)}
    runner.failed += plain.failed
    runner.units += plain.units
    return metrics, runner, digest.hexdigest(), notes


def run_one(args) -> int:
    try:
        api, cli, modules = load_program()
        checker = Checker(ROOT)
    except (OSError, ImportError) as exc:
        print(f"error: cannot load the program or its reference data: {exc}", file=sys.stderr)
        return 2
    env = environment()
    measure = traced if args.trace else untraced
    metrics, runner, digest, notes = measure(args, api, cli, modules, checker)

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} size {args.size} {mode}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    print(f"round0_stdout_sha256 {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {runner.failed / runner.units:.6g} ratio "
          f"({runner.failed} of {runner.units} failed)")
    for message in checker.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.units,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
