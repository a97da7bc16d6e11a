"""Run one benchmark workload and print its metrics as the last line, in JSON.

    python3 perfbench/run.py --workload decode_gop30 --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: it runs every other round traced, reports the difference from the
plain rounds as the tracing overhead, and writes the spans to
.perfbench-out/.  Both print how many operations were attempted and failed;
an operation fails when it raises or its output check fails, and any failure
makes the run incorrect.  A run in which no operation succeeds prints no
result and exits with code 1.

Times are reported at a reference speed of the host (see Reference), because
the shared host's own speed drifts by up to a third over minutes.
"""

import os

# One caller in one process: pin BLAS to one thread before numpy is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# setup_s is the median of at least MIN_SETUPS set-ups that take SETUP_SECONDS
# together: hundreds of the millisecond set-ups, a few of render_frame's.
MIN_SETUPS = 5
SETUP_SECONDS = 1.0
# A run lasts --seconds and at least two whole rounds: a round of render_frame
# (30 frames) outlasts a run, and one round alone times too few frames.
MIN_ROUNDS = 2
# Times are scaled to a host on which one Reference sample takes REF_US, the
# middle of what it takes on the machine of the README's figures.  Each time
# is divided by (r / REF_US) ** s, where r is the median of the REF_SPAN
# reference samples on each side of it and itself, and s is the workload's
# HOST_SENSITIVITY.
REF_US = 500.0
REF_SPAN = 10


class Reference:
    """Fixed work that never calls the program, timed to measure the host's speed.

    The host is shared, and its speed wanders by up to a third over minutes,
    in the interpreter and in numpy alike; every operation's time wanders
    with it.  A sample is a pure-Python loop and numpy arithmetic and a BLAS
    product on preallocated arrays.  It allocates nothing, so it leaves the
    heap, and with it the program's page faults, as it finds it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((77, 1024)).astype(np.float32)
        self.b = rng.standard_normal((1024, 64)).astype(np.float32)
        self.x = np.empty_like(self.a)
        self.y = np.empty((77, 64), np.float32)

    def work(self):
        np.copyto(self.x, self.a)
        for _ in range(4):
            np.multiply(self.x, 0.5, out=self.x)
            np.add(self.x, self.a, out=self.x)
        np.matmul(self.x, self.b, out=self.y)
        s = 0
        for i in range(3000):
            s += i * i % 7
        return s

    def sample_ns(self):
        """The time of one pass, after an untimed pass that brings the arrays back into the caches.

        The warm-up keeps the sample from depending on what the operation
        before it left in the caches, which a change to the program moves.
        """
        self.work()
        t0 = time.perf_counter_ns()
        self.work()
        return time.perf_counter_ns() - t0


def scaled(times, ref_ns, sensitivity):
    """Times (any unit) at the reference speed, each scaled by the reference samples around it."""
    ref = np.pad(np.asarray(ref_ns, dtype=float), REF_SPAN, mode="edge")
    local = np.median(sliding_window_view(ref, 2 * REF_SPAN + 1), axis=1)
    return np.asarray(times, dtype=float) * (REF_US * 1e3 / local) ** sensitivity


class Phase:
    """Timings and failure counts of a set of rounds."""

    def __init__(self, reference):
        self.reference = reference
        self.times_ns = []
        self.ref_ns = []  # one reference sample after each timed operation
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, kind, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    def times_ms(self, sensitivity):
        """Operation times in ms at the reference speed."""
        return scaled(self.times_ns, self.ref_ns, sensitivity) / 1e6


def run_round(workload, k, phase, tracer=None):
    """Run round k of the workload; the time of each operation that passes its check goes into phase."""
    # Each (op, check) is used before the next is drawn: the round's
    # generator makes the following inputs only when it resumes.
    for op, check in workload.round(k):
        phase.attempted += 1
        if tracer is not None:
            op = tracer.item_op(op)
        t0 = time.perf_counter_ns()
        try:
            out = op()
        except Exception as exc:
            phase.fail("raised", exc)
            continue
        elapsed = time.perf_counter_ns() - t0
        try:
            check(out)
        except Exception as exc:
            phase.fail("check", exc)
            continue
        phase.times_ns.append(elapsed)
        phase.ref_ns.append(phase.reference.sample_ns())


def setup(cls, seed):
    """Seconds from a new workload to its first output: making inputs, then one operation."""
    t0 = time.perf_counter()
    w = cls(seed)
    op, _ = next(iter(w.round(0)))
    try:
        op()
    except Exception:  # counted when the measured rounds meet it
        pass
    return time.perf_counter() - t0


def peak_alloc_mib(cls, seed):
    """The most memory one operation allocates beyond what it starts with, in MiB.

    tracemalloc sees Python's and numpy's allocations.  It is on only here,
    after the timed rounds, for the first PEAK_OPS operations of a fresh
    round 0 (all of it when None), so the figure covers the program's own
    buffers and not the benchmark's references, and costs the timings nothing.
    """
    w = cls(seed)
    worst = 0
    tracemalloc.start()
    try:
        for op, _ in itertools.islice(w.round(0), w.PEAK_OPS):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                op()
            except Exception:  # counted when the measured rounds met it
                continue
            worst = max(worst, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return worst / 2 ** 20


def setup_s(cls, seed, reference):
    """The median set-up time at the reference speed."""
    times, ref_ns = [], []
    while len(times) < MIN_SETUPS or sum(times) < SETUP_SECONDS:
        times.append(setup(cls, seed))
        ref_ns.append(reference.sample_ns())
    return float(np.median(scaled(times, ref_ns, cls.HOST_SENSITIVITY)))


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_errors(phases):
    for p in phases:
        for e in p.errors:
            print(e, file=sys.stderr)


def no_result(phases):
    print_errors(phases)
    print("perfbench: no operation succeeded, so there is nothing to time", file=sys.stderr)
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "promptstream").is_dir():
        print(f"perfbench: no promptstream sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    reference = Reference()
    setup_time = setup_s(cls, args.seed, reference)
    w = cls(args.seed)
    deadline = time.perf_counter() + args.seconds
    k = 0
    if args.trace:
        # Odd rounds run traced and even rounds plain, so that both see the
        # same swings of the machine and their difference is the tracing cost.
        plain, traced = Phase(reference), Phase(reference)
        tracer = tracing.Tracer()
        while time.perf_counter() < deadline or k < MIN_ROUNDS:
            if k % 2:
                with tracer.installed():
                    run_round(w, k, traced, tracer)
            else:
                run_round(w, k, plain)
            k += 1
        phases = (plain, traced)
        if not (plain.times_ns and traced.times_ns):
            return no_result(phases)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", workload=args.workload, seed=args.seed)
        metrics = {n: metric(v, u) for n, (v, u) in tracing.layer_metrics(tracer.spans).items()}
        base = plain.times_ms(cls.HOST_SENSITIVITY).mean()
        overhead = traced.times_ms(cls.HOST_SENSITIVITY).mean() - base
        metrics["trace.overhead_ms_per_item"] = metric(overhead, "ms")
        metrics["trace.overhead_share"] = metric(overhead / base, "1")
        metrics["host.ref_us"] = metric(float(np.median(plain.ref_ns + traced.ref_ns)) / 1e3, "us")
        metrics["fit_rel_residual"] = metric(w.metrics().get("fit_rel_residual", 0.0), "1")
    else:
        phase = Phase(reference)
        while time.perf_counter() < deadline or k < MIN_ROUNDS:
            run_round(w, k, phase)
            k += 1
        phases = (phase,)
        if not phase.times_ns:
            return no_result(phases)
        times_ms = phase.times_ms(cls.HOST_SENSITIVITY)
        metrics = {
            "setup_s": metric(setup_time, "s"),
            "items_per_s": metric(1e3 / times_ms.mean(), "item/s"),
            "item_ms_p50": metric(float(np.percentile(times_ms, 50)), "ms"),
            "item_ms_p95": metric(float(np.percentile(times_ms, 95)), "ms"),
            "wire_bits_per_s": metric(w.metrics()["wire_bits_per_s"], "bit/s"),
            "prompt_rmse": metric(w.metrics()["prompt_rmse"], "prompt-units"),
            "peak_alloc_mib": metric(peak_alloc_mib(cls, args.seed), "MiB"),
        }
    print_errors(phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
