"""One benchmark process: set up, then run the timed or the traced phase.

``run.py`` starts this file in a fresh interpreter with the BLAS thread count
pinned, so imports are part of the measured set-up. The result goes to the
JSON file named by ``--result``; standard output is left to the package.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
HD_GRID = 200  # integration points per sample for the Harrell-Davis weights
DEADLINE_MARGIN_S = 60.0  # never start a pass that would end this long after --seconds


def hd_percentile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a mean of all order
    statistics, weighted by the Beta((n+1)q, (n+1)(1-q)) law of the q-th
    sample quantile. A single order statistic jumps when the percentile
    falls between the samples of two operations, or between the machine's
    fast and slow moments; this weighted mean moves smoothly."""
    import numpy as np

    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    u = (np.arange(HD_GRID * n) + 0.5) / (HD_GRID * n)
    log_density = (a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)
    cdf = np.cumsum(np.exp(log_density - log_density.max()))
    weights = np.diff(cdf[HD_GRID - 1 :: HD_GRID], prepend=0.0) / cdf[-1]
    return float(weights @ x)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above it."""
    ok = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= MIN_BEYOND]
    return ok[-1] if ok else TAIL_LADDER[0]


def run_passes(wl, ops, seconds, min_passes, deadline, step):
    """Closed loop over whole passes of ``ops``: at least ``min_passes``, and
    then another pass only while it is projected to end no more than half a
    pass after ``seconds`` of pipeline time, so the phase ends as near
    ``seconds`` as whole passes allow. A pass projected to end after
    ``deadline`` seconds is never started. ``step(op)`` runs one operation;
    checks run between passes, outside the clock.

    Returns (latencies, wall, passes, failed operations, failure messages,
    outcomes of every pass).
    """
    from workloads import Outcome

    latencies: list[float] = []
    messages: list[str] = []
    outcomes: list[list] = []
    failed = 0
    wall = 0.0
    passes = 0
    while passes == 0 or (
        (passes < min_passes or wall + 0.5 * wall / passes <= seconds) and wall + wall / passes <= deadline
    ):
        got = []
        t_pass = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                out = step(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = Outcome(error=f"raised {exc!r}")
            latencies.append(time.perf_counter() - t)
            got.append(out)
        wall += time.perf_counter() - t_pass
        passes += 1
        for op, out in zip(ops, got):
            errs = [out.error] if out.error else []
            if not errs:
                try:
                    errs = wl.check(op, out)
                except Exception as exc:
                    errs = [f"check raised {exc!r}"]
            failed += bool(errs)
            messages.extend(f"pass {passes} op {op.id} ({op.key}): {e}" for e in errs)
        outcomes.append(got)
    return latencies, wall, passes, failed, messages, outcomes


def kernel_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python and BLAS kernel: a reading of the
    machine's speed at that moment, kept with the result to tell a slow
    machine from a slow program."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((300, 300))
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        a @ a
        times.append(time.perf_counter() - t)
    return float(np.median(times)) * 1e3


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    t0 = args.t0

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports numpy and the package

    wl = workloads.WORKLOADS[args.workload]
    with open(args.reference, encoding="utf-8") as fh:
        ref = json.load(fh)
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        ops = wl.make_ops(ref, args.seed, args.size, workdir)
        wl.warmup(workdir)
        setup_s = time.monotonic() - t0
        result: dict = {"workload": wl.name, "seed": args.seed, "size": args.size, "setup_s": setup_s}
        if not args.setup_only:
            result.update(environment=environment(), ops_per_pass=len(ops))
            min_passes = wl.min_passes if args.size == "full" else 1
            deadline = args.seconds + DEADLINE_MARGIN_S
            before = kernel_ms()
            if args.trace:
                result.update(traced_phase(wl, ops, min_passes, args.spans))
            else:
                result.update(timed_phase(wl, ops, args.seconds, min_passes, deadline))
            result["machine_kernel_ms"] = [before, kernel_ms()]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def timed_phase(wl, ops, seconds, min_passes, deadline) -> dict:
    import numpy as np

    lat, wall, passes, failed, messages, _ = run_passes(wl, ops, seconds, min_passes, deadline, wl.run)
    attempted = len(lat)
    ms = np.array(lat) * 1e3
    p_tail = tail_percentile(min_passes * len(ops))
    tail = hd_percentile(ms, p_tail)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:50],
        "passes": passes,
        "timed_wall_s": wall,
        "ops_per_s": (attempted - failed) / wall,
        "op_ms_p50": hd_percentile(ms, 50.0),
        "op_ms_tail": tail,
        "tail_percentile": p_tail,
        "tail_samples_beyond": int(np.sum(ms > tail)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_by_key": {op.key: ms[i :: len(ops)].tolist() for i, op in enumerate(ops)},
    }


def traced_phase(wl, ops, passes, spans_path) -> dict:
    """The workload's minimum number of passes untraced, then the same
    passes traced. The count is fixed, not timed, so summed seconds and
    counts compare between runs on machines of any speed. The traced run
    must reproduce every untraced status and value exactly. Allocation peaks
    come from memory probes in the first traced pass; tracemalloc never runs
    during a timed call."""
    import layers
    import workloads
    from spans import Tracer, coverage

    _, wall_u, _, failed_u, msg_u, base = run_passes(wl, ops, 0.0, passes, float("inf"), wl.run)
    tracer = Tracer(before_probe=workloads.cold_transforms if wl.cold_probes else None)

    def traced_step(op):
        with tracer.op(op.id) as root:
            root.attrs["key"] = op.key
            out = wl.traced(op, tracer)
        if op is ops[-1]:
            tracer.measure_alloc = False
        return out

    _, _, _, failed_t, msg_t, traced = run_passes(wl, ops, 0.0, passes, float("inf"), traced_step)
    mismatch = [
        f"op {op.id} ({op.key}): traced {t.status} {t.value!r} != untraced {u.status} {u.value!r}"
        for rows_u, rows_t in zip(base, traced)
        for op, u, t in zip(ops, rows_u, rows_t)
        if (u.status, u.value) != (t.status, t.value)
    ]
    metrics = layers.per_layer(tracer.spans)
    _, wall_t = coverage(tracer.spans)
    metrics["trace.overhead_ratio"] = wall_t / wall_u
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
    return {
        "attempted": 2 * passes * len(ops),
        "failed": failed_u + failed_t + len(mismatch),
        "failures": (msg_u + msg_t + mismatch)[:50],
        "passes": passes,
        "untraced_wall_s": wall_u,
        "traced_wall_s": wall_t,
        "per_layer": metrics,
        "shares": layers.shares(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
