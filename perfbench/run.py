"""Benchmark entry point.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/``, nothing is installed. Each run starts fresh worker processes with
the BLAS thread count pinned to 1: one that sets up and measures, and
around it a few that only set up, some before and some after, so that the
median set-up time spans the whole run. With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object; a full result file goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from worker import hd_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("solve-large", "certify-small", "reduce-lift")
SETUP_PROBES = 6  # set-up-only workers, half before and half after the measuring one
WORKER_TIMEOUT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith(("coverage", "ratio", "per_row")):
        return "ratio"
    return "count"


def worker(args: argparse.Namespace, workdir: str, result: str, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--reference", args.reference,
        "--workdir", workdir, "--result", result,
    ] + extra
    env = dict(os.environ, **PINNED_ENV)
    timeout = max(1.0, deadline - time.monotonic())
    # the package writes nothing to stdout when given --out, but keep this
    # process's stdout for the result line alone
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="delsarte benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: a few operations, for tests")
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = p.parse_args(argv)
    start = time.monotonic()
    deadline = start + WORKER_TIMEOUT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "delsarte", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        def setup_probes(indices: range) -> list[float]:
            return [worker(args, tmp, os.path.join(tmp, f"setup{i}.json"), ["--setup-only"], deadline)["setup_s"]
                    for i in indices]

        probes = 0 if args.trace else SETUP_PROBES
        setups = setup_probes(range(probes // 2))
        extra = ["--spans", os.path.join(OUT, f"spans-{tag}.json")] if args.trace else []
        res = worker(args, tmp, os.path.join(tmp, "main.json"), extra, deadline)
        setups += [res["setup_s"]] + setup_probes(range(probes // 2, probes))
    res["setup_samples_s"] = setups
    res["setup_s"] = hd_percentile(setups, 50.0)
    res["run_wall_s"] = time.monotonic() - start

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['attempted']} operations in {res['passes']} passes, {res['failed']} failed "
          f"(failed_ratio {res['failed'] / res['attempted']:g})")
    for msg in res["failures"][:10]:
        print(f"  FAIL {msg}")
    if not args.trace:
        print(f"  op_ms_tail is p{res['tail_percentile']:g} of {res['attempted']} samples, "
              f"{res['tail_samples_beyond']} beyond it; setup samples {[round(s, 3) for s in setups]}")
    else:
        top = list(res["shares"].items())[:8]
        print("  shares of op wall: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
