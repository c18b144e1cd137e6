"""Steadiness check: run each workload repeatedly and compare the spread of
every end-to-end metric with the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --runs 10 [--workloads certify-small,solve-large] [--sets 2]

Each run uses another seed, counting up from 1 across the sets. For every workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median against the bound. ``--sets 2`` repeats the whole series
on fresh seeds and also reports how far the second median moved from the
first, in the metric's worse direction. Next to the metrics it prints the
median of the machine kernel each run times before and after its measured
phase (``machine_kernel_ms`` in the run's result file), so a set measured
on a slower machine shows as such. The series goes to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "steady.json")
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its result line, with the machine kernel reading
    of its result file added as ``kernel_ms``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace0.json"), encoding="utf-8") as fh:
        out["kernel_ms"] = statistics.mean(json.load(fh)["machine_kernel_ms"])
    return out


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    series: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        medians: list[dict] = []
        kernels: list[float] = []
        for k in range(args.sets):
            seeds = [FIRST_SEED + k * args.runs + i for i in range(args.runs)]
            runs = []
            for seed in seeds:
                out = run_once(workload, seed, bench["run_seconds"])
                runs.append(out)
                if not out["correct"]:
                    ok = False
                print(f"{workload} seed {seed}: correct={out['correct']} " + " ".join(
                    f"{n}={v['value']:.5g}" for n, v in out["metrics"].items()), flush=True)
            stats = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in metrics}
            kernel = statistics.median(r["kernel_ms"] for r in runs)
            kernels.append(kernel)
            print(f"  set {k + 1} machine kernel median {kernel:.2f} ms")
            series.setdefault(workload, []).append({"seeds": seeds, "runs": runs, "stats": stats, "kernel_ms": kernel})
            medians.append(stats)
            for n, s in stats.items():
                bound = metrics[n]["bound"]
                verdict = "steady" if s["spread"] < bound / 3 else ("within" if s["spread"] <= bound else "WIDE")
                ok = ok and s["spread"] <= bound
                print(f"  set {k + 1} {n:12s} median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                      f"spread {s['spread']:.3f} bound {bound} {verdict}")
        for k in range(1, len(medians)):
            print(f"  set {k + 1} vs 1 machine kernel slower by {kernels[k] / kernels[0] - 1.0:+.3f}")
            for n, m in metrics.items():
                a, b = medians[0][n]["median"], medians[k][n]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "ok" if worse <= m["bound"] else "MOVED"
                ok = ok and worse <= m["bound"]
                print(f"  set {k + 1} vs 1 {n:12s} worse by {worse:+.3f} (bound {m['bound']}) {flag}")
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(series, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
