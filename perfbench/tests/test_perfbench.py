"""Tests of the benchmark itself: smoke runs, the reference gate, self time.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import Span, Tracer, coverage, self_times  # noqa: E402

def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ("0", "1"))
def test_tiny_run_is_correct(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace,
                    "--size", "tiny")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace == "1":
        assert out["metrics"]["trace.coverage"]["value"] > 0.9


def test_tampered_reference_fails(tmp_path):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    for entry in ref["solve-large"]:
        if entry["key"] == "Z96-interval-h3":
            entry["value"] += 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref), encoding="utf-8")
    out = run_bench("--workload", "solve-large", "--seed", "3", "--seconds", "0.1", "--trace", "0",
                    "--size", "tiny", "--reference", str(path))
    assert not out["correct"]
    assert out["failed"] > 0


def test_refuses_without_package_source(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(BENCH):
        src = os.path.join(BENCH, name)
        if os.path.isfile(src):
            (bare / "perfbench" / name).write_bytes(open(src, "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _span(i, parent, start, end, probe=False, name="x"):
    return Span(i, name, 0, parent, start, end, probe=probe)


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, None, 0.0, 10.0, name="op"),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 1.5, 2.5),
        _span(3, 1, 2.0, 3.0),  # overlaps its sibling: the union counts once
        _span(4, 0, 5.0, 9.0),
        _span(5, 4, 8.0, 12.0),  # runs past its parent: only the inside counts
        _span(6, 1, 20.0, 21.0, probe=True),  # a probe never reduces its parent
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert st[1] == pytest.approx(3.0 - 1.5)
    assert st[2] == pytest.approx(1.0)
    assert st[4] == pytest.approx(4.0 - 1.0)
    assert st[6] == pytest.approx(1.0)
    top, wall = coverage(spans)
    assert (top, wall) == (pytest.approx(7.0), pytest.approx(10.0))


def test_before_probe_runs_ahead_of_each_probe_outside_it():
    events = []
    tr = Tracer(before_probe=lambda: events.append("reset"))
    with tr.op(0):
        with tr.span("lp.feasibility_check") as sp:
            pass
        tr.probe(sp, "fourier.dft", lambda: events.append("dft"))
        tr.memory_probe(sp, "fourier.dft", lambda: events.append("dft under tracemalloc"))
        assert events == []  # probes wait for the operation to end
    assert events == ["reset", "dft", "reset", "dft under tracemalloc"]
    probes = [s for s in tr.spans if s.probe]
    assert [s.name for s in probes] == ["fourier.dft", "fourier.dft.alloc"]
    assert all(s.parent == sp.id for s in probes)
    assert probes[1].attrs["alloc_peak_bytes"] >= 0
