"""Regenerate ``reference.json``: the base instance sets and the expected
status and value of every benchmark operation.

Usage, from the repository root:

    python3 perfbench/reference.py [--out perfbench/reference.json]

Each entry is solved once with ``solve_delsarte`` and then vouched for by
whichever independent checks apply: the vertex-enumeration oracle where the
instance fits its limits, and ``scipy.optimize.linprog(method="highs")`` on
LP data built straight from the definition when scipy imports. ``vouched_by``
names the checks that agreed; a disagreement stops the script.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import instances as gen  # noqa: E402

from delsarte import OracleTooLarge, Status, make_group, solve_delsarte, vertex_enum_oracle  # noqa: E402
from delsarte import iofmt  # noqa: E402
from delsarte.campaigns import random_conjugation_closed_q, random_window  # noqa: E402

VOUCH_RTOL = 1e-7  # outside solvers stop at ~1e-9 feasibility; allow their drift
MAX_DRAWS = 200
HIGHS_PARENT_LIMIT = 2560  # HiGHS on a dense parent LP of order 4096 runs for many minutes

# certify-small: groups of order 16..64, cyclic and products of 2-3 factors
CERTIFY_GROUPS: tuple[gen.Orders, ...] = (
    (16,), (20,), (24,), (32,), (40,), (48,), (64,),
    (4, 4), (2, 8), (4, 6), (4, 8), (6, 6), (2, 16), (5, 10), (8, 8), (4, 16),
    (2, 2, 4), (2, 2, 8), (3, 3, 3), (2, 4, 4), (2, 4, 6), (4, 4, 4),
)
CERTIFY_DRAWS_PER_GROUP = 3

# reduce-lift: (parent orders, index of the cyclic factor holding the window).
# Twenty-four distinct parents up to the 2048 dense-table limit (more than
# the 16-entry transform caches) and two above it.
REDUCE_PARENTS: tuple[tuple[gen.Orders, int], ...] = (
    ((8, 64), 0), ((16, 32), 0), ((32, 16), 0), ((8, 8, 8), 1),
    ((12, 64), 0), ((24, 32), 0),
    ((8, 128), 0), ((16, 64), 0), ((32, 32), 1), ((8, 8, 16), 2),
    ((18, 64), 0), ((20, 64), 0),
    ((24, 64), 0), ((12, 128), 0),
    ((8, 256), 0), ((16, 128), 0), ((32, 64), 0),
    ((9, 256), 0), ((8, 512), 0),
    ((8, 96), 0), ((16, 48), 0), ((10, 64), 0), ((12, 48), 0),
    ((14, 64), 0), ((28, 32), 0), ((8, 4, 16), 0),
)


def draw_certify_base(rng: random.Random) -> list[dict]:
    """Windows and conjugation-closed Q drawn by the campaign generators."""
    out = []
    for orders in CERTIFY_GROUPS:
        spec = make_group(orders)
        for _ in range(CERTIFY_DRAWS_PER_GROUP):
            w = random_window(rng, spec)
            q = random_conjugation_closed_q(rng, spec)
            out.append(gen.instance_dict(orders, (g.coords for g in w), (y.coords for y in q)))
    return out


def draw_cyclic_window(rng: random.Random, m: int) -> list[int]:
    """Campaign-style window inside Z_m that generates all of Z_m."""
    while True:
        p = rng.uniform(0.15, 0.9)
        w = {0} | {x for x in range(1, m) if rng.random() < p}
        if math.gcd(m, *w) == 1:
            return sorted(w)


def draw_fiber_set(rng: random.Random, m: int) -> list[int]:
    """Conjugation-closed set of characters of Z_m, each class kept with
    probability 1/2 (the campaign's fiber-union draw). The trivial class is
    always kept: without it every admissible function has total mass 0."""
    chosen = {0}
    for gamma in range(1, m):
        if rng.random() < 0.5:
            chosen |= {gamma, (-gamma) % m}
    return sorted(chosen)


def highs(inst: dict) -> tuple[str, float | None] | None:
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    data = gen.independent_lp(inst)
    if data is None:
        return "infeasible", None
    c, a_eq, b_eq, a_ub, b_ub = data
    res = linprog(c, A_ub=a_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        return "infeasible", None
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return "optimal", float(-res.fun)


def agree(status: str, value: float | None, other: tuple[str, float | None]) -> bool:
    if other[0] != status:
        return False
    if status != "optimal":
        return True
    return abs(other[1] - value) <= VOUCH_RTOL * (1.0 + abs(value))


def solve_entry(key: str, inst: dict) -> dict:
    parsed, _ = iofmt.parse_instance_dict(inst)
    sol = solve_delsarte(parsed)
    status, value = sol.status.value, sol.value
    if status == "numerical_failure":
        raise RuntimeError(f"{key}: numerical failure at reference generation")
    vouched = []
    try:
        orc = vertex_enum_oracle(parsed)
    except OracleTooLarge:
        orc = None
    if orc is not None:
        if not agree(status, value, (orc.status.value, orc.value)):
            raise RuntimeError(f"{key}: oracle says {orc.status.value} {orc.value}, solver {status} {value}")
        vouched.append("oracle")
    other = highs(inst)
    if other is not None:
        if not agree(status, value, other):
            raise RuntimeError(f"{key}: HiGHS says {other}, solver {status} {value}")
        vouched.append("highs")
    print(f"  {key}: {status} {value} {vouched}", file=sys.stderr, flush=True)
    return {"key": key, "status": status, "value": value, "vouched_by": vouched}


def reduce_lift_entries(rng: random.Random) -> list[dict]:
    out = []
    for orders, factor in REDUCE_PARENTS:
        m = orders[factor]
        for _ in range(MAX_DRAWS):
            w, s = draw_cyclic_window(rng, m), draw_fiber_set(rng, m)
            reduced = gen.instance_dict((m,), [(x,) for x in w], [(y,) for y in s])
            parsed, _ = iofmt.parse_instance_dict(reduced)
            if solve_delsarte(parsed).status == Status.OPTIMAL:
                break
        else:
            raise RuntimeError(f"no optimal draw for parent {orders}")
        key = "Z" + "xZ".join(map(str, orders)) + f"-f{factor}"
        entry = solve_entry(key, reduced)
        # the reference value is the reduced one; on full fibers the parent's
        # extremal value agrees, which HiGHS confirms on the parent itself
        parent = gen.reduce_lift_instance(orders, factor, w, s)
        other = highs(parent) if gen.group_order(orders) <= HIGHS_PARENT_LIMIT else None
        if other is not None:
            if not agree(entry["status"], entry["value"], other):
                raise RuntimeError(f"{key}: HiGHS on the parent says {other}, reduced {entry['value']}")
            entry["vouched_by"].append("highs-parent")
        entry.update(parent=list(orders), factor=factor, W=w, S=s)
        out.append(entry)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = parser.parse_args()
    t0 = time.perf_counter()
    ref: dict = {"base_seed": gen.BASE_SEED, "value_rtol": 1e-9}

    ref["solve-large"] = [solve_entry(key, inst) for key, inst in gen.solve_large_ladder()]

    rng = random.Random(gen.BASE_SEED)
    certify = [(f"draw{i:02d}", inst) for i, inst in enumerate(draw_certify_base(rng))]
    for path in sorted(glob.glob(os.path.join(ROOT, "sample_instances", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        inst = gen.instance_dict(tuple(raw["group"]), map(tuple, raw["W"]), map(tuple, raw["Q"]))
        certify.append(("sample-" + os.path.basename(path)[:-5], inst))
    ref["certify-small"] = []
    for key, inst in certify:
        entry = solve_entry(key, inst)
        entry["instance"] = inst
        ref["certify-small"].append(entry)

    ref["reduce-lift"] = reduce_lift_entries(random.Random(gen.BASE_SEED + 1))

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        items = list(ref.items())
        for i, (k, v) in enumerate(items):
            sep = "," if i < len(items) - 1 else ""
            if isinstance(v, list):
                fh.write(f"  {json.dumps(k)}: [\n")
                fh.write(",\n".join("    " + json.dumps(e, separators=(",", ":")) for e in v))
                fh.write(f"\n  ]{sep}\n")
            else:
                fh.write(f"  {json.dumps(k)}: {json.dumps(v)}{sep}\n")
        fh.write("}\n")
    counts = {k: len(v) for k, v in ref.items() if isinstance(v, list)}
    print(f"wrote {args.out}: {counts} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
