"""Command-line front end: solve, reduce, verify, net, sweep.

Exit codes: 0 success (optimal where applicable), 1 parse or usage errors,
2 infeasible instance, 3 numerical failure, 4 cross-check mismatch (oracle
disagreement, equivalence gap, or a violated net bound).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time

import numpy as np

from . import campaigns, iofmt
from .errors import DelsarteError
from .groups import coords_table, make_group, negation_classes
from .lp import DelsarteInstance, Status, oracle_check, solve_delsarte
from .nets import build_net, net_approximation
from .reduction import reduce_instance, verify_equivalence

_STATUS_EXIT = {Status.OPTIMAL: 0, Status.INFEASIBLE: 2, Status.NUMERICAL_FAILURE: 3}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a DelsarteError, which main reports as one
    error line with exit 1; argparse itself would exit 2, the code of an
    infeasible instance. Subcommand parsers are of the same class."""

    def error(self, message: str):
        raise DelsarteError(message)


@functools.cache  # one parser per process: building it costs about 1 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delsarte",
        description="Extremal problems for positive definite functions on finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--instance", required=True, help="path to a JSON instance file")
    p_solve.add_argument("--out", default=None, help="write the result record here (default stdout)")
    p_solve.add_argument("--format", choices=("json", "csv"), default="json")
    p_solve.add_argument("--tolerance", type=float, default=None, help="feasibility tolerance override")
    p_solve.add_argument("--oracle", action="store_true", help="cross-check against vertex enumeration")

    p_reduce = sub.add_parser("reduce", help="reduce an instance to the subgroup generated by W")
    p_reduce.add_argument("--instance", required=True)
    p_reduce.add_argument("--out", default=None, help="write the reduced instance file here")
    p_reduce.add_argument("--report", default=None, help="write the reduction report here (default stdout)")
    p_reduce.add_argument("--verify", action="store_true", help="solve both instances and compare")

    p_verify = sub.add_parser("verify", help="run a property campaign")
    p_verify.add_argument("suite", help="one of: " + ", ".join(campaigns.SUITES))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=None)

    p_net = sub.add_parser("net", help="build an approximation net for a solved instance")
    p_net.add_argument("--instance", required=True)
    p_net.add_argument("--epsilon", type=float, default=0.2)
    p_net.add_argument("--k-size", type=int, default=None, help="random sample-set size (default: whole group)")
    p_net.add_argument("--seed", type=int, default=0)
    p_net.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="solve a parametrized family and emit CSV")
    p_sweep.add_argument("--family", choices=("interval", "q-chain"), required=True)
    p_sweep.add_argument("--n-min", type=int, default=4)
    p_sweep.add_argument("--n-max", type=int, default=8)
    p_sweep.add_argument("--half-width", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--jobs", type=int, default=1)
    return parser


def _load(path: str, tolerance_flag: float | None) -> tuple[DelsarteInstance, float]:
    inst, file_tol = iofmt.load_instance(path)
    if tolerance_flag is not None:
        return inst, iofmt.parse_tolerance(tolerance_flag)
    return inst, (file_tol if file_tol is not None else 1e-9)


def cmd_solve(args: argparse.Namespace) -> int:
    inst, tol = _load(args.instance, args.tolerance)
    start = time.perf_counter()
    sol = solve_delsarte(inst, tol=tol)
    elapsed = time.perf_counter() - start

    oracle = oracle_check(sol, inst) if args.oracle else None
    record = iofmt.result_record(inst, sol, tolerance=tol, oracle=oracle, timing_seconds=elapsed)
    if args.format == "json":
        iofmt.write_json(args.out, record, sys.stdout)
    else:
        bound = None if sol.dual is None else sol.dual.certified_upper_bound
        row = [record["instance_digest"], sol.status.value, sol.value, bound]
        iofmt.write_csv(args.out, ["instance_digest", "status", "value", "certified_upper_bound"], [row], sys.stdout)
    if oracle is not None and oracle["ran"] and not oracle["ok"]:
        print("error: oracle cross-check failed", file=sys.stderr)
        return 4
    return _STATUS_EXIT[sol.status]


def cmd_reduce(args: argparse.Namespace) -> int:
    inst, file_tol = iofmt.load_instance(args.instance)
    rinst = reduce_instance(inst)
    reduced_file = iofmt.instance_to_dict(rinst.reduced, file_tol)
    report = {
        "version": iofmt.FORMAT_VERSION,
        "instance_digest": inst.digest(),
        "group": list(inst.group.orders),
        "subgroup": {
            "order": rinst.g0.order,
            "elements": [list(g.coords) for g in rinst.g0.elements],
            "generators": [list(g.coords) for g in rinst.g0.generators],
            "canonical_orders": list(rinst.g0.canonical_orders),
        },
        "reduced_instance": reduced_file,
        "qstar": coords_table(rinst.g0.canonical_spec)[rinst.reduced.q_index].tolist(),
        "q0": coords_table(rinst.g0.canonical_spec)[rinst.q0_index].tolist(),
    }
    gap_bad = False
    if args.verify:
        eq = verify_equivalence(inst, seed=0)
        report["equivalence"] = {
            "original_status": eq.original_status.value,
            "reduced_status": eq.reduced_status.value,
            "value_original": eq.value_original,
            "value_reduced": eq.value_reduced,
            "gap": eq.gap,
            "membership_samples": eq.membership_samples,
            "membership_agreements": eq.membership_agreements,
            "spectrum_transfer_error": eq.spectrum_transfer_error,
            "ok": eq.ok,
        }
        gap_bad = not eq.ok
    if args.out is not None:
        iofmt.write_json(args.out, reduced_file, sys.stdout)
    iofmt.write_json(args.report, report, sys.stdout)
    return 4 if gap_bad else 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.count is not None and args.count < 0:
        raise DelsarteError(f"--count must be nonnegative, got {args.count}")
    result = campaigns.run_campaign(args.suite, args.seed, args.count)
    for line in result.lines():
        print(line)
    return 0 if result.ok else 1


def cmd_net(args: argparse.Namespace) -> int:
    if args.k_size is not None and args.k_size < 1:
        raise DelsarteError(f"--k-size must be at least 1, got {args.k_size}")
    inst, tol = _load(args.instance, None)
    sol = solve_delsarte(inst, tol=tol)
    if sol.status != Status.OPTIMAL:
        print(f"error: instance is {sol.status.value}; nothing to approximate", file=sys.stderr)
        return _STATUS_EXIT[sol.status]
    if args.k_size is None:
        k = list(inst.group.elements())
    else:
        rng = random.Random(args.seed)
        k = rng.sample(list(inst.group.elements()), min(args.k_size, inst.group.order))
    try:
        net = build_net(inst.q, k, args.epsilon)
    except ValueError as exc:
        raise DelsarteError(str(exc)) from exc
    coeffs, quantized, err = net_approximation(sol.f, net)
    bound = 2.0 * args.epsilon
    record = {
        "version": iofmt.FORMAT_VERSION,
        "instance_digest": inst.digest(),
        "epsilon": args.epsilon,
        "m": net.m,
        "n_centers": net.n_centers,
        "k": [list(g.coords) for g in net.k],
        "centers": [list(c.coords) for c in net.centers],
        "cells": [[list(c.coords) for c in cell] for cell in net.partition],
        "coeffs": coeffs.tolist(),
        "quantized": quantized.tolist(),
        "approximation_error": err,
        "bound": bound,
        "within_bound": bool(err < bound),
    }
    iofmt.write_json(args.out, record, sys.stdout)
    return 0 if err < bound else 4


def _interval_instance(n: int, half_width: int, q_index: list[int] | None = None) -> DelsarteInstance:
    """W the interval [-half_width, half_width] on Z_n (all of Z_n from
    n // 2 on) by residues, which are its canonical indices; Q the
    characters with canonical indices ``q_index``, all of them by default."""
    k = np.arange(min(half_width, n // 2) + 1)
    q = np.arange(n) if q_index is None else np.unique(q_index)
    return DelsarteInstance(make_group([n]), np.union1d(k, -k % n), q)


def _solve_status_value(inst: DelsarteInstance) -> tuple[str, float | None]:
    sol = solve_delsarte(inst)
    return sol.status.value, sol.value


def _sweep_rows(args: argparse.Namespace) -> list[dict]:
    if args.family == "interval":
        instances = [_interval_instance(n, args.half_width) for n in range(args.n_min, args.n_max + 1)]
        steps = [""] * len(instances)
    else:  # q-chain: fixed group, support shrinking one orbit at a time
        n = args.n_max
        keys = negation_classes(make_group([n]), np.ones(n, dtype=bool)).tolist()
        steps = list(range(len(keys), 0, -1))
        instances = [
            _interval_instance(n, args.half_width, [c for key in keys[:step] for c in {key, -key % n}])
            for step in steps
        ]

    if args.jobs > 1 and instances:
        # imported here, its one use: the module costs a worker ~2 MB
        from concurrent.futures import ProcessPoolExecutor

        # never more workers than instances: a fork start method forks
        # every worker on the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(instances))) as pool:
            outcomes = list(pool.map(_solve_status_value, instances))
    else:
        outcomes = [_solve_status_value(inst) for inst in instances]
    rows = [
        {
            "family": args.family,
            "n": inst.group.order,
            "half_width": args.half_width,
            "step": step,
            "q_size": len(inst.q_index),
            "status": status,
            "value": value,
            "flag": "",
        }
        for step, inst, (status, value) in zip(steps, instances, outcomes)
    ]

    # cross-check monotonicity along the chain: shrinking support can only
    # lower the value, and feasibility can only be lost
    if args.family == "q-chain":
        prev_value = None
        prev_status = None
        for row in rows:
            if prev_status == "infeasible" and row["status"] == "optimal":
                row["flag"] = "feasibility_regained"
            if (
                row["status"] == "optimal"
                and prev_value is not None
                and row["value"] > prev_value + 1e-9 * (1.0 + abs(prev_value))
            ):
                row["flag"] = "monotonicity"
            if row["status"] == "optimal":
                prev_value = row["value"]
            prev_status = row["status"]
    else:
        for row in rows:
            if row["status"] == "optimal":
                upper = 2 * args.half_width + 1
                if not -1e-9 <= row["value"] <= min(upper, row["n"]) + 1e-9 * (1 + upper):
                    row["flag"] = "bounds"
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    orders = range(args.n_min, args.n_max + 1) if args.family == "interval" else [args.n_max]
    if min(orders, default=1) < 1:
        raise DelsarteError(f"group orders must be at least 1, got {min(orders)}")
    if args.jobs < 1:
        raise DelsarteError(f"--jobs must be at least 1, got {args.jobs}")
    if args.half_width < 0:
        raise DelsarteError(f"--half-width must be nonnegative, got {args.half_width}")
    rows = _sweep_rows(args)
    if args.format == "json":
        iofmt.write_json(args.out, rows, sys.stdout)
    else:
        header = ["family", "n", "half_width", "step", "q_size", "status", "value", "flag"]
        iofmt.write_csv(args.out, header, [[row[k] for k in header] for row in rows], sys.stdout)
    flagged = [row for row in rows if row["flag"]]
    for row in flagged:
        print(f"warning: row {row} flagged {row['flag']}", file=sys.stderr)
    return 0


_COMMANDS = {"solve": cmd_solve, "reduce": cmd_reduce, "verify": cmd_verify, "net": cmd_net, "sweep": cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except DelsarteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
