"""The three workloads: their inputs, the timed pipeline, its traced twin
and the checks on every operation.

The timed pipeline drives the package only through its public entry points:
``delsarte.cli.main`` for ``solve`` and ``net``, library calls where no
subcommand exists. The traced twin makes the same public calls one layer at
a time (it repeats ``solve_delsarte``'s own sequence), each inside a span,
and must reproduce the timed pipeline's status and value exactly.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import instances as gen
from spans import Tracer

from delsarte import (
    DelsarteSolution,
    DualCertificate,
    EmptyEffectiveSupport,
    OracleTooLarge,
    Status,
    build_lp,
    build_net,
    build_orbit_basis,
    dft,
    exact_basis_check,
    feasibility_check,
    generated_subgroup,
    gram_oracle,
    is_positive_definite,
    lift_solution,
    net_approximation_error,
    project_coeffs,
    quantize,
    reduce_instance,
    restriction_fibers,
    simplex_solve,
    solve_delsarte,
    trivial_extension,
    verify_certificate,
    vertex_enum_oracle,
)
from delsarte import cli, fourier, iofmt

DEFAULT_TOL = 1e-9  # the CLI's feasibility tolerance when the file sets none
EXACT_LIMIT = 64  # solve_delsarte's default exact_limit
VALUE_RTOL = 1e-9
NET_EPSILON = 0.3
NET_K_SIZE = 8
EXIT_CODE = {"optimal": 0, "infeasible": 2, "numerical_failure": 3}


@dataclass
class Op:
    id: int
    key: str  # reference entry this operation is checked against
    instance: str  # instance file
    record: str  # result record written by the pipeline
    expected: dict | None


@dataclass
class Outcome:
    status: str | None = None
    value: float | None = None
    facts: dict[str, Any] = field(default_factory=dict)
    keep: dict[str, Any] = field(default_factory=dict)  # objects the checks need
    error: str | None = None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def write_instance(path: str, inst: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inst, fh, separators=(",", ":"))


def solution_from_record(rec: dict):
    """Rebuild the instance and an auditable solution from a result record."""
    inst, f = iofmt.read_result_function(rec)
    status = Status(rec["status"])
    if status != Status.OPTIMAL:
        return inst, DelsarteSolution(status)
    d = rec["dual"]
    dual = DualCertificate(
        normalization_multiplier=d["normalization_multiplier"],
        off_support=tuple(inst.group.element(c) for c in d["off_support"]),
        multipliers=tuple(d["multipliers"]),
        certified_upper_bound=d["certified_upper_bound"],
    )
    coeffs = tuple(e["coeff"] for e in rec["fourier_coeffs"])
    return inst, DelsarteSolution(status, value=rec["value"], f=f, fourier_coeffs=coeffs, dual=dual)


def value_matches(expected: float | None, got: float | None) -> bool:
    if expected is None or got is None:
        return expected is got
    return abs(got - expected) <= VALUE_RTOL * (1.0 + abs(expected))


def reference_failures(op: Op, out: Outcome) -> list[str]:
    if op.expected is None:
        return []
    errs = []
    if out.status != op.expected["status"]:
        errs.append(f"status {out.status} != reference {op.expected['status']}")
    elif not value_matches(op.expected["value"], out.value):
        errs.append(f"value {out.value!r} != reference {op.expected['value']!r}")
    return errs


def traced_solve(tr: Tracer, inst, tol: float) -> DelsarteSolution:
    """``solve_delsarte`` as its sequence of public calls, one span each."""
    with tr.span("lp.solve_delsarte") as top:
        try:
            with tr.span("lp.build_lp") as sp:
                prog = build_lp(inst)
        except EmptyEffectiveSupport:
            top.attrs["status"] = "infeasible"
            return DelsarteSolution(Status.INFEASIBLE)
        lp = prog.program
        m = lp.n_eq + lp.n_ub
        sp.attrs.update(rows=m, orbits=lp.n_vars)
        tr.probe(sp, "lp.build_orbit_basis", lambda: build_orbit_basis(inst.q))
        n_art = lp.n_eq + int(np.sum(lp.b_ub < 0))
        cells = (m + 1) * (lp.n_vars + lp.n_ub + n_art + 1)
        with tr.span("simplex.simplex_solve", rows=m, cells=cells) as sp:
            res = simplex_solve(lp)
        sp.attrs["pivots"] = res.iterations
        tr.memory_probe(sp, "simplex.simplex_solve", lambda: simplex_solve(lp))
        if res.status == "infeasible":
            top.attrs["status"] = "infeasible"
            return DelsarteSolution(Status.INFEASIBLE, iterations=res.iterations)
        if res.status != "optimal":
            top.attrs["status"] = "numerical_failure"
            return DelsarteSolution(Status.NUMERICAL_FAILURE, iterations=res.iterations)
        coeffs = np.maximum(res.x, 0.0)
        with tr.span("lp.synthesize"):
            f = prog.basis.synthesize(coeffs)
        ti = prog.basis.trivial_index
        value = float(inst.group.order * coeffs[ti]) if ti is not None else 0.0
        residuals = traced_feasibility(tr, f, inst, tol)
        dual = DualCertificate(
            normalization_multiplier=float(res.duals_eq[0]),
            off_support=prog.off_support,
            multipliers=tuple(max(0.0, float(y)) for y in res.duals_ub),
            certified_upper_bound=float(res.duals_eq[0]),
        )
        status = Status.OPTIMAL
        exact = None
        if inst.group.order <= EXACT_LIMIT:
            with tr.span("simplex.exact_basis_check"):
                exact = exact_basis_check(lp, res)
            if exact.performed and not exact.consistent:
                status = Status.NUMERICAL_FAILURE
        top.attrs["status"] = status.value
        top.attrs["exact_performed"] = bool(exact is not None and exact.performed)
        return DelsarteSolution(
            status,
            value=value,
            f=f,
            fourier_coeffs=tuple(float(x) for x in coeffs),
            basis=prog.basis,
            dual=dual,
            residuals=residuals,
            exact=exact,
            lp_objective=res.value,
            iterations=res.iterations,
        )


def traced_feasibility(tr: Tracer, f, inst, tol: float):
    with tr.span("lp.feasibility_check") as sp:
        rep = feasibility_check(f, inst, tol)
    tr.probe(sp, "posdef.is_positive_definite", lambda: is_positive_definite(f, tol))
    tr.probe(sp, "fourier.dft", lambda: dft(f), points=f.spec.order)
    tr.memory_probe(sp, "fourier.dft", lambda: dft(f))
    return rep


def traced_load(tr: Tracer, path: str):
    with tr.span("iofmt.load_instance"):
        inst, file_tol = iofmt.load_instance(path)
    return inst, (file_tol if file_tol is not None else DEFAULT_TOL)


def traced_write(tr: Tracer, name: str, path: str, build) -> dict:
    with tr.span(name) as sp:
        record = build()
        iofmt.write_json(path, record, sys.stdout)
    sp.attrs["bytes"] = os.path.getsize(path)
    return record


def traced_cli_solve(tr: Tracer, instance: str, record: str, oracle: bool) -> tuple[int, dict]:
    """The calls ``delsarte solve`` makes, one span each."""
    inst, tol = traced_load(tr, instance)
    sol = traced_solve(tr, inst, tol)
    info = None
    mismatch = False
    if oracle:
        with tr.span("lp.vertex_enum_oracle") as sp:
            try:
                orc = vertex_enum_oracle(inst)
            except OracleTooLarge as exc:
                info = {"ran": False, "reason": str(exc)}
        sp.attrs["ran"] = info is None
        if info is None:
            gap = None
            if sol.status == Status.OPTIMAL and orc.status == Status.OPTIMAL:
                gap = abs(sol.value - orc.value)
                mismatch = gap > 1e-8 * (1.0 + abs(sol.value))
            else:
                mismatch = sol.status != orc.status
            info = {"ran": True, "status": orc.status.value, "value": orc.value, "gap": gap, "ok": not mismatch}
    rec = traced_write(
        tr, "iofmt.result_record", record,
        lambda: iofmt.result_record(inst, sol, tolerance=tol, oracle=info, timing_seconds=0.0),
    )
    return (4 if mismatch else EXIT_CODE[sol.status.value]), rec


def cold_transforms() -> None:
    """Empty the dense character and difference table caches, so a probe
    builds the tables as a call on a group not seen lately does."""
    fourier._char_matrix.cache_clear()
    fourier._diff_table.cache_clear()


def check_record(out: Outcome, rec: dict) -> None:
    """Facts about an optimal solve record: membership and its certificate."""
    inst, sol = solution_from_record(rec)
    out.facts["is_member"] = bool(rec["residuals"]["is_member"])
    out.facts["certificate_ok"] = verify_certificate(sol, inst).ok
    out.keep["f"] = sol.f


def facts_failures(out: Outcome, required: dict[str, Any]) -> list[str]:
    return [f"{k} is {out.facts.get(k)!r}, expected {v!r}" for k, v in required.items() if out.facts.get(k) != v]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    min_passes = 1
    # probes run after cold_transforms() where the real calls find the
    # transform tables cold, and with the caches as the operation left them
    # (warm) where the real calls find them warm
    cold_probes = False

    def make_ops(self, ref: dict, seed: int, size: str, workdir: str) -> list[Op]:
        raise NotImplementedError

    def warmup(self, workdir: str) -> None:
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        raise NotImplementedError

    def traced(self, op: Op, tr: Tracer) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, out: Outcome) -> list[str]:
        raise NotImplementedError

    def _files(self, workdir: str, ops_spec: list[tuple[str, dict, dict | None]]) -> list[Op]:
        ops = []
        for i, (key, inst, expected) in enumerate(ops_spec):
            path = os.path.join(workdir, f"op{i:03d}.json")
            write_instance(path, inst)
            ops.append(Op(i, key, path, os.path.join(workdir, f"op{i:03d}.result.json"), expected))
        return ops


class SolveLarge(Workload):
    """``delsarte solve`` on LPs above the exact-recheck limit."""

    name = "solve-large"
    min_passes = 5
    tiny = ("Z96-interval-h3", "Z128-interval-h4", "Z12xZ12-box-1x1")

    def make_ops(self, ref, seed, size, workdir):
        entries = {e["key"]: e for e in ref[self.name]}
        spec = []
        for key, inst in gen.solve_large_ladder():
            if size == "tiny" and key not in self.tiny:
                continue
            spec.append((key, inst, entries.get(key)))
        random.Random(f"{self.name}/{seed}").shuffle(spec)
        return self._files(workdir, spec)

    def warmup(self, workdir):
        (n,), h = gen.WARMUP[self.name]
        path = os.path.join(workdir, "warmup.json")
        write_instance(path, gen.interval_instance(n, h))
        self.run(Op(-1, "warmup", path, path + ".result", None))

    def run(self, op):
        code = cli.main(["solve", "--instance", op.instance, "--out", op.record])
        return Outcome(facts={"exit": code})

    def traced(self, op, tr):
        code, _ = traced_cli_solve(tr, op.instance, op.record, oracle=False)
        return Outcome(facts={"exit": code})

    def check(self, op, out):
        rec = iofmt.load_json(op.record)
        out.status, out.value = rec["status"], rec["value"]
        errs = reference_failures(op, out)
        if out.status == "optimal":
            check_record(out, rec)
            errs += facts_failures(out, {"is_member": True, "certificate_ok": True})
        return errs + facts_failures(out, {"exit": EXIT_CODE.get(out.status)})


class CertifySmall(Workload):
    """``solve --oracle``, the certificate audit, the Gram oracle and
    ``net`` on small random instances."""

    name = "certify-small"
    min_passes = 2
    tiny_count = 8

    def make_ops(self, ref, seed, size, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        entries = ref[self.name]
        if size == "tiny":
            entries = entries[: self.tiny_count]
        spec = []
        for e in entries:
            units, perm = gen.random_automorphism(rng, tuple(e["instance"]["group"]))
            spec.append((e["key"], gen.apply_automorphism(e["instance"], units, perm), e))
        return self._files(workdir, spec)

    def warmup(self, workdir):
        (orders,) = gen.WARMUP[self.name]
        path = os.path.join(workdir, "warmup.json")
        write_instance(path, gen.box_instance(orders, (0, 1)))
        out = self.run(Op(-1, "warmup", path, path + ".result", None))
        if out.status != "optimal":
            raise RuntimeError(f"warm-up instance came out {out.status}")

    def _net_args(self, op: Op) -> list[str]:
        return [
            "net", "--instance", op.instance, "--k-size", str(NET_K_SIZE),
            "--epsilon", str(NET_EPSILON), "--seed", str(op.id), "--out", op.record + ".net",
        ]

    def run(self, op):
        code = cli.main(["solve", "--instance", op.instance, "--out", op.record, "--oracle"])
        rec = iofmt.load_json(op.record)
        out = Outcome(rec["status"], rec["value"], facts={"exit": code, "oracle": rec.get("oracle")})
        if out.status == "optimal":
            check_record(out, rec)
            out.facts["gram_ok"] = gram_oracle(out.keep["f"])
            out.facts["net_exit"] = cli.main(self._net_args(op))
            out.facts["net_error"] = iofmt.load_json(op.record + ".net")["approximation_error"]
        return out

    def traced(self, op, tr):
        code, rec = traced_cli_solve(tr, op.instance, op.record, oracle=True)
        out = Outcome(rec["status"], rec["value"], facts={"exit": code, "oracle": rec.get("oracle")})
        if out.status != "optimal":
            return out
        with tr.span("iofmt.read_result"):
            inst, sol = solution_from_record(iofmt.load_json(op.record))
        with tr.span("lp.verify_certificate"):
            out.facts["certificate_ok"] = verify_certificate(sol, inst).ok
        out.facts["is_member"] = bool(rec["residuals"]["is_member"])
        with tr.span("posdef.gram_oracle"):
            out.facts["gram_ok"] = gram_oracle(sol.f)
        out.facts["net_exit"], out.facts["net_error"] = self._traced_net(op, tr)
        return out

    def _traced_net(self, op: Op, tr: Tracer) -> tuple[int, float]:
        """The calls ``delsarte net --k-size`` makes, one span each."""
        inst, tol = traced_load(tr, op.instance)
        sol = traced_solve(tr, inst, tol)
        if sol.status != Status.OPTIMAL:
            return EXIT_CODE[sol.status.value], float("nan")
        rng = random.Random(op.id)
        k = rng.sample(list(inst.group.elements()), max(1, min(NET_K_SIZE, inst.group.order)))
        with tr.span("nets.build_net") as sp:
            net = build_net(inst.q, k, NET_EPSILON)
        sp.attrs["centers"] = net.n_centers
        with tr.span("nets.project_coeffs"):
            coeffs = project_coeffs(sol.f, net)
        with tr.span("nets.quantize"):
            quantized = quantize(coeffs, net.m)
        with tr.span("nets.net_approximation_error"):
            err = net_approximation_error(sol.f, net)
        bound = 2.0 * NET_EPSILON
        traced_write(tr, "iofmt.write_json", op.record + ".net", lambda: {
            "version": iofmt.FORMAT_VERSION,
            "instance_digest": inst.digest(),
            "epsilon": NET_EPSILON,
            "m": net.m,
            "n_centers": net.n_centers,
            "k": [list(g.coords) for g in net.k],
            "centers": [list(c.coords) for c in net.centers],
            "cells": [[list(c.coords) for c in cell] for cell in net.partition],
            "coeffs": [float(x) for x in coeffs],
            "quantized": [float(x) for x in quantized],
            "approximation_error": err,
            "bound": bound,
            "within_bound": bool(err < bound),
        })
        return (0 if err < bound else 4), err

    def check(self, op, out):
        errs = reference_failures(op, out)
        errs += facts_failures(out, {"exit": EXIT_CODE.get(out.status)})
        orc = out.facts.get("oracle")
        if orc and orc.get("ran") and not orc.get("ok"):
            errs.append(f"oracle disagrees: {orc}")
        if out.status == "optimal":
            errs += facts_failures(out, {"is_member": True, "certificate_ok": True, "gram_ok": True, "net_exit": 0})
            if not out.facts.get("net_error", np.inf) < 2.0 * NET_EPSILON:
                errs.append(f"net error {out.facts.get('net_error')} not below {2.0 * NET_EPSILON}")
        return errs


class ReduceLift(Workload):
    """Reduce to the window's subgroup, solve there, lift to the parent,
    check the lift on the parent and write its record."""

    name = "reduce-lift"
    min_passes = 2
    cold_probes = True  # more distinct parents than the 16-entry table caches
    tiny_count = 3

    def make_ops(self, ref, seed, size, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        entries = ref[self.name]
        if size == "tiny":
            entries = entries[: self.tiny_count]
        spec = []
        for e in entries:
            orders = tuple(e["parent"])
            inst = gen.reduce_lift_instance(orders, e["factor"], e["W"], e["S"])
            units, perm = gen.random_automorphism(rng, orders)
            spec.append((e["key"], gen.apply_automorphism(inst, units, perm), e))
        return self._files(workdir, spec)

    def warmup(self, workdir):
        orders, factor = gen.WARMUP[self.name]
        m = orders[factor]
        path = os.path.join(workdir, "warmup.json")
        write_instance(path, gen.reduce_lift_instance(orders, factor, [0, 1, m - 1], list(range(m))))
        out = self.run(Op(-1, "warmup", path, path + ".result", None))
        if out.status != "optimal":
            raise RuntimeError(f"warm-up instance came out {out.status}")

    def run(self, op):
        inst, tol = iofmt.load_instance(op.instance)
        tol = tol if tol is not None else DEFAULT_TOL
        rinst = reduce_instance(inst)
        rsol = solve_delsarte(rinst.reduced, tol=tol)
        out = Outcome(rsol.status.value, rsol.value, keep={"rsol": rsol, "reduced": rinst.reduced})
        if rsol.status != Status.OPTIMAL:
            return out
        lifted = lift_solution(rsol, rinst)
        member = feasibility_check(lifted.f, inst, tol)
        iofmt.write_json(op.record, iofmt.result_record(inst, lifted, tolerance=tol), sys.stdout)
        out.facts.update(
            lifted_value=lifted.value,
            lifted_member=lifted.residuals.is_member,
            parent_member=member.is_member,
        )
        return out

    def traced(self, op, tr):
        inst, tol = traced_load(tr, op.instance)
        with tr.span("reduction.reduce_instance") as sp:
            rinst = reduce_instance(inst)
        sp.attrs["qstar"] = len(rinst.qstar)
        tr.probe(sp, "groups.generated_subgroup", lambda: generated_subgroup(inst.w), order=rinst.g0.order)
        tr.probe(sp, "reduction.restriction_fibers", lambda: restriction_fibers(inst.group, rinst.g0))
        rsol = traced_solve(tr, rinst.reduced, tol)
        out = Outcome(rsol.status.value, rsol.value, keep={"rsol": rsol, "reduced": rinst.reduced})
        if rsol.status != Status.OPTIMAL:
            return out
        with tr.span("reduction.lift_solution") as sp:
            lifted = lift_solution(rsol, rinst)
        tr.probe(sp, "posdef.trivial_extension", lambda: trivial_extension(rsol.f, rinst.g0, inst.group))
        tr.probe(sp, "lp.feasibility_check", lambda: feasibility_check(lifted.f, inst))
        tr.probe(sp, "lp.build_orbit_basis", lambda: build_orbit_basis(inst.q))
        tr.probe(sp, "fourier.dft", lambda: dft(lifted.f), points=inst.group.order)
        member = traced_feasibility(tr, lifted.f, inst, tol)
        traced_write(tr, "iofmt.result_record", op.record, lambda: iofmt.result_record(inst, lifted, tolerance=tol))
        out.facts.update(
            lifted_value=lifted.value,
            lifted_member=lifted.residuals.is_member,
            parent_member=member.is_member,
        )
        return out

    def check(self, op, out):
        errs = reference_failures(op, out)
        if out.status != "optimal":
            return errs + [f"reduced instance came out {out.status}"]
        errs += facts_failures(out, {"lifted_member": True, "parent_member": True})
        if out.facts.get("lifted_value") != out.value:
            errs.append(f"lifted value {out.facts.get('lifted_value')!r} != reduced value {out.value!r}")
        if not verify_certificate(out.keep["rsol"], out.keep["reduced"]).ok:
            errs.append("reduced certificate rejected")
        if iofmt.load_json(op.record)["value"] != out.value:
            errs.append("written record disagrees with the lifted value")
        return errs


WORKLOADS: dict[str, Workload] = {w.name: w for w in (SolveLarge(), CertifySmall(), ReduceLift())}
