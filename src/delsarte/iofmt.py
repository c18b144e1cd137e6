"""Versioned JSON instance and result files, CSV summary rows.

Instance and result files are JSON with a fixed key order and an explicit
version field, so goldens diff cleanly and other tooling can parse them.
Floats are serialized through repr and round-trip exactly; re-reading a
result record and re-running the feasibility check reproduces the recorded
residuals bit for bit.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys
from typing import Any, Iterable, TextIO

import numpy as np

from .errors import DelsarteError, ParseError
from .fourier import FunctionOnG
from .groups import GroupSpec, coords_table, index_set, make_group
from .lp import DelsarteInstance, DelsarteSolution, MembershipReport, payload_digest

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def _index_set(raw: Any, spec: GroupSpec, label: str) -> np.ndarray:
    """:func:`index_set` of a list of coordinate tuples, building no element.
    A JSON integer is exactly an int (true is a bool, 1.0 a float); each is
    reduced modulo its order before numpy sees it, so any size is read."""
    if not isinstance(raw, list):
        raise ParseError(f"{label} must be a list of coordinate tuples")
    rank, orders = spec.rank, spec.orders
    rows_ok = all(type(item) is list and len(item) == rank for item in raw)
    flat = list(itertools.chain.from_iterable(raw)) if rows_ok else None
    if not rows_ok or not all(type(c) is int for c in flat):
        for pos, item in enumerate(raw):  # name the first malformed entry
            if type(item) is not list or len(item) != rank:
                raise ParseError(f"{label}[{pos}] must be a list of {rank} integers")
            if not all(type(c) is int for c in item):
                raise ParseError(f"{label}[{pos}] contains a non-integer coordinate")
    residues = np.fromiter(map(int.__mod__, flat, orders * len(raw)), dtype=np.int64, count=len(flat))
    return index_set(spec, residues)


def parse_tolerance(raw: Any) -> float:
    """A feasibility tolerance: a positive finite number. JSON true is not
    a number here, and NaN, infinities and values <= 0 are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError("tolerance must be a number")
    if not 0 < raw <= sys.float_info.max:
        raise ParseError(f"tolerance must be positive and finite, got {raw!r}")
    return float(raw)


def parse_instance_dict(data: Any) -> tuple[DelsarteInstance, float | None]:
    if not isinstance(data, dict):
        raise ParseError("instance file must contain a JSON object")
    version = data.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise ParseError(f"unsupported or missing version (expected {FORMAT_VERSION})")
    raw_group = data.get("group")
    if (
        not isinstance(raw_group, list)
        or not raw_group
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in raw_group)
    ):
        raise ParseError("group must be a nonempty list of integers >= 1")
    spec = make_group(raw_group)
    if spec.order >= 2**63:  # every index array is int64
        raise ParseError(f"group order must be below 2**63, got {spec.order}")
    w_index = _index_set(data.get("W"), spec, "W")
    q_index = _index_set(data.get("Q"), spec, "Q")
    inst = DelsarteInstance(spec, w_index, q_index)
    tolerance = data.get("tolerance")
    if tolerance is not None:
        tolerance = parse_tolerance(tolerance)
    return inst, tolerance


def load_instance(path: str) -> tuple[DelsarteInstance, float | None]:
    return parse_instance_dict(load_json(path))


def instance_to_dict(inst: DelsarteInstance, tolerance: float | None = None) -> dict:
    return _instance_file(inst.payload(), tolerance)


def _instance_file(payload: dict, tolerance: float | None) -> dict:
    """The instance file of a :meth:`DelsarteInstance.payload`."""
    out = {"version": FORMAT_VERSION, **payload}
    if tolerance is not None:
        out["tolerance"] = tolerance
    return out


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


def _residuals_dict(rep: MembershipReport | None) -> dict | None:
    if rep is None:
        return None
    return {
        "is_member": rep.is_member,
        "min_spectrum": rep.posdef.min_spectrum,
        "max_imag_spectrum": rep.posdef.max_imag,
        "normalization_error": rep.normalization_error,
        "off_support_violation": rep.off_support_violation,
        "off_spectrum_violation": rep.off_spectrum_violation,
        "tol": rep.tol,
    }


def result_record(
    inst: DelsarteInstance,
    sol: DelsarteSolution,
    tolerance: float | None = None,
    oracle: dict | None = None,
    timing_seconds: float | None = None,
) -> dict:
    payload = inst.payload()  # the coordinate lists, once for the digest and the instance
    record: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "instance_digest": payload_digest(payload),
        "instance": _instance_file(payload, tolerance),
        "status": sol.status.value,
        "value": sol.value,
        "f": None if sol.f is None else sol.f.values.tolist(),
        "fourier_coeffs": None,
        "dual": None,
        "residuals": _residuals_dict(sol.residuals),
        "exact_recheck": None,
    }
    if sol.fourier_coeffs is not None and sol.basis is not None:
        basis = sol.basis
        table = coords_table(basis.spec)
        record["fourier_coeffs"] = [
            {"orbit": [rep] if weight == 1 else [rep, partner], "weight": weight, "coeff": float(coeff)}
            for rep, partner, weight, coeff in zip(
                table[basis.reps].tolist(), table[basis.partners].tolist(), basis.weights, sol.fourier_coeffs
            )
        ]
    if sol.dual is not None:
        record["dual"] = {
            "normalization_multiplier": sol.dual.normalization_multiplier,
            "off_support": [list(g.coords) for g in sol.dual.off_support],
            "multipliers": list(sol.dual.multipliers),
            "certified_upper_bound": sol.dual.certified_upper_bound,
        }
    if sol.exact is not None:
        record["exact_recheck"] = {
            "performed": sol.exact.performed,
            "consistent": sol.exact.consistent,
            "max_primal_violation": sol.exact.max_primal_violation,
            "max_dual_violation": sol.exact.max_dual_violation,
            "value_gap": sol.exact.value_gap,
        }
    if oracle is not None:
        record["oracle"] = oracle
    record["timing_seconds"] = timing_seconds
    return record


def read_result_function(record: dict) -> tuple[DelsarteInstance, FunctionOnG | None]:
    """Rebuild the instance and the recorded extremal function from a record."""
    inst, _ = parse_instance_dict(record["instance"])
    if record.get("f") is None:
        return inst, None
    return inst, FunctionOnG(inst.group, record["f"])


def write_text(path: str | None, text: str, default_fh: TextIO) -> None:
    """Write ``text`` to ``path``, or to ``default_fh`` when no path is given.
    A path that cannot be written is a DelsarteError, not a traceback."""
    if path is None:
        default_fh.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DelsarteError(f"cannot write {path}: {exc}") from exc


def write_json(path: str | None, obj: Any, default_fh: TextIO) -> None:
    write_text(path, json.dumps(obj, indent=2) + "\n", default_fh)


def write_csv(path: str | None, header: list[str], rows: Iterable[list], default_fh: TextIO) -> None:
    """CSV with a header row: None cells are written empty, floats through
    repr, so they round-trip exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue(), default_fh)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
