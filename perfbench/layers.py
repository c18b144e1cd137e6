"""Per-layer metrics from the traced run's spans.

Each ``_s`` metric is busy seconds summed over the traced passes: the self
time of every span of the named calls, probes included (a probe measures a
call made inside another layer, so its time is also inside that layer's
self time). Counts are summed over the same passes.
"""

from __future__ import annotations

from spans import ROOT, Span, coverage, self_times

MB = float(1 << 20)
FLOAT_BYTES = 8

TIMES: dict[str, tuple[str, ...]] = {
    "simplex.solve_s": ("simplex.simplex_solve",),
    "simplex.exact_s": ("simplex.exact_basis_check",),
    "lp.orbit_basis_s": ("lp.build_orbit_basis",),
    "lp.build_lp_s": ("lp.build_lp",),
    "lp.synthesize_s": ("lp.synthesize",),
    "lp.feasibility_s": ("lp.feasibility_check",),
    "lp.certificate_s": ("lp.verify_certificate",),
    "lp.oracle_s": ("lp.vertex_enum_oracle",),
    "fourier.dft_s": ("fourier.dft",),
    "posdef.spectral_s": ("posdef.is_positive_definite",),
    "posdef.gram_s": ("posdef.gram_oracle",),
    "posdef.extension_s": ("posdef.trivial_extension",),
    "groups.subgroup_s": ("groups.generated_subgroup",),
    "reduction.reduce_s": ("reduction.reduce_instance",),
    "reduction.fibers_s": ("reduction.restriction_fibers",),
    "reduction.lift_s": ("reduction.lift_solution",),
    "nets.build_s": ("nets.build_net",),
    "nets.error_s": ("nets.net_approximation_error",),
    "iofmt.parse_s": ("iofmt.load_instance", "iofmt.read_result"),
    "iofmt.record_s": ("iofmt.result_record", "iofmt.write_json"),
}

def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _attr_sum(spans: list[Span], name: str, attr: str) -> float:
    return float(sum(s.attrs.get(attr, 0) for s in _named(spans, name)))


def _peak_mb(spans: list[Span], name: str) -> float:
    return max((s.attrs["alloc_peak_bytes"] for s in _named(spans, name)), default=0) / MB


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio, which needs the
    untraced wall time."""
    selft = self_times(spans)
    out: dict[str, float] = {}
    for metric, names in TIMES.items():
        out[metric] = sum(selft[s.id] for s in spans if s.name in names)

    solves = _named(spans, "simplex.simplex_solve")
    pivots = _attr_sum(spans, "simplex.simplex_solve", "pivots")
    out["simplex.calls"] = float(len(solves))
    out["simplex.pivots"] = pivots
    out["simplex.pivots_per_row"] = _ratio(pivots, _attr_sum(spans, "simplex.simplex_solve", "rows"))
    out["simplex.tableau_cells"] = _attr_sum(spans, "simplex.simplex_solve", "cells")
    out["simplex.pivot_bytes_computed"] = float(
        sum(s.attrs.get("pivots", 0) * s.attrs.get("cells", 0) * FLOAT_BYTES for s in solves)
    )
    out["simplex.alloc_peak_mb"] = _peak_mb(spans, "simplex.simplex_solve.alloc")

    top = _named(spans, "lp.solve_delsarte")
    optimal = [s for s in top if s.attrs.get("status") == "optimal"]
    out["simplex.exact_calls"] = float(len(_named(spans, "simplex.exact_basis_check")))
    out["simplex.exact_coverage"] = _ratio(sum(bool(s.attrs.get("exact_performed")) for s in optimal), len(optimal))

    out["lp.rows"] = _attr_sum(spans, "lp.build_lp", "rows")
    out["lp.orbits"] = _attr_sum(spans, "lp.build_lp", "orbits")
    oracle = _named(spans, "lp.vertex_enum_oracle")
    out["lp.oracle_calls"] = float(sum(bool(s.attrs.get("ran")) for s in oracle))
    out["lp.oracle_skipped"] = float(sum(not s.attrs.get("ran") for s in oracle))

    dfts = _named(spans, "fourier.dft")
    out["fourier.dft_calls"] = float(len(dfts))
    out["fourier.dft_points"] = _attr_sum(spans, "fourier.dft", "points")
    out["fourier.alloc_peak_mb"] = _peak_mb(spans, "fourier.dft.alloc")

    out["groups.subgroup_order"] = _attr_sum(spans, "groups.generated_subgroup", "order")
    out["reduction.qstar_size"] = _attr_sum(spans, "reduction.reduce_instance", "qstar")
    out["nets.centers"] = _attr_sum(spans, "nets.build_net", "centers")
    out["iofmt.record_bytes"] = _attr_sum(spans, "iofmt.result_record", "bytes") + _attr_sum(
        spans, "iofmt.write_json", "bytes"
    )
    top_s, wall = coverage(spans)
    out["trace.coverage"] = _ratio(top_s, wall)
    return out


def shares(spans: list[Span]) -> dict[str, float]:
    """Self time of each non-probe call as a share of operation wall time,
    largest first; the rest of the wall is benchmark glue."""
    selft = self_times(spans)
    _, wall = coverage(spans)
    by_name: dict[str, float] = {}
    for s in spans:
        if not s.probe and s.name != ROOT:
            by_name[s.name] = by_name.get(s.name, 0.0) + selft[s.id]
    return {k: round(_ratio(v, wall), 4) for k, v in sorted(by_name.items(), key=lambda kv: -kv[1])}
