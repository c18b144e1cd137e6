import concurrent.futures
import csv
import io
import json
import math

import pytest

from delsarte import cli, feasibility_check, groups, lp
from delsarte.errors import ParseError
from delsarte.iofmt import load_instance, parse_instance_dict, read_result_function
from delsarte.lp import OracleResult, Status
from delsarte.simplex import SimplexResult


def write_instance(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


Z4_INTERVAL = {"version": 1, "group": [4], "W": [[3], [0], [1]], "Q": [[0], [1], [2], [3]]}


def test_solve_optimal_exit_zero(tmp_path, capsys):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "result.json"
    assert cli.main(["solve", "--instance", path, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["status"] == "optimal"
    assert abs(record["value"] - 2.0) <= 1e-9
    assert record["f"] == [1.0, 0.5, 0.0, 0.5]
    assert record["dual"]["certified_upper_bound"] == pytest.approx(2.0, abs=1e-9)


def test_solve_numerical_failure_exit_three(tmp_path, monkeypatch):
    monkeypatch.setattr(lp, "simplex_solve", lambda program: SimplexResult("numerical_failure", iterations=7))
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "result.json"
    assert cli.main(["solve", "--instance", path, "--out", str(out)]) == 3
    assert '"status": "numerical_failure"' in out.read_text()


def test_solve_oracle_crosscheck(tmp_path, monkeypatch):
    builds = []
    build_lp = lp.build_lp
    monkeypatch.setattr(lp, "build_lp", lambda inst: builds.append(inst) or build_lp(inst))
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "result.json"
    assert cli.main(["solve", "--instance", path, "--out", str(out), "--oracle"]) == 0
    # the solve and the oracle each build the LP from the same instance
    assert len(builds) == 2 and builds[0] == builds[1]
    record = json.loads(out.read_text())
    assert record["oracle"]["ran"] and record["oracle"]["ok"]
    assert record["oracle"]["gap"] <= 1e-9


@pytest.mark.parametrize(
    "oracle, gap",
    [(OracleResult(Status.OPTIMAL, 3.0), pytest.approx(1.0)), (OracleResult(Status.INFEASIBLE, None), None)],
)
def test_solve_oracle_disagreement_exits_four(tmp_path, capsys, monkeypatch, oracle, gap):
    monkeypatch.setattr(lp, "vertex_enum_oracle", lambda inst: oracle)
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "result.json"
    assert cli.main(["solve", "--instance", path, "--out", str(out), "--oracle"]) == 4
    assert capsys.readouterr().err == "error: oracle cross-check failed\n"
    entry = json.loads(out.read_text())["oracle"]
    assert entry == {"ran": True, "status": oracle.status.value, "value": oracle.value, "gap": gap, "ok": False}


def test_solve_oracle_above_its_limits_is_skipped(tmp_path, capsys):
    # 16 orbits: past the oracle's 8, while the solve itself is optimal
    data = {"version": 1, "group": [30], "W": [[0]], "Q": [[y] for y in range(30)]}
    path = write_instance(tmp_path, "z30.json", data)
    out = tmp_path / "result.json"
    assert cli.main(["solve", "--instance", path, "--out", str(out), "--oracle"]) == 0
    assert capsys.readouterr().err == ""
    record = json.loads(out.read_text())
    assert record["status"] == "optimal"
    assert record["oracle"] == {"ran": False, "reason": "16 orbits exceeds the oracle limit of 8"}


def test_solve_infeasible_exit_two(tmp_path):
    data = {"version": 1, "group": [4], "W": [[0], [1]], "Q": [[0]]}
    path = write_instance(tmp_path, "inf.json", data)
    assert cli.main(["solve", "--instance", path, "--out", str(tmp_path / "r.json")]) == 2


def test_solve_empty_support_file_is_infeasible(tmp_path):
    # reduce can emit an empty Q*; feeding it back yields a clean infeasible
    data = {"version": 1, "group": [4], "W": [[0]], "Q": []}
    path = write_instance(tmp_path, "empty_q.json", data)
    assert cli.main(["solve", "--instance", path, "--out", str(tmp_path / "r.json")]) == 2


def test_solve_malformed_json_exit_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert cli.main(["solve", "--instance", str(path)]) == 1


@pytest.mark.parametrize("command", ["solve", "reduce", "net"])
def test_non_utf8_instance_file_exit_one(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(Z4_INTERVAL).encode("utf-16-le"))
    assert cli.main([command, "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in captured.err


def _assert_cannot_write(capsys, code, path):
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("fmt", ["json", "csv", "directory"])
def test_solve_unwritable_out_exit_one(tmp_path, capsys, fmt):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path if fmt == "directory" else tmp_path / "missing" / f"r.{fmt}"
    argv = ["solve", "--instance", path, "--out", str(out), "--format", "json" if fmt == "directory" else fmt]
    _assert_cannot_write(capsys, cli.main(argv), out)


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_reduce_unwritable_path_exit_one(tmp_path, capsys, flag):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "missing" / "r.json"
    _assert_cannot_write(capsys, cli.main(["reduce", "--instance", path, flag, str(out)]), out)


def test_net_unwritable_out_exit_one(tmp_path, capsys):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "missing" / "net.json"
    _assert_cannot_write(capsys, cli.main(["net", "--instance", path, "--out", str(out)]), out)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_unwritable_out_exit_one(tmp_path, capsys, fmt):
    out = tmp_path / "missing" / f"rows.{fmt}"
    argv = ["sweep", "--family", "interval", "--n-max", "5", "--format", fmt, "--out", str(out)]
    _assert_cannot_write(capsys, cli.main(argv), out)


def test_solve_bad_coordinates_exit_one(tmp_path, capsys):
    # JSON true and 1.0 compare equal to 1 in Python; neither is a coordinate
    for coord in ("x", True, 1.0):
        data = {"version": 1, "group": [4], "W": [[0], [coord]], "Q": [[0]]}
        path = write_instance(tmp_path, "bad.json", data)
        assert cli.main(["solve", "--instance", str(path)]) == 1
        assert capsys.readouterr().err == "error: W[1] contains a non-integer coordinate\n"


def test_coordinates_of_any_size_reduce_modulo_the_order(tmp_path):
    records = []
    for big in (1, 2**70 + 1):
        data = dict(Z4_INTERVAL, W=[[0], [big], [-big]], Q=[[c] for c in range(big, big + 4)])
        path = write_instance(tmp_path, "z4.json", data)
        out = tmp_path / "r.json"
        assert cli.main(["solve", "--instance", path, "--out", str(out)]) == 0
        records.append(dict(json.loads(out.read_text()), timing_seconds=None))
    assert records[0] == records[1]
    assert records[0]["instance"]["W"] == [[0], [1], [3]] and records[0]["value"] == pytest.approx(2.0, abs=1e-9)


def test_parse_builds_no_element(tmp_path, monkeypatch):
    # W and Q go from the file straight to index arrays
    built = []
    post_init = groups._Residues.__post_init__

    def counting(self):
        built.append(type(self))
        post_init(self)

    monkeypatch.setattr(groups._Residues, "__post_init__", counting)
    q = [[a, b] for a in range(8) for b in range(0, 512, 3)]
    data = {"version": 1, "group": [8, 512], "W": [[0, 0], [0, 1], [0, 511], [4, 0]], "Q": q}
    inst, _ = load_instance(write_instance(tmp_path, "z8x512.json", data))
    assert built == []
    assert inst.w_index.tolist() == [0, 1, 511, 2048] and len(inst.q_index) == 8 * 171
    assert len(inst.w) == 4 and built == [groups.GroupElement] * 4  # the sets are built when read


@pytest.mark.parametrize("orders", [[2**70], [2**32, 2**31], [2**63]])
def test_group_order_beyond_int64_exit_one(tmp_path, capsys, orders):
    # every index array is int64
    data = {"version": 1, "group": orders, "W": [[0] * len(orders), [2**65] * len(orders)], "Q": []}
    path = write_instance(tmp_path, "huge.json", data)
    assert cli.main(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err == f"error: group order must be below 2**63, got {math.prod(orders)}\n"
    inst, _ = parse_instance_dict({"version": 1, "group": [2**63 - 1], "W": [[0], [-1]], "Q": []})
    assert inst.w_index.tolist() == [0, 2**63 - 2]


def test_solve_missing_zero_exit_one(tmp_path, capsys):
    # the instance constructor is the one validator of W
    for w, message in (([[1]], "W must contain the identity element"), ([], "W must be nonempty")):
        data = {"version": 1, "group": [4], "W": w, "Q": [[0]]}
        path = write_instance(tmp_path, "bad.json", data)
        assert cli.main(["solve", "--instance", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_wrong_version_exit_one(tmp_path):
    data = dict(Z4_INTERVAL, version=99)
    path = write_instance(tmp_path, "bad.json", data)
    assert cli.main(["solve", "--instance", str(path)]) == 1


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_instance_version_must_be_the_integer_one(tmp_path, capsys, version):
    # JSON true and 1.0 compare equal to 1 in Python; neither is version 1
    data = dict(Z4_INTERVAL, version=version)
    with pytest.raises(ParseError, match="unsupported or missing version"):
        parse_instance_dict(data)
    path = write_instance(tmp_path, "bad.json", data)
    assert cli.main(["solve", "--instance", path]) == 1
    assert "unsupported or missing version" in capsys.readouterr().err


def test_result_record_reproduces_residuals(tmp_path):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "result.json"
    cli.main(["solve", "--instance", path, "--out", str(out)])
    record = json.loads(out.read_text())
    inst, f = read_result_function(record)
    rerun = feasibility_check(f, inst, tol=record["residuals"]["tol"])
    assert rerun.is_member == record["residuals"]["is_member"]
    assert rerun.normalization_error == record["residuals"]["normalization_error"]
    assert rerun.off_support_violation == record["residuals"]["off_support_violation"]
    assert rerun.off_spectrum_violation == record["residuals"]["off_spectrum_violation"]
    assert rerun.posdef.min_spectrum == record["residuals"]["min_spectrum"]


def test_solve_outputs_are_deterministic(tmp_path):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main(["solve", "--instance", path, "--out", str(out1), "--oracle"])
    cli.main(["solve", "--instance", path, "--out", str(out2), "--oracle"])
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    a["timing_seconds"] = b["timing_seconds"] = 0.0
    assert json.dumps(a) == json.dumps(b)


def test_solve_csv_format(tmp_path, capsys):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    assert cli.main(["solve", "--instance", path, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["instance_digest", "status", "value", "certified_upper_bound"]
    assert rows[1][1] == "optimal"
    assert float(rows[1][2]) == pytest.approx(2.0, abs=1e-9)


def test_reduce_writes_loadable_instance(tmp_path, capsys):
    data = {"version": 1, "group": [4], "W": [[0], [2]], "Q": [[0], [1], [2], [3]]}
    path = write_instance(tmp_path, "z4.json", data)
    reduced_path = tmp_path / "reduced.json"
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["reduce", "--instance", path, "--out", str(reduced_path), "--report", str(report_path), "--verify"]
    )
    assert code == 0
    reduced = json.loads(reduced_path.read_text())
    assert reduced["group"] == [2]
    assert reduced["W"] == [[0], [1]]
    inst, _ = parse_instance_dict(reduced)
    assert inst.group.order == 2
    report = json.loads(report_path.read_text())
    assert report["subgroup"]["canonical_orders"] == [2]
    assert report["qstar"] == [[0], [1]]
    assert report["equivalence"]["ok"]
    assert abs(report["equivalence"]["value_original"] - 2.0) <= 1e-9
    assert abs(report["equivalence"]["gap"]) <= 1e-8
    # the reduced file feeds straight back into solve
    out = tmp_path / "r.json"
    assert cli.main(["solve", "--instance", str(reduced_path), "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["value"] - 2.0) <= 1e-9


def test_reduce_carries_the_instance_tolerance(tmp_path, capsys):
    data = {"version": 1, "group": [2, 4], "W": [[0, 0], [0, 2]], "Q": [[a, b] for a in range(2) for b in range(4)]}
    for tolerance in (1e-6, None):
        source = dict(data) if tolerance is None else dict(data, tolerance=tolerance)
        path = write_instance(tmp_path, "z2x4.json", source)
        reduced_path, report_path = tmp_path / "reduced.json", tmp_path / "report.json"
        assert cli.main(["reduce", "--instance", path, "--out", str(reduced_path), "--report", str(report_path)]) == 0
        reduced = json.loads(reduced_path.read_text())
        assert json.loads(report_path.read_text())["reduced_instance"] == reduced
        assert reduced.get("tolerance") == tolerance and ("tolerance" in reduced) == (tolerance is not None)
        out = tmp_path / "r.json"
        assert cli.main(["solve", "--instance", str(reduced_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["residuals"]["tol"] == (1e-9 if tolerance is None else tolerance)


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve"], "error: the following arguments are required: --instance"),
        (["sweep", "--family", "foo"], "error: argument --family: invalid choice: 'foo'"),
        ([], "error: the following arguments are required: command"),
    ],
)
def test_usage_errors_exit_one(capsys, argv, message):
    # argparse's own code, 2, is the code of an infeasible instance
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--instance" in capsys.readouterr().out


def test_cli_import_leaves_the_process_pool_unloaded():
    import subprocess
    import sys

    code = "import sys, delsarte.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_reduce_boundary_instance_exits_four(tmp_path):
    data = {
        "version": 1,
        "group": [15],
        "W": [[0], [3], [6], [9]],
        "Q": [[c] for c in (0, 5, 10, 3, 12, 6, 9, 1, 14, 7, 8)],
    }
    path = write_instance(tmp_path, "boundary.json", data)
    report_path = tmp_path / "report.json"
    code = cli.main(["reduce", "--instance", path, "--report", str(report_path), "--verify"])
    assert code == 4
    report = json.loads(report_path.read_text())
    assert report["equivalence"]["original_status"] == "optimal"
    assert report["equivalence"]["reduced_status"] == "infeasible"


def test_verify_known_suite(capsys):
    assert cli.main(["verify", "posdef", "--seed", "7", "--count", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS posdef: 20/20" in out


def test_verify_rejects_negative_count(capsys):
    assert cli.main(["verify", "posdef", "--count", "-3"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "PASS" not in captured.out


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "bogus"]) == 1


def test_verify_oracle_suite(capsys):
    assert cli.main(["verify", "oracle", "--seed", "1", "--count", "25"]) == 0
    assert "max_gap" in capsys.readouterr().out


def test_net_command(tmp_path):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "net.json"
    assert cli.main(["net", "--instance", path, "--epsilon", "0.2", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["within_bound"]
    assert record["approximation_error"] < 0.4
    assert record["m"] * 0.2 > record["n_centers"]
    assert sum(len(cell) for cell in record["cells"]) == 4


def test_net_rejects_non_finite_epsilon(tmp_path, capsys):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    # nan last: no character lies within nan of a center, so a greedy cover
    # that accepted it would never finish
    for eps in ("inf", "-inf", "nan"):
        assert cli.main(["net", "--instance", path, f"--epsilon={eps}"]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("k_size", ["0", "-5"])
def test_net_rejects_k_size_below_one(tmp_path, capsys, k_size):
    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    out = tmp_path / "net.json"
    assert cli.main(["net", "--instance", path, f"--k-size={k_size}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --k-size must be at least 1, got {k_size}\n"
    assert not out.exists()
    # a size above |G| still takes the whole group
    assert cli.main(["net", "--instance", path, "--k-size", "9", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == [[0], [1], [2], [3]]


def test_net_rejects_epsilon_too_small_for_the_granularity(tmp_path, capsys):
    import subprocess
    import sys

    path = write_instance(tmp_path, "z4.json", Z4_INTERVAL)
    message = f"the smallest usable epsilon is {math.nextafter(4 / 2**53, math.inf)!r}"
    # n / epsilon is inf at 1e-310
    assert cli.main(["net", "--instance", path, "--epsilon", "1e-310"]) == 1
    assert capsys.readouterr().err == f"error: epsilon 1e-310 is too small for 4 centers; {message}\n"
    # at 1e-30, m + 1 == m as a float: a subprocess, so a spinning fence times out
    proc = subprocess.run(
        [sys.executable, "-m", "delsarte.cli", "net", "--instance", path, "--epsilon", "1e-30"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: epsilon 1e-30 is too small for 4 centers; {message}\n"


def test_net_infeasible_instance(tmp_path):
    data = {"version": 1, "group": [4], "W": [[0], [1]], "Q": [[0]]}
    path = write_instance(tmp_path, "inf.json", data)
    assert cli.main(["net", "--instance", path]) == 2


def test_sweep_interval_family(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--family", "interval", "--n-min", "4", "--n-max", "8", "--half-width", "1", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    by_n = {int(r["n"]): r for r in rows}
    assert abs(float(by_n[4]["value"]) - 2.0) <= 1e-9
    assert abs(float(by_n[6]["value"]) - 2.0) <= 1e-9
    assert all(r["flag"] == "" for r in rows)


def test_sweep_interval_half_width_beyond_the_group(tmp_path):
    # from n // 2 on the interval is all of Z_n, whatever its half width
    columns = {}
    for half_width in ("4", str(10**7)):
        out = tmp_path / f"sweep_{half_width}.csv"
        args = ["sweep", "--family", "interval", "--n-min", "4", "--n-max", "8", "--half-width", half_width]
        assert cli.main(args + ["--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        columns[half_width] = [(r["n"], r["status"], r["value"], r["flag"]) for r in rows]
    assert columns["4"] == columns[str(10**7)]
    assert [n for n, *_ in columns["4"]] == ["4", "5", "6", "7", "8"]


def test_sweep_empty_family(tmp_path):
    out = tmp_path / "empty.csv"
    code = cli.main(
        ["sweep", "--family", "interval", "--n-min", "9", "--n-max", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    assert lines[0].startswith("family,")


def test_sweep_interval_rejects_order_zero(tmp_path, capsys):
    args = ["sweep", "--family", "interval", "--n-min", "0", "--n-max", "3", "--out", str(tmp_path / "s.csv")]
    assert cli.main(args) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_q_chain_rejects_order_zero(tmp_path, capsys):
    args = ["sweep", "--family", "q-chain", "--n-max", "0", "--out", str(tmp_path / "s.csv")]
    assert cli.main(args) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "s.csv"
    args = ["sweep", "--family", "q-chain", "--n-max", "4", f"--jobs={jobs}", "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("family", ["interval", "q-chain"])
def test_sweep_rejects_negative_half_width(tmp_path, capsys, family):
    out = tmp_path / "s.csv"
    args = ["sweep", "--family", family, "--n-max", "4", "--half-width", "-1", "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: --half-width must be nonnegative, got -1\n"
    assert not out.exists()


def test_sweep_q_chain_is_monotone(tmp_path):
    out = tmp_path / "chain.csv"
    code = cli.main(
        ["sweep", "--family", "q-chain", "--n-max", "6", "--half-width", "1", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    values = [float(r["value"]) for r in rows if r["status"] == "optimal"]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert all(r["flag"] == "" for r in rows)
    # once the chain loses feasibility it never comes back
    statuses = [r["status"] for r in rows]
    if "infeasible" in statuses:
        assert all(s == "infeasible" for s in statuses[statuses.index("infeasible") :])


def test_sweep_parallel_matches_sequential(tmp_path):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    args = ["sweep", "--family", "interval", "--n-min", "4", "--n-max", "7", "--half-width", "1"]
    assert cli.main(args + ["--out", str(seq)]) == 0
    assert cli.main(args + ["--out", str(par), "--jobs", "2"]) == 0
    assert seq.read_text() == par.read_text()


def test_tolerance_from_instance_file(tmp_path):
    data = dict(Z4_INTERVAL, tolerance=1e-6)
    path = write_instance(tmp_path, "tol.json", data)
    out = tmp_path / "r.json"
    assert cli.main(["solve", "--instance", path, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["residuals"]["tol"] == 1e-6
    # the flag overrides the file
    assert cli.main(["solve", "--instance", path, "--out", str(out), "--tolerance", "1e-8"]) == 0
    assert json.loads(out.read_text())["residuals"]["tol"] == 1e-8


@pytest.mark.parametrize(
    "source, raw",
    [
        ("file", "true"),
        ("file", "-1e-9"),
        ("file", "0"),
        ("file", "1e400"),
        ("file", "NaN"),
        ("flag", "-1e-9"),
        ("flag", "0"),
        ("flag", "1e400"),
        ("flag", "nan"),
    ],
)
def test_solve_rejects_bad_tolerance(tmp_path, capsys, source, raw):
    # JSON true, a value <= 0, an overflow to inf and NaN: exit 1, no record
    path = tmp_path / "tol.json"
    out = tmp_path / "r.json"
    text = json.dumps(Z4_INTERVAL)
    args = ["solve", "--instance", str(path), "--out", str(out)]
    if source == "file":
        text = text[:-1] + f', "tolerance": {raw}}}'
    else:
        args.append(f"--tolerance={raw}")
    path.write_text(text)
    assert cli.main(args) == 1
    assert "tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_jobs_capped_at_instance_count(tmp_path, monkeypatch):
    # a stand-in pool that records its size and maps in this process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # cli imports the pool class where it uses it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    out = tmp_path / "s.csv"
    args = ["sweep", "--family", "interval", "--n-min", "4", "--n-max", "6", "--out", str(out)]
    assert cli.main(args + ["--jobs", "64"]) == 0
    assert sizes == [3]
    assert len(out.read_text().splitlines()) == 4


def test_instance_file_round_trip(tmp_path):
    from delsarte.iofmt import instance_to_dict, load_instance, write_json
    import sys

    inst, tol = load_instance(str(write_instance(tmp_path, "z4.json", dict(Z4_INTERVAL, tolerance=1e-7))))
    path = tmp_path / "again.json"
    write_json(str(path), instance_to_dict(inst, tol), sys.stdout)
    inst2, tol2 = load_instance(str(path))
    assert inst2.group == inst.group and inst2.w == inst.w and inst2.q == inst.q
    assert tol2 == tol
    # a second round trip is byte-identical
    path3 = tmp_path / "thrice.json"
    write_json(str(path3), instance_to_dict(inst2, tol2), sys.stdout)
    assert path3.read_text() == path.read_text()


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "delsarte.cli", "verify", "posdef", "--seed", "1", "--count", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS posdef: 3/3" in proc.stdout
