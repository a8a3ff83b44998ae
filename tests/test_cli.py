"""End-to-end tests of the command-line front end: config ingestion, CSV
trace emission, summary documents, analyzer output, and the exit-code
contract (0 ok / 1 usage / 2 config / 3 all-eliminated / 4 not-certified /
5 non-finite measurement)."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import row_by_row_trace_csv
from smio import cli
from smio.modeguard import eliminate
from smio.sim import HORIZON_MAX, benchmark_model, benchmark_scenario, run_pipeline


# ----------------------------------------------------------------- fixtures


def pair_config(**scenario_extra):
    """Two vulnerable sensors, one attacked at a time: Q = 2, both modes
    eliminate-capable (theta < 1)."""
    cfg = {
        "model": {
            "A": [[0.3, 0.0], [0.0, 0.4]],
            "B": [[1.0], [0.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
            "D": [[0.0], [0.5]],
            "G": [[], []],
            "H": [[1.0, 0.0], [0.0, 1.0]],
            "eta_w": 0.01,
            "eta_v": 0.001,
            "delta_x0": 0.2,
        },
        "modes": {"t_a": 0, "t_s": 2, "rho": 1},
        "scenario": {"true_mode": 1, "horizon": 30, "seed": 3, **scenario_extra},
    }
    return cfg


def with_constant_attack(cfg, level=8.0):
    steps = cfg["scenario"]["horizon"] + 1
    cfg["attack"] = {"kind": "explicit", "values": [[level]] * steps}
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- benchmark


def test_benchmark_writes_five_streams_and_fused_rows(tmp_path):
    out = tmp_path / "bm.csv"
    assert cli.main(["benchmark", "--horizon", "25", "--out", str(out)]) == 0

    rows = read_rows(out)
    # one row per (k, mode) plus one fused row per k
    assert len(rows) == 26 * (5 + 1)
    for k in range(26):
        chunk = rows[6 * k : 6 * (k + 1)]
        assert [r["mode_id"] for r in chunk] == ["1", "2", "3", "4", "5", "fused"]
        assert all(r["k"] == str(k) for r in chunk)
        assert all(r["active_count"] == "5" for r in chunk)
    header = list(rows[0])
    assert header == cli.trace_header(5)
    # k=0 rows carry only the initial set description
    assert rows[0]["r_norm"] == "" and rows[0]["delta_x"] == "0.5"
    # later rows carry residual data for live modes
    assert rows[6]["r_norm"] != "" and rows[6]["delta_hat"] != ""

    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["final_active"] == [1, 2, 3, 4, 5]
    assert summary["eliminated_at"] == {str(q): None for q in range(1, 6)}
    assert summary["containment_violations"] == 0
    assert summary["excluded"] == {}
    assert summary["fault"] is None
    assert summary["horizon"] == 25 and summary["seed"] == 0


def test_benchmark_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["benchmark", "--horizon", "20", "--out", str(a)]) == 0
    assert cli.main(["benchmark", "--horizon", "20", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (
        a.with_suffix(".summary.json").read_bytes()
        == b.with_suffix(".summary.json").read_bytes()
    )

    c = tmp_path / "c.csv"
    assert cli.main(["benchmark", "--horizon", "20", "--seed", "7", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_csv_uses_crlf_and_17_digit_floats(tmp_path):
    out = tmp_path / "bm.csv"
    cli.main(["benchmark", "--horizon", "5", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r\n" in raw
    rows = read_rows(out)
    # 17 significant digits round-trip float64 exactly
    val = rows[6]["delta_tri"]
    assert val == "%.17g" % float(val)


def test_csv_block_size_leaves_the_bytes_unchanged(tmp_path, monkeypatch):
    # one step per block, a partial last block, and one block for the whole
    # trace must write the same file; the attacked run eliminates mode 2, so
    # the blocks also cross frozen rows and the enumerated-threshold cutoff
    path = write_config(tmp_path, with_constant_attack(pair_config()))
    trace = run_pipeline(cli.load_scenario(path))
    assert trace.eliminated_at[2] is not None
    assert trace.steps_recorded > trace.config.k_inf_cutoff
    written = []
    for chunk in (1, 7, trace.steps_recorded + 10):
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        out = tmp_path / f"chunk_{chunk}.csv"
        cli.write_trace_csv(trace, out)
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]


def _one_sensor_overflow_config(x0):
    # a plant that grows 40-fold per step; from x0 = 0.05 its outputs
    # overflow near step 194, from x0 = 1e307 at step 1
    return {
        "model": {
            "A": [[40.0]],
            "B": [[0.0]],
            "C": [[1.0], [1.0]],
            "D": [[0.0], [0.0]],
            "G": [[]],
            "H": [[1.0, 0.0], [0.0, 1.0]],
            "eta_w": 0.01,
            "eta_v": 0.001,
            "delta_x0": 0.1,
        },
        "modes": {"t_a": 0, "t_s": 2, "rho": 1},
        "scenario": {"true_mode": 1, "horizon": 300, "seed": 0, "x0": [x0]},
    }


@pytest.mark.filterwarnings("ignore::smio.decomposition.ConservativeRadiusWarning")
def test_csv_writer_equals_the_row_by_row_writer(tmp_path, monkeypatch):
    late = pair_config()
    late["scenario"]["horizon"] = 60
    late["attack"] = {"kind": "explicit", "values": [[0.0]] * 33 + [[8.0]] * 28}

    def run(cfg, name):
        return run_pipeline(cli.load_scenario(write_config(tmp_path, cfg, f"{name}.json")))

    traces = {
        # mode 2 eliminated at step 33: inside a 7-step chunk, past the cutoff
        "late_elimination": run(late, "late"),
        "crosses_cutoff": run_pipeline(benchmark_scenario(seed=2, horizon=40)),
        "nonfinite": run(_one_sensor_overflow_config(0.05), "nonfinite"),
        "step_zero_only": run(_one_sensor_overflow_config(1e307), "step_zero_only"),
    }
    assert traces["late_elimination"].eliminated_at == {1: None, 2: 33}
    assert traces["crosses_cutoff"].steps_recorded > traces["crosses_cutoff"].config.k_inf_cutoff
    assert traces["nonfinite"].fault_kind == "nonfinite_output"
    assert traces["step_zero_only"].steps_recorded == 0
    for name, trace in traces.items():
        want = tmp_path / f"{name}_oracle.csv"
        row_by_row_trace_csv(trace, want)
        for chunk in (1, 7, trace.steps_recorded + 10):
            monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
            got = tmp_path / f"{name}_{chunk}.csv"
            cli.write_trace_csv(trace, got)
            assert got.read_bytes() == want.read_bytes(), (name, chunk)


# ----------------------------------------------------------------- simulate


def test_simulate_eliminates_attacked_hypothesis(tmp_path):
    path = write_config(tmp_path, with_constant_attack(pair_config()))
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0

    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["final_active"] == [1]
    assert summary["eliminated_at"]["1"] is None
    assert summary["eliminated_at"]["2"] is not None
    assert summary["containment_violations"] == 0
    assert summary["true_mode"] == 1

    rows = read_rows(out)
    k_elim = summary["eliminated_at"]["2"]
    stream2 = [r for r in rows if r["mode_id"] == "2"]
    flags = [r["eliminated"] for r in stream2]
    assert flags[:k_elim] == ["0"] * k_elim
    assert flags[k_elim:] == ["1"] * (len(flags) - k_elim)
    # the eliminated stream keeps emitting rows with the frozen estimate
    frozen = [r for r in stream2 if int(r["k"]) > k_elim]
    assert frozen and all(r["r_norm"] == "" for r in frozen)
    assert len({(r["xhat_1"], r["xhat_2"], r["delta_x"]) for r in frozen}) == 1


def test_simulate_single_mode_universe(tmp_path):
    cfg = pair_config()
    cfg["modes"] = {"t_a": 0, "t_s": 1, "rho": 1}
    cfg["model"]["H"] = [[1.0], [0.0]]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "one.csv"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert {r["mode_id"] for r in rows} == {"1", "fused"}
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["eliminated_at"] == {"1": None}
    assert summary["final_active"] == [1]


def test_csv_replay_reproduces_elimination_decisions(tmp_path):
    """The trace alone suffices to recompute every elimination decision."""
    path = write_config(tmp_path, with_constant_attack(pair_config()))
    out = tmp_path / "trace.csv"
    cli.main(["simulate", "--config", path, "--out", str(out)])

    rows = read_rows(out)
    checked = 0
    for row in rows:
        if row["mode_id"] == "fused" or row["r_norm"] == "":
            continue
        r_norm = float(row["r_norm"])
        delta_tri = float(row["delta_tri"])
        delta_hat = float(row["delta_hat"])
        if row["delta_inf"] != "":
            assert delta_hat == min(float(row["delta_inf"]), delta_tri)
        else:
            assert delta_hat == delta_tri
        assert row["eliminated"] == ("1" if eliminate(r_norm, delta_hat) else "0")
        checked += 1
    assert checked >= 30


def test_seed_and_horizon_overrides(tmp_path):
    path = write_config(tmp_path, pair_config())
    short = tmp_path / "short.csv"
    assert cli.main(
        ["simulate", "--config", path, "--out", str(short), "--horizon", "12"]
    ) == 0
    rows = read_rows(short)
    assert max(int(r["k"]) for r in rows) == 12
    assert json.loads(short.with_suffix(".summary.json").read_text())["horizon"] == 12

    reseeded = tmp_path / "reseeded.csv"
    assert cli.main(
        ["simulate", "--config", path, "--out", str(reseeded), "--horizon", "12",
         "--seed", "99"]
    ) == 0
    assert short.read_bytes() != reseeded.read_bytes()
    assert json.loads(reseeded.with_suffix(".summary.json").read_text())["seed"] == 99


def test_all_modes_eliminated_exits_3_with_partial_trace(tmp_path, capsys):
    # initial estimate violates the trusted delta_x0 ball by a wide margin:
    # every hypothesis trips its threshold and the run faults out
    cfg = pair_config(x0=[50.0, -40.0])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "fault.csv"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 3
    assert "fault" in capsys.readouterr().err

    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["fault"] is not None and "assumption" in summary["fault"]
    assert summary["fault_step"] is not None
    assert summary["final_active"] == []
    assert summary["steps_recorded"] == summary["fault_step"] < 30
    rows = read_rows(out)
    assert max(int(r["k"]) for r in rows) == summary["fault_step"]
    last_fused = [r for r in rows if r["mode_id"] == "fused"][-1]
    assert last_fused["active_count"] == "0"


def test_nonfinite_measurement_exits_5_with_partial_trace(tmp_path, capsys):
    path = write_config(tmp_path, _one_sensor_overflow_config(0.05))
    out = tmp_path / "overflow.csv"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 5

    summary = json.loads(out.with_suffix(".summary.json").read_text())
    step = summary["fault_step"]
    assert step is not None and 0 < step < 300
    assert f"step {step}" in summary["fault"] and "not finite" in summary["fault"]
    assert f"step {step}" in capsys.readouterr().err
    assert summary["steps_recorded"] == step - 1
    assert summary["containment_violations"] == 0
    assert summary["final_active"] == [1, 2]
    rows = read_rows(out)
    assert max(int(r["k"]) for r in rows) == step - 1
    assert all("nan" not in r.values() for r in rows)


# ------------------------------------------------------------ start-up


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle: importing the CLI must not pull it in
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, smio.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------ config errors


def test_unknown_keys_rejected_with_block_diagnostics(tmp_path, capsys):
    cfg = pair_config()
    cfg["model"]["Q"] = 1
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path, "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert "'Q'" in err and "'model'" in err and "allowed" in err

    cfg = pair_config()
    cfg["typo_block"] = {}
    path = write_config(tmp_path, cfg, "top.json")
    assert cli.main(["simulate", "--config", path, "--out", "x.csv"]) == 2
    assert "'typo_block'" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": ,\n}')
    assert cli.main(["simulate", "--config", str(path), "--out", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_pieces_rejected(tmp_path, capsys):
    for mutate, needle in [
        (lambda c: c["model"].pop("A"), "'A'"),
        (lambda c: c.pop("modes"), "'modes'"),
        (lambda c: c["scenario"].pop("true_mode"), "'true_mode'"),
        (lambda c: c["modes"].pop("rho"), "'rho'"),
    ]:
        cfg = pair_config()
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        assert cli.main(["simulate", "--config", path, "--out", "x.csv"]) == 2
        assert needle in capsys.readouterr().err


def test_inconsistent_model_rejected(tmp_path, capsys):
    cfg = pair_config()
    cfg["model"]["B"] = [[1.0]]  # wrong row count
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path, "--out", "x.csv"]) == 2
    assert "ill-formed" in capsys.readouterr().err

    cfg = pair_config()
    cfg["scenario"]["true_mode"] = 9
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path, "--out", "x.csv"]) == 2
    assert "true_mode" in capsys.readouterr().err

    cfg = with_constant_attack(pair_config())
    cfg["attack"]["values"] = cfg["attack"]["values"][:5]  # too short
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path, "--out", "x.csv"]) == 2


@pytest.mark.parametrize(
    "where",
    ["model.A", "model.C", "attack.values", "scenario.x0", "scenario.xhat0",
     "scenario.known_input"],
)
def test_non_finite_config_values_rejected(tmp_path, capsys, where):
    cfg = with_constant_attack(pair_config())
    if where == "model.A":
        cfg["model"]["A"][0][1] = math.nan
    elif where == "model.C":
        cfg["model"]["C"][1][1] = math.inf
    elif where == "attack.values":
        cfg["attack"]["values"][7] = [math.nan]
    elif where == "scenario.x0":
        cfg["scenario"]["x0"] = [0.0, -math.inf]
    elif where == "scenario.xhat0":
        cfg["scenario"]["xhat0"] = [math.nan, 0.0]
    else:
        cfg["scenario"]["known_input"] = [[0.0]] * 20 + [[math.inf]] + [[0.0]] * 10
    path = write_config(tmp_path, cfg)  # json writes NaN / Infinity literals
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err
    if where.startswith("model."):
        assert cli.main(["analyze", "--config", path]) == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_negative_seed_flag_rejected(tmp_path, capsys, command):
    """A negative seed exits 2 with a message, not numpy's traceback."""
    out = str(tmp_path / "x.csv")
    argv = [command, "--out", out, "--seed", "-1", "--horizon", "5"]
    if command == "simulate":
        argv += ["--config", write_config(tmp_path, pair_config())]
    assert cli.main(argv) == 2
    assert "noise seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_negative_config_seed_rejected(tmp_path, capsys):
    path = write_config(tmp_path, pair_config(seed=-2))
    out = str(tmp_path / "x.csv")
    assert cli.main(["simulate", "--config", path, "--out", out]) == 2
    assert "noise seed must be nonnegative, got -2" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_horizon_above_cap_rejected_before_allocating(tmp_path, capsys, command):
    """A horizon far past HORIZON_MAX exits 2 naming the cap, instead of
    failing to allocate horizon-sized arrays."""
    out = str(tmp_path / "x.csv")
    argv = [command, "--out", out, "--horizon", str(10**12)]
    if command == "simulate":
        cfg = pair_config()
        cfg["attack"] = {"kind": "sinusoid"}
        argv += ["--config", write_config(tmp_path, cfg)]
    assert cli.main(argv) == 2
    assert f"horizon must be at most {HORIZON_MAX}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_config_horizon_above_cap_rejected(tmp_path, capsys):
    cfg = pair_config()
    cfg["scenario"]["horizon"] = HORIZON_MAX + 1
    cfg["attack"] = {"kind": "sinusoid"}
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"horizon must be at most {HORIZON_MAX}" in capsys.readouterr().err


@pytest.mark.parametrize("bound", [-1.0, -1e-300, math.nan, math.inf])
def test_bad_trajectory_bound_in_tuning_rejected(tmp_path, capsys, bound):
    """A negative or non-finite R_x or R_y in the tuning block exits 2, in
    analyze and in simulate."""
    for key in ("R_x", "R_y"):
        cfg = pair_config()
        cfg["tuning"] = {"R_x": 0.5, "R_y": 0.05, key: bound}
        path = write_config(tmp_path, cfg)  # json writes NaN / Infinity literals
        assert cli.main(["analyze", "--config", path]) == 2
        assert f"tuning.{key} must be a finite number >= 0" in capsys.readouterr().err
        out = str(tmp_path / "x.csv")
        assert cli.main(["simulate", "--config", path, "--out", out]) == 2
        assert f"tuning.{key} must be a finite number >= 0" in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize("bound", ["-1", "-1000", "nan", "inf"])
def test_bad_trajectory_bound_flag_is_a_usage_error(tmp_path, capsys, bound):
    path = write_config(tmp_path, pair_config())
    for flag, other in (("--rx", "--ry"), ("--ry", "--rx")):
        assert cli.main(["analyze", "--config", path, flag, bound, other, "0.05"]) == 1
        err = capsys.readouterr().err
        assert f"{flag} must be a finite number >= 0" in err
        assert "Traceback" not in err


def test_zero_trajectory_bounds_accepted(tmp_path, capsys):
    cfg = pair_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "flags.json"
    assert cli.main(["analyze", "--config", path, "--rx", "0", "--ry", "0", "--out", str(out)]) in (0, 4)
    cfg["tuning"] = {"R_x": 0.0, "R_y": 0}
    path = write_config(tmp_path, cfg, "tuned.json")
    tuned = tmp_path / "tuned_report.json"
    assert cli.main(["analyze", "--config", path, "--out", str(tuned)]) in (0, 4)
    assert tuned.read_text() == out.read_text()
    assert "condition (i) numerator" in json.loads(out.read_text())["note"]
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 0


def test_non_numeric_trajectory_bound_rejected_by_simulate(tmp_path, capsys):
    cfg = pair_config()
    cfg["tuning"] = {"R_x": "big", "R_y": 1.0}
    path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "tuning.R_x" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["simulate", "--out", "x.csv"]) == 1  # missing --config
    assert cli.main(["simulate", "--config", "c.json"]) == 1  # missing --out
    assert cli.main(["benchmark", "--no-such-flag"]) == 1
    capsys.readouterr()
    path = write_config(tmp_path, pair_config())
    assert cli.main(["analyze", "--config", path, "--rx", "0.5"]) == 1
    assert "--ry" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


# ------------------------------------------------------------------ analyze


def test_analyze_benchmark_certified_by_condition_ii(tmp_path, capsys):
    model = benchmark_model()
    cfg = {
        "model": {
            "A": model.A.tolist(),
            "B": model.B.tolist(),
            "C": model.C.tolist(),
            "D": model.D.tolist(),
            "G": model.G.tolist(),
            "H": model.H.tolist(),
            "eta_w": model.eta_w,
            "eta_v": model.eta_v,
            "delta_x0": model.delta_x0,
        },
        "modes": {"t_a": 1, "t_s": 4, "rho": 4},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["analyze", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall_condition_ii"] is True
    assert report["certified"] is True
    assert report["overall_condition_i"] is False  # no bounds supplied
    assert len(report["pairs"]) == 25
    assert "not evaluated" in report["note"]
    self_pairs = [p for p in report["pairs"] if p["q"] == p["q_prime"]]
    assert all(p["condition_ii"] is False for p in self_pairs)


BUILTIN_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "builtin_benchmark.json"


def test_builtin_config_analyzes(capsys):
    rc = cli.main(["analyze", "--config", str(BUILTIN_CONFIG)])
    assert rc in (0, 4)
    report = json.loads(capsys.readouterr().out)
    assert report["certified"] is (rc == 0)
    assert len(report["pairs"]) == 25
    assert report["excluded"] == {}


def test_builtin_config_simulates_like_the_benchmark_command(tmp_path):
    via_config = tmp_path / "config.csv"
    via_benchmark = tmp_path / "benchmark.csv"
    assert cli.main(["simulate", "--config", str(BUILTIN_CONFIG), "--out", str(via_config)]) == 0
    assert cli.main(["benchmark", "--seed", "0", "--out", str(via_benchmark)]) == 0
    for suffix in (".csv", ".summary.json"):
        assert (
            via_config.with_suffix(suffix).read_bytes()
            == via_benchmark.with_suffix(suffix).read_bytes()
        ), suffix


def test_analyze_identical_subspaces_not_certified(tmp_path):
    cfg = {
        "model": {
            "A": [[0.5, 0.0], [0.0, 0.2]],
            "B": [[0.0], [0.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
            "D": [[0.0], [0.0]],
            "G": [[1.0, 0.0], [0.0, 1.0]],
            "H": [[], []],
            "eta_w": 0.01,
            "eta_v": 0.001,
            "delta_x0": 0.1,
        },
        "modes": {"t_a": 2, "t_s": 0, "rho": 1},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "rep.json"
    # no feedthrough at all: both modes share T2 = I, condition (ii) fails,
    # and with no bounds condition (i) is not evaluated -> not certified
    assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["certified"] is False
    pair = {(p["q"], p["q_prime"]): p for p in report["pairs"]}[(1, 2)]
    assert pair["condition_ii"] is False


def test_analyze_with_bounds_reports_sigma_and_ratio(tmp_path):
    cfg = pair_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "rep.json"
    code = cli.main(
        ["analyze", "--config", path, "--out", str(out), "--rx", "0.5", "--ry", "0.05"]
    )
    report = json.loads(out.read_text())
    pair = {(p["q"], p["q_prime"]): p for p in report["pairs"]}[(1, 2)]
    assert pair["sigma_min"] == pytest.approx(2.5, abs=1e-9)
    assert isinstance(pair["threshold_ratio"], float) and pair["threshold_ratio"] > 0
    assert pair["condition_i"] is True
    assert report["overall_condition_i"] is True
    assert code == 0

    # bounds can also live in the tuning block
    cfg["tuning"] = {"R_x": 0.5, "R_y": 0.05}
    path2 = write_config(tmp_path, cfg, "tuned.json")
    out2 = tmp_path / "rep2.json"
    assert cli.main(["analyze", "--config", path2, "--out", str(out2)]) == 0
    assert out2.read_text() == out.read_text()


def test_analyze_infinite_ratio_serialized_as_string(tmp_path):
    model = benchmark_model()
    cfg = {
        "model": {
            "A": model.A.tolist(),
            "B": model.B.tolist(),
            "C": model.C.tolist(),
            "D": model.D.tolist(),
            "G": model.G.tolist(),
            "H": model.H.tolist(),
            "eta_w": model.eta_w,
            "eta_v": model.eta_v,
            "delta_x0": model.delta_x0,
        },
        "modes": {"t_a": 1, "t_s": 4, "rho": 4},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "rep.json"
    # benchmark observers are norm-expansive, so the asymptotic thresholds
    # diverge and every matched ratio is infinite; the report stays strict JSON
    assert cli.main(
        ["analyze", "--config", path, "--out", str(out), "--rx", "10", "--ry", "60"]
    ) == 0
    report = json.loads(out.read_text())
    matched = [
        p
        for p in report["pairs"]
        if p["dimension_matched"] and p["q"] != p["q_prime"]
    ]
    assert matched and all(p["threshold_ratio"] == "inf" for p in matched)
    assert all(p["condition_i"] is False for p in matched)
    assert report["certified"] is True  # condition (ii) still does the work


def test_analyze_and_simulate_exclude_the_same_hypotheses(tmp_path):
    # one output, two actuators attacked one at a time: the hypothesis whose
    # attack the output cannot see is excluded by both commands alike
    cfg = {
        "model": {
            "A": [[0.5, 0.0], [0.0, 0.4]],
            "B": [[0.0], [0.0]],
            "C": [[1.0, 0.0]],
            "D": [[0.0]],
            "G": [[1.0, 0.0], [0.0, 1.0]],
            "H": [[]],
            "eta_w": 0.01,
            "eta_v": 0.001,
            "delta_x0": 0.1,
        },
        "modes": {"t_a": 2, "t_s": 0, "rho": 1},
        "scenario": {"true_mode": 1, "horizon": 10, "seed": 0},
    }
    path = write_config(tmp_path, cfg)
    report_path = tmp_path / "report.json"
    cli.main(["analyze", "--config", path, "--out", str(report_path)])
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    analyzed = json.loads(report_path.read_text())["excluded"]
    simulated = json.loads(out.with_suffix(".summary.json").read_text())["excluded"]
    assert analyzed and analyzed == simulated


# ------------------------------------------------------ removed tuning knobs


@pytest.mark.parametrize("flag", ["--inf-cutoff", "--enum-budget"])
@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_removed_tuning_flags_exit_1(tmp_path, capsys, command, flag):
    """The threshold cutoff and the vertex budget are fixed; their old
    flags are unrecognised arguments, a usage error."""
    out = str(tmp_path / "x.csv")
    argv = [command, "--out", out, flag, "4"]
    if command == "simulate":
        argv += ["--config", write_config(tmp_path, pair_config())]
    assert cli.main(argv) == 1
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key", ["k_inf_cutoff", "enum_budget"])
@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_removed_tuning_keys_exit_2(tmp_path, capsys, command, key):
    cfg = pair_config()
    cfg["tuning"] = {key: 4}
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"unknown key '{key}' in the 'tuning' block (allowed: R_x, R_y)" in err


def test_run_uses_the_fixed_threshold_cutoff(tmp_path):
    """The enumerated threshold is in the CSV through step 25 and empty after."""
    path = write_config(tmp_path, pair_config())
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    rows = [r for r in read_rows(out) if r["mode_id"] == "1" and r["r_norm"] != ""]
    by_k = {int(r["k"]): r for r in rows}
    assert all(by_k[k]["delta_inf"] != "" for k in range(1, 26))
    assert all(by_k[k]["delta_inf"] == "" for k in range(26, 31))
