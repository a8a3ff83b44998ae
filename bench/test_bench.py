"""Self-tests of the benchmark's own checks and hooks.

Run from the repository root with ``python3 -m pytest -q bench``.  Each
check is shown to pass on a real ``smio`` output and to reject the same
output once it is broken on purpose.
"""

import copy
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from smio import cli, sim  # noqa: E402

HORIZON = 30


def _builtin_doc(true_mode: int) -> dict:
    return {
        "model": workloads.model_block(sim.benchmark_model()),
        "modes": {"t_a": 1, "t_s": 4, "rho": 4},
        "scenario": {"true_mode": true_mode, "horizon": HORIZON, "seed": 7},
        "attack": {"kind": "sinusoid", "amplitude": 5.0, "bias": 2.0},
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real run of the built-in plant, true hypothesis 1, at H=30."""
    tmp = tmp_path_factory.mktemp("bench")
    doc = _builtin_doc(1)
    sc = workloads._write(tmp, "builtin-m1", doc)
    op = workloads.Op("simulate", sc, "builtin-m1.csv")
    assert run.call_cli(op.argv(tmp)) == 0
    csv_path, summary_path = op.outputs(tmp)
    cfg = cli.load_scenario(sc.config)
    xs, ys = sim.simulate_plant(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = sim.run_pipeline(cfg)
        brackets = run._bank_brackets(cfg)
    dhat = {k: trace.snapshots[k][1].dhat_prev for k in range(1, HORIZON + 1)}
    return {
        "sc": sc,
        "doc": doc,
        "rows": checks.read_trace_csv(csv_path),
        "summary": json.loads(summary_path.read_text()),
        "xs": xs,
        "ys": ys,
        "dhat": dhat,
        "brackets": brackets,
        "cutoff": cfg.k_inf_cutoff,
    }


def test_real_output_passes_every_check(outputs):
    o = outputs
    result = run.CheckResult({}, 0, 0, [], [], [], [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fails = run._check_simulation(o["sc"], o["rows"], o["summary"], {}, result, True)
    assert fails == []
    assert result.peak_bytes > 0


def test_shrunken_state_radius_is_rejected(outputs):
    rows = copy.deepcopy(outputs["rows"][1])
    k = 10
    dist = float(np.linalg.norm(outputs["xs"][k] - rows.xhat[k]))
    assert dist > 1e-6
    rows.delta_x[k] = dist / 2
    fails = checks.check_balls(rows, outputs["xs"], checks.attack_values(outputs["doc"]), outputs["dhat"])
    assert [f.split(":")[0] for f in fails] == ["state_containment"]


def test_shrunken_or_nan_input_radius_is_rejected(outputs):
    d = checks.attack_values(outputs["doc"])
    for bad in (0.0, math.nan):
        rows = copy.deepcopy(outputs["rows"][1])
        rows.delta_d[12] = bad
        fails = checks.check_balls(rows, outputs["xs"], d, outputs["dhat"])
        assert [f.split(":")[0] for f in fails] == ["input_containment"]


def test_eliminated_true_mode_is_rejected(outputs):
    rows = copy.deepcopy(outputs["rows"])
    rows[1].eliminated[5:] = 1
    fails = checks.check_true_mode(rows, outputs["summary"], 1, HORIZON)
    assert "true_mode_survives" in {f.split(":")[0] for f in fails}

    summary = copy.deepcopy(outputs["summary"])
    summary["eliminated_at"]["1"] = 5
    fails = checks.check_true_mode(outputs["rows"], summary, 1, HORIZON)
    assert {f.split(":")[0] for f in fails} == {"true_mode_survives"}


def test_residual_above_threshold_and_fault_are_rejected(outputs):
    rows = copy.deepcopy(outputs["rows"])
    rows[1].r_norm[7] = 2 * rows[1].delta_hat[7]
    fails = checks.check_true_mode(rows, outputs["summary"], 1, HORIZON)
    assert {f.split(":")[0] for f in fails} == {"residual_within_threshold"}

    summary = dict(outputs["summary"], fault="all mode hypotheses eliminated", steps_recorded=3)
    fails = checks.check_true_mode(outputs["rows"], summary, 1, HORIZON)
    assert {f.split(":")[0] for f in fails} == {"summary_fault"}


@pytest.mark.parametrize("mode_id", [1, 5])
def test_threshold_outside_its_bracket_is_rejected(outputs, mode_id):
    brackets = outputs["brackets"][mode_id]
    clean = outputs["rows"][mode_id]
    assert checks.check_thresholds(clean, brackets, outputs["cutoff"]) == []
    k = 4
    lower, upper, exact = brackets[k]
    for bad in (0.5 * lower, 2.0 * upper):
        rows = copy.deepcopy(clean)
        rows.delta_inf[k] = bad
        fails = checks.check_thresholds(rows, brackets, outputs["cutoff"])
        assert [f.split(":")[0] for f in fails] == ["threshold_bracket"]
    if exact is not None:  # hypothesis 5 has a one-row map
        rows = copy.deepcopy(clean)
        rows.delta_inf[k] = exact * (1 + 1e-6)
        assert checks.check_thresholds(rows, brackets, outputs["cutoff"])


def test_threshold_past_the_cutoff_is_rejected(outputs):
    rows = copy.deepcopy(outputs["rows"][1])
    rows.delta_inf[outputs["cutoff"] + 1] = 1.0
    fails = checks.check_thresholds(rows, outputs["brackets"][1], outputs["cutoff"])
    assert [f.split(":")[0] for f in fails] == ["threshold_bracket"]


def test_threshold_bracket_matches_brute_force():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 5))
    b = rng.uniform(0.1, 1.0, size=5)
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 5)).reshape(5, -1).T * b
    norms = np.linalg.norm(corners @ A.T, axis=1)
    lower, upper, exact = checks.threshold_bracket(A, b)
    assert exact is None
    assert lower == pytest.approx(math.sqrt(np.mean(norms**2)))
    assert lower <= norms.max() <= upper
    lower, upper, exact = checks.threshold_bracket(A[:1], b)
    assert exact == pytest.approx(np.linalg.norm(corners @ A[0], np.inf))


def test_broken_trajectory_is_rejected(outputs):
    xs = outputs["xs"].copy()
    xs[9, 0] += 10 * outputs["doc"]["model"]["eta_w"]
    fails = checks.check_trajectory(outputs["doc"], xs, outputs["ys"])
    assert [f.split(":")[0] for f in fails] == ["trajectory"]
    ys = outputs["ys"].copy()
    ys[3, 4] += 10 * outputs["doc"]["model"]["eta_v"]
    assert checks.check_trajectory(outputs["doc"], outputs["xs"], ys)
    wrong_attack = copy.deepcopy(outputs["doc"])
    wrong_attack["attack"]["bias"] = 2.5
    assert checks.check_trajectory(wrong_attack, outputs["xs"], outputs["ys"])


def test_analyze_report_checks():
    good = json.dumps({"certified": True, "pairs": []})
    assert checks.check_analyze(0, good) == []
    assert checks.check_analyze(2, good)
    assert checks.check_analyze(4, good)
    assert checks.check_analyze(0, "{not json")
    assert checks.check_analyze(4, json.dumps({"certified": False, "pairs": []})) == []


def test_classify_tells_the_known_fault_from_others():
    allowed = frozenset({"input_containment", "summary_containment"})
    assert checks.classify([], allowed) == "ok"
    assert checks.classify(["input_containment: x", "summary_containment: y"], allowed) == "known"
    assert checks.classify(["input_containment: x", "state_containment: y"], allowed) == "unexpected"
    assert checks.classify(["input_containment: x"], frozenset()) == "unexpected"


def test_finite_log_radius_reads_overflow_and_nan_as_inf():
    out = checks.finite_log_radius(np.array([0.0, 9.0, math.inf, math.nan]))
    assert out[0] == 0.0 and out[1] == pytest.approx(1.0)
    assert math.isinf(out[2]) and math.isinf(out[3])


def _traced_pipeline(hooks):
    cfg = sim.benchmark_scenario(seed=1, horizon=5)
    tracer = layers.Tracer(hooks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer:
            sim.run_pipeline(cfg)
    return tracer.metrics()


def test_missing_hook_target_is_absent_not_zero():
    from smio import observer

    original = observer.step
    hooks = {
        "observer.step": ("smio.observer", "no_such_step"),
        "modeguard.advance": ("smio.modeguard", "NoSuchTracker.advance"),
        "cli.analyze": ("smio.no_such_module", "cmd_analyze"),
        "sim.run_pipeline": ("smio.sim", "run_pipeline"),
    }
    got = _traced_pipeline(hooks)
    for name in ("observer.step_s", "observer.step_calls", "modeguard.tracker_self_s", "cli.analyze_s"):
        assert name not in got
    assert got["sim.run_pipeline_s"] > 0
    assert observer.step is original and sim.step is original


def test_hooks_count_and_time_every_layer():
    got = _traced_pipeline(layers.HOOKS)
    # five hypotheses, steps 0..5
    assert got["observer.step_calls"] == 30
    assert got["decomposition.modes_built"] == 5
    # k = 1..5 for four two-row maps of 20+ columns and one one-row map
    assert got["modeguard.path_relaxed"] == 20
    assert got["modeguard.path_single_row"] == 5
    assert got["modeguard.path_enum"] == got["modeguard.path_tri_only"] == 0
    assert got["modeguard.matrix_2norms"] > 0
    assert 0 < got["modeguard.tracker_self_s"] < got["sim.run_pipeline_s"]
    assert 0 < got["sim.loop_self_s"] < got["sim.run_pipeline_s"]


def test_changed_hook_arguments_make_the_metric_absent(monkeypatch):
    import types

    fake = types.ModuleType("smio_renamed")

    def threshold_inf(stacked, budget=16):  # parameters renamed
        return 0.0

    fake.threshold_inf = threshold_inf
    monkeypatch.setitem(sys.modules, "smio_renamed", fake)
    tracer = layers.Tracer({"modeguard.threshold_inf": ("smio_renamed", "threshold_inf")})
    with tracer:
        assert fake.threshold_inf(None) == 0.0
    got = tracer.metrics()
    assert "modeguard.enum_bytes" not in got
    assert got["modeguard.threshold_inf_s"] > 0


def test_clock_scales_by_the_kernel_times_around_a_call(monkeypatch):
    ref = speed.KERNEL_REF_S
    kernel_times = iter([2 * ref, ref, ref / 4])
    monkeypatch.setattr(speed, "kernel", lambda: next(kernel_times))
    clock = speed.Clock()
    result, first = clock.time(lambda x: x + 1, 1)
    assert result == 2
    # shorter than RECALIBRATE_S in all: the kernel does not run in between
    _, second = clock.time(lambda: None)
    _, slow = clock.time(time.sleep, speed.RECALIBRATE_S)
    _, last = clock.time(lambda: None)
    clock.close()
    for sample in (first, second, slow):
        assert sample.scaled == pytest.approx(sample.wall / 1.5)
    assert last.scaled == pytest.approx(last.wall * 1.6)
