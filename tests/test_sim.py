"""Plant simulation, pipeline orchestration, and trace invariants."""

import numpy as np
import pytest

from smio.decomposition import decompose_mode, error_dynamics, synthesize_gains
from smio.model import AttackSignal, SystemModel, enumerate_modes
from smio.observer import init_observer, step
from smio.sim import (
    RunTrace,
    ScenarioConfig,
    SimulationError,
    benchmark_modes,
    benchmark_scenario,
    run_pipeline,
    sample_bounded,
    simulate_plant,
    sinusoid_attack,
)
from smio.sim import benchmark_model as sim_benchmark_model


# ------------------------------------------------------------ sample_bounded


def test_sample_bounded_zero_radius_is_zero():
    rng = np.random.default_rng(0)
    assert np.array_equal(sample_bounded(4, 0.0, rng), np.zeros(4))
    assert sample_bounded(0, 1.0, rng).shape == (0,)
    with pytest.raises(ValueError):
        sample_bounded(3, -1.0, rng)


def test_sample_bounded_respects_radius():
    rng = np.random.default_rng(1)
    for eta in (1e-4, 0.02, 1.0, 7.5):
        for _ in range(2500):
            v = sample_bounded(3, eta, rng)
            assert np.linalg.norm(v) <= eta * (1 + 1e-12)


def test_sample_bounded_fills_the_ball():
    # uniform on the ball: radii follow r^dim, so the outer shell is busy
    rng = np.random.default_rng(2)
    norms = np.array([np.linalg.norm(sample_bounded(2, 1.0, rng)) for _ in range(4000)])
    assert norms.max() > 0.999
    assert np.mean(norms > 0.9) > 0.12  # P = 1 - 0.81 = 0.19 for dim 2


def test_sample_bounded_deterministic():
    a = [sample_bounded(3, 0.5, np.random.default_rng(42)) for _ in range(1)]
    b = [sample_bounded(3, 0.5, np.random.default_rng(42)) for _ in range(1)]
    np.testing.assert_array_equal(a[0], b[0])


# ------------------------------------------------------------ simulate_plant


def _scalar_model(**kw):
    defaults = dict(
        A=np.array([[0.5]]),
        B=np.zeros((1, 1)),
        C=np.array([[1.0]]),
        D=np.zeros((1, 1)),
        G=np.zeros((1, 0)),
        H=np.zeros((1, 0)),
        eta_w=0.0,
        eta_v=0.0,
        delta_x0=0.0,
    )
    defaults.update(kw)
    return SystemModel(**defaults)


def _scalar_config(model, horizon=10, **kw):
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    return ScenarioConfig(
        model=model, modes=(mode,), true_mode=1, horizon=horizon, **kw
    )


def test_simulate_plant_zero_everything():
    cfg = _scalar_config(_scalar_model(A=np.zeros((1, 1))))
    xs, ys = simulate_plant(cfg)
    assert np.array_equal(xs, np.zeros((11, 1)))
    assert np.array_equal(ys, np.zeros((11, 1)))


def test_simulate_plant_geometric_decay():
    cfg = _scalar_config(_scalar_model(), x0=np.array([1.0]))
    xs, ys = simulate_plant(cfg)
    np.testing.assert_allclose(xs[:, 0], 0.5 ** np.arange(11), rtol=1e-14)
    np.testing.assert_allclose(ys, xs, rtol=1e-14)


def test_simulate_plant_benchmark_bounded():
    cfg = benchmark_scenario(seed=3, horizon=200)
    xs, ys = simulate_plant(cfg)
    assert xs.shape == (201, 5) and ys.shape == (201, 5)
    assert np.max(np.abs(xs)) < 150.0
    assert np.isfinite(xs).all() and np.isfinite(ys).all()


def test_simulate_plant_deterministic():
    a = simulate_plant(benchmark_scenario(seed=11, horizon=40))
    b = simulate_plant(benchmark_scenario(seed=11, horizon=40))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = simulate_plant(benchmark_scenario(seed=12, horizon=40))
    assert not np.array_equal(a[0], c[0])


# ------------------------------------------------------- config validation


def test_config_rejects_bad_horizon_and_mode():
    model = _scalar_model()
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    with pytest.raises(SimulationError, match="horizon"):
        ScenarioConfig(model=model, modes=(mode,), true_mode=1, horizon=0)
    with pytest.raises(SimulationError, match="true mode"):
        ScenarioConfig(model=model, modes=(mode,), true_mode=9, horizon=5)


def test_config_rejects_mismatched_attack():
    sys = sim_benchmark_model()
    modes = benchmark_modes(sys)
    atk2 = sinusoid_attack(modes[1], 50)
    with pytest.raises(SimulationError, match="mode 2"):
        ScenarioConfig(
            model=sys, modes=tuple(modes), true_mode=1, horizon=20, attack=atk2
        )
    short = sinusoid_attack(modes[0], 10)
    with pytest.raises(SimulationError, match="cover"):
        ScenarioConfig(
            model=sys, modes=tuple(modes), true_mode=1, horizon=20, attack=short
        )


def test_config_rejects_short_known_input():
    model = _scalar_model()
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    with pytest.raises(SimulationError, match="known_input"):
        ScenarioConfig(
            model=model, modes=(mode,), true_mode=1, horizon=10,
            known_input=np.zeros((5, 1)),
        )


# --------------------------------------------------------------- pipeline


def test_single_mode_universe_matches_plain_observer():
    model = _scalar_model(eta_w=0.01, eta_v=0.002, delta_x0=0.3)
    cfg = _scalar_config(model, horizon=25, noise_seed=5)
    trace = run_pipeline(cfg)
    assert trace.fault is None
    assert all(s == (1,) for s in trace.active_sets)
    assert trace.eliminated_at == {1: None}
    assert trace.containment_violations == 0
    # replay the observer by hand and compare centroids
    (mode,) = cfg.modes
    dec = decompose_mode(model, mode)
    gains = synthesize_gains(dec, model)
    dyn = error_dynamics(dec, gains, model)
    state = init_observer(np.zeros(1), model.delta_x0)
    for k in range(26):
        state = step(state, dec, gains, dyn, np.zeros(1), trace.outputs[k], model)
        snap = trace.snapshots[k][1]
        np.testing.assert_array_equal(snap.xhat_kk, state.xhat_kk)
        assert snap.delta_x == state.delta_x


def test_benchmark_pipeline_trace_shape_and_survival():
    trace = run_pipeline(benchmark_scenario(seed=0, horizon=60))
    assert trace.fault is None
    assert trace.excluded == {}
    assert len(trace.active_sets) == 61
    # monotone elimination, true mode always present
    prev = set(trace.active_sets[0])
    for s in trace.active_sets:
        assert set(s) <= prev
        prev = set(s)
        assert 1 in s
    assert trace.containment_violations == 0
    # this plant's attack directions are invisible to every wrong-mode
    # residual (the attack maps vanish identically), so no hypothesis is
    # ever eliminated no matter the waveform: the trace must show all five
    # modes alive for the whole run
    assert trace.final_active == (1, 2, 3, 4, 5)
    assert all(v is None for v in trace.eliminated_at.values())
    # fused union keeps one ball per survivor
    for k in range(1, 61):
        g = trace.fused[k]
        assert g.active == trace.active_sets[k]
        assert len(g.state_balls) == len(g.active)
        assert len(g.input_balls) == len(g.active)


def test_benchmark_records_complete_per_step():
    trace = run_pipeline(benchmark_scenario(seed=1, horizon=30))
    for k in range(1, 31):
        recs = trace.records[k]
        assert sorted(recs) == [1, 2, 3, 4, 5]
        for q, rec in recs.items():
            assert rec.k == k  # all alive, so every record is fresh
            assert rec.delta_tri > 0
            if k <= 25:
                assert rec.delta_inf is not None
                assert rec.delta_hat == min(rec.delta_inf, rec.delta_tri)
            else:
                assert rec.delta_inf is None
                assert rec.delta_hat == rec.delta_tri
    assert trace.records[0] == {}


def _sensor_pair_model():
    return SystemModel(
        A=np.diag([0.3, 0.4]),
        B=np.array([[1.0], [0.0]]),
        C=np.eye(2),
        D=np.array([[0.0], [0.5]]),
        G=np.zeros((2, 0)),
        H=np.eye(2),
        eta_w=0.01,
        eta_v=0.001,
        delta_x0=0.2,
    )


def test_pipeline_eliminates_wrong_sensor_hypothesis():
    model = _sensor_pair_model()
    modes = enumerate_modes(0, 2, 1, model.G, model.H)
    attack = AttackSignal(mode=modes[0], values=8.0 * np.ones((41, 1)))
    cfg = ScenarioConfig(
        model=model, modes=tuple(modes), true_mode=1, horizon=40,
        attack=attack, noise_seed=9,
    )
    trace = run_pipeline(cfg)
    assert trace.fault is None
    assert trace.eliminated_at[1] is None
    assert trace.eliminated_at[2] is not None
    k_elim = trace.eliminated_at[2]
    assert trace.final_active == (1,)
    # eliminated observer frozen: snapshot stops advancing
    frozen = trace.snapshots[k_elim][2]
    later = trace.snapshots[-1][2]
    assert frozen is later
    # its last record keeps the eliminating step's flag
    assert trace.records[-1][2].eliminated is True
    assert trace.records[-1][2].k == k_elim
    # elimination count is nondecreasing and reaches Q - 1
    counts = [2 - len(s) for s in trace.active_sets]
    assert counts == sorted(counts)
    assert counts[-1] == 1
    assert trace.containment_violations == 0


def test_pipeline_all_modes_eliminated_fault():
    model = _sensor_pair_model()
    modes = enumerate_modes(0, 2, 1, model.G, model.H)
    # initial condition far outside the declared ball: the core assumption
    # is violated, so every hypothesis (true one included) gets rejected
    cfg = ScenarioConfig(
        model=model, modes=tuple(modes), true_mode=1, horizon=30,
        noise_seed=3, x0=np.array([50.0, -40.0]),
    )
    trace = run_pipeline(cfg)
    assert trace.fault is not None and "assumption" in trace.fault
    assert trace.fault_step is not None and trace.fault_step <= 5
    assert trace.final_active == ()
    assert trace.fused[-1] is None
    assert len(trace.active_sets) == trace.fault_step + 1
    assert trace.steps_recorded == trace.fault_step


def test_pipeline_excludes_infeasible_mode():
    model = SystemModel(
        A=np.diag([0.5, 0.4]),
        B=np.zeros((2, 1)),
        C=np.array([[1.0, 0.0]]),
        D=np.zeros((1, 1)),
        G=np.eye(2),
        H=np.zeros((1, 0)),
        eta_w=0.01,
        eta_v=0.001,
        delta_x0=0.1,
    )
    modes = enumerate_modes(2, 0, 1, model.G, model.H)
    cfg = ScenarioConfig(
        model=model, modes=tuple(modes), true_mode=1, horizon=10, noise_seed=0
    )
    trace = run_pipeline(cfg)
    assert 2 in trace.excluded
    assert trace.active_sets[0] == (1,)
    assert trace.fault is None
    # a config whose true mode is the unusable one must fail loudly
    cfg_bad = ScenarioConfig(
        model=model, modes=tuple(modes), true_mode=2, horizon=10, noise_seed=0
    )
    with pytest.raises(SimulationError, match="true mode 2"):
        run_pipeline(cfg_bad)


def test_pipeline_deterministic():
    def signature(trace: RunTrace):
        sig = [trace.states.tobytes(), trace.outputs.tobytes()]
        for k in range(len(trace.active_sets)):
            sig.append(tuple(trace.active_sets[k]))
            for q in sorted(trace.records[k]):
                rec = trace.records[k][q]
                sig.append((q, rec.k, rec.r_norm, rec.delta_tri, rec.delta_hat,
                            rec.delta_inf, rec.eliminated))
                sig.append(trace.snapshots[k][q].xhat_kk.tobytes())
        return sig

    cfg = benchmark_scenario(seed=7, horizon=30)
    base = signature(run_pipeline(cfg))
    again = signature(run_pipeline(benchmark_scenario(seed=7, horizon=30)))
    assert base == again


def test_zero_coefficient_keeps_input_radius_defined_after_overflow():
    # hypothesis 5 has V2*M2 = 0; once its predicted radius overflows (step
    # 961 of 1000), the zero coefficient must still contribute 0, not 0*inf
    trace = run_pipeline(benchmark_scenario(seed=0, horizon=1000, true_mode=5))
    assert trace.fault is None
    assert trace.containment_violations == 0
    for snap in trace.snapshots[1:]:
        for st in snap.values():
            assert not np.isnan(st.delta_x) and not np.isnan(st.delta_d)


def test_zero_residual_true_mode_not_eliminated_by_rounding():
    # both actuators attacked: the attack absorbs every output direction, so
    # the true mode's residual and threshold are zero in exact arithmetic
    G = np.array([[1.0, 0.2], [0.1, 0.9]])
    model = SystemModel(
        A=np.array([[0.6, 0.3], [-0.2, 0.5]]),
        B=np.zeros((2, 1)),
        C=np.array([[1.0, 0.4], [0.3, 1.2]]),
        D=np.zeros((2, 1)),
        G=G,
        H=np.zeros((2, 0)),
        eta_w=0.01,
        eta_v=1e-3,
        delta_x0=0.5,
    )
    modes = enumerate_modes(2, 0, 2, model.G, model.H)
    attack = sinusoid_attack(modes[0], 51, amplitude=20.0, bias=10.0)
    for seed in range(20):
        cfg = ScenarioConfig(
            model=model, modes=tuple(modes), true_mode=1, horizon=50,
            attack=attack, noise_seed=seed,
        )
        trace = run_pipeline(cfg)
        assert trace.fault is None, f"seed {seed}: {trace.fault}"
        assert trace.eliminated_at[1] is None
        assert trace.containment_violations == 0


# ------------------------------------------------------------ benchmark kit


def test_benchmark_scenario_defaults():
    cfg = benchmark_scenario()
    assert cfg.horizon == 200
    assert cfg.noise_seed == 0
    assert cfg.true_mode == 1
    assert len(cfg.modes) == 5
    assert cfg.attack is not None and len(cfg.attack) == 201
    assert cfg.attack.values.shape == (201, 4)


def test_sinusoid_attack_waveform():
    modes = benchmark_modes()
    atk = sinusoid_attack(modes[0], 5, amplitude=5.0, bias=2.0)
    for k in range(5):
        for j in range(4):
            expected = 2.0 + 5.0 * np.sin((0.28 + 0.06 * j) * k + 0.9 * j)
            assert atk.values[k, j] == pytest.approx(expected, abs=1e-12)


def test_attack_has_unbounded_cumulative_energy():
    modes = benchmark_modes()
    atk = sinusoid_attack(modes[0], 400)
    e200 = float(np.sum(atk.values[:200] ** 2))
    e400 = float(np.sum(atk.values[:400] ** 2))
    assert e400 > 1.9 * e200  # energy keeps accumulating linearly
