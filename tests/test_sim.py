"""Plant simulation, pipeline orchestration, and trace invariants."""

import dataclasses
import inspect
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_instance
from oracles import per_mode_xhat, stepwise_pipeline, stepwise_simulate
from smio import sim
from smio.decomposition import decompose_mode, error_dynamics, synthesize_gains
from smio.model import AttackSignal, SystemModel, enumerate_modes
from smio.modeguard import ThresholdTracker, residual_scale
from smio.observer import _stages, init_observer, run_bank, step
from smio.sim import (
    FAULT_ELIMINATED,
    FAULT_NONFINITE,
    HORIZON_MAX,
    RunTrace,
    ScenarioConfig,
    SimulationError,
    benchmark_modes,
    benchmark_scenario,
    build_bank,
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


def _noise_shape(n, l, eta_w, eta_v):
    """The fields of a model that ``sim._noise`` reads."""
    return SimpleNamespace(n=n, l=l, eta_w=eta_w, eta_v=eta_v)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_noise_rows_are_uniform_on_their_balls(dim):
    # each row is uniform on its ball: within the bound, and its radius
    # follows r^(1/dim), so P(|x| > 0.9 eta) = 1 - 0.9^dim, P(|x| <= eta/2) = 0.5^dim
    eta_w, eta_v = 0.3, 2.0
    ws, vs = sim._noise(_noise_shape(dim, dim, eta_w, eta_v), 4000, np.random.default_rng(3))
    assert ws.shape == (4000, dim) and vs.shape == (4001, dim)
    for rows, eta in ((ws, eta_w), (vs, eta_v)):
        radii = np.linalg.norm(rows, axis=1) / eta
        assert radii.max() <= 1 + 1e-12
        assert radii.max() > 0.999
        assert abs(np.mean(radii > 0.9) - (1 - 0.9**dim)) < 0.03
        assert abs(np.mean(radii <= 0.5) - 0.5**dim) < 0.03


@pytest.mark.parametrize("zero", ["eta_w", "eta_v"])
def test_noise_rows_of_a_zero_bound_are_positive_zeros(zero):
    bounds = {"eta_w": 0.3, "eta_v": 2.0, zero: 0.0}
    ws, vs = sim._noise(_noise_shape(3, 2, **bounds), 500, np.random.default_rng(4))
    rows = ws if zero == "eta_w" else vs
    assert rows.shape[0] in (500, 501)
    assert not rows.any() and not np.signbit(rows).any()
    other = vs if zero == "eta_w" else ws
    assert np.signbit(other).any()  # the other ball's rows are live


def test_ball_row_whose_draws_are_all_zero_is_positive_zero():
    g = np.array([[-0.0, 0.0], [3.0, -4.0]])
    sim._to_ball(g, 5.0, np.array([0.25, 0.25]))
    assert not g[0].any() and not np.signbit(g[0]).any()
    assert np.array_equal(g[1], [1.5, -2.0])  # 5 * 0.25**(1/2) / 5 = 0.5


@pytest.mark.parametrize("n, l", [(0, 3), (2, 0), (0, 0)])
def test_noise_ball_of_dimension_zero_draws_nothing(n, l):
    N = 50
    rng = np.random.default_rng(5)
    ws, vs = sim._noise(_noise_shape(n, l, 0.3, 2.0), N, rng)
    assert ws.shape == (N, n) and vs.shape == (N + 1, l)
    # the stream holds only the other ball's directions and radii
    ref = np.random.default_rng(5)
    balls = [(rows, dim) for rows, dim in ((N + 1, l), (N, n)) if dim]
    for rows, dim in balls:
        ref.standard_normal((rows, dim))
    ref.random(sum(rows for rows, _dim in balls))
    assert rng.bit_generator.state == ref.bit_generator.state


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


def test_horizon_above_cap_rejected_before_the_attack_is_built():
    with pytest.raises(SimulationError, match=f"at most {HORIZON_MAX}, got {10**12}"):
        benchmark_scenario(horizon=10**12)
    cfg = benchmark_scenario(horizon=5)
    with pytest.raises(SimulationError, match=f"at most {HORIZON_MAX}"):
        dataclasses.replace(cfg, horizon=HORIZON_MAX + 1)


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


def _fused(trace, k):
    """The fused estimate at step k in the array form ``RunTrace`` documents:
    per surviving mode, its state ball (centre, radius) and input ball."""
    return [
        ((trace.xhat[k, i], trace.delta_x[k, i]), (trace.dhat[k, i], trace.delta_d[k, i]))
        for i, q in enumerate(trace.mode_ids)
        if q in trace.active_sets[k]
    ]


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
    # fused union keeps one finite state ball and one input ball per survivor
    for k in range(1, 61):
        balls = _fused(trace, k)
        assert len(balls) == len(trace.active_sets[k]) == 5
        for (xc, xr), (dc, dr) in balls:
            assert xc.shape == (5,) and dc.shape == (4,)
            assert np.isfinite([*xc, xr, *dc, dr]).all()


def test_benchmark_records_complete_per_step():
    trace = run_pipeline(benchmark_scenario(seed=1, horizon=30))
    assert trace.mode_ids == (1, 2, 3, 4, 5)
    assert trace.r_norm.shape == trace.delta_inf.shape == (31, 5)
    # no residual test at step 0
    assert not trace.live[0].any()
    assert np.isnan(trace.r_norm[0]).all() and np.isnan(trace.delta_hat[0]).all()
    for k in range(1, 31):
        assert trace.live[k].all()  # all alive, so every step is tested
        for i in range(5):
            assert np.isfinite(trace.r_norm[k, i])
            assert trace.delta_tri[k, i] > 0
            if k <= 25:
                assert not np.isnan(trace.delta_inf[k, i])
                assert trace.delta_hat[k, i] == min(trace.delta_inf[k, i], trace.delta_tri[k, i])
            else:
                assert np.isnan(trace.delta_inf[k, i])
                assert trace.delta_hat[k, i] == trace.delta_tri[k, i]


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
    # its last residual test is the eliminating step's, and it fails
    assert trace.live[k_elim, 1] and not trace.live[k_elim + 1 :, 1].any()
    assert trace.r_norm[k_elim, 1] > trace.delta_hat[k_elim, 1]
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
    assert _fused(trace, -1) == []
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
        sig = [trace.states.tobytes(), trace.outputs.tobytes(), trace.active_sets]
        sig.append(sorted(trace.eliminated_at.items()))
        for name in ("r_norm", "delta_inf", "delta_tri", "delta_hat", "live", "xhat"):
            sig.append(getattr(trace, name).tobytes())
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


# ------------------------------------------------ the stepwise oracle

QUIET = pytest.mark.filterwarnings(
    "ignore::smio.decomposition.ConservativeRadiusWarning",
    "ignore::smio.model.DegenerateModeWarning",
)

# run_pipeline takes every stage in one matrix product for the whole horizon
# where the oracle takes one matrix-vector product per step, so estimates may
# move at rounding level; everything decided or data-independent must not
# move.  Estimates are compared relative to the vector's largest entry.  The
# residual norm is compared relative to r_norm plus residual_scale(), not to
# r_norm alone: a residual is a difference of the terms residual_scale()
# sizes, and on the random banks below a residual of 6e-7 against terms of
# order 1 moves by 5e-10 of itself, while a zero residual map leaves rounding
# dust (0 against 4e-16) whose relative change means nothing.
REL = 1e-12


def _assert_close(actual, expected, what):
    """``actual`` within REL of ``expected``, relative to its largest entry."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    size = float(np.max(np.abs(expected), initial=0.0))
    assert np.max(np.abs(actual - expected), initial=0.0) <= REL * size, what


def _assert_matches_stepwise(trace, ref):
    bank, _ = sim.build_bank(trace.config.model, trace.config.modes)
    assert trace.active_sets == ref.active_sets
    assert trace.eliminated_at == ref.eliminated_at
    assert trace.excluded == ref.excluded
    assert (trace.fault, trace.fault_step) == (ref.fault, ref.fault_step)
    assert trace.containment_violations == ref.containment_violations
    assert len(trace.snapshots) == len(ref.snapshots) == len(ref.records) == trace.live.shape[0]
    for k, (snap, want_snap) in enumerate(zip(trace.snapshots, ref.snapshots)):
        assert snap.keys() == want_snap.keys()
        for q, st in snap.items():
            want = want_snap[q]
            where = f"step {k}, mode {q}"
            assert (st.k, st.delta_x, st.delta_d) == (want.k, want.delta_x, want.delta_d), where
            _assert_close(st.xhat_kk, want.xhat_kk, where)
            _assert_close(st.xhat_star, want.xhat_star, where)
            if want.dhat_prev is None:
                assert st.dhat_prev is None, where
            else:
                _assert_close(st.dhat_prev, want.dhat_prev, where)
    # the oracle's latest record of each mode is fresh at the steps the
    # trace marks live; the trace's entries are NaN at every other step
    for k, want_recs in enumerate(ref.records):
        assert set(want_recs) <= set(trace.mode_ids)
        for i, q in enumerate(trace.mode_ids):
            want = want_recs.get(q)
            where = f"step {k}, mode {q}"
            got = [trace.delta_inf[k, i], trace.delta_tri[k, i], trace.delta_hat[k, i]]
            if want is None or want.k != k:
                assert not trace.live[k, i], where
                assert np.isnan([trace.r_norm[k, i], *got]).all(), where
                continue
            assert trace.live[k, i], where
            got[0] = None if np.isnan(got[0]) else got[0]
            got.append(k == trace.eliminated_at[q])
            want_fields = [want.delta_inf, want.delta_tri, want.delta_hat, want.eliminated]
            assert got == want_fields, where
            xstar = ref.snapshots[k][q].xhat_star
            u, y = trace.inputs[k], trace.outputs[k]
            scale = residual_scale(bank[q][1], xstar, u, y)
            assert abs(trace.r_norm[k, i] - want.r_norm) <= REL * (want.r_norm + scale), where


@QUIET
def test_pipeline_matches_stepwise_oracle_on_random_banks():
    rng = np.random.default_rng(60)
    horizon = 60
    compared = eliminated = 0
    while compared < 40:
        model, bank = random_instance(rng)
        modes = tuple(mode for mode, *_ in bank)
        true = modes[int(rng.integers(len(modes)))]
        cfg = ScenarioConfig(
            model=model,
            modes=modes,
            true_mode=true.id,
            horizon=horizon,
            attack=sinusoid_attack(true, horizon + 1) if true.rho else None,
            known_input=rng.normal(size=(horizon + 1, model.m)),
            noise_seed=int(rng.integers(1 << 16)),
        )
        try:
            ref = stepwise_pipeline(cfg)
        except SimulationError:  # the drawn true mode is not strongly detectable
            continue
        _assert_matches_stepwise(run_pipeline(cfg), ref)
        compared += 1
        eliminated += sum(k is not None for k in ref.eliminated_at.values())
    assert eliminated >= 10  # the campaign exercises elimination, not just survival


@QUIET
@pytest.mark.parametrize("true_mode", [1, 2, 3, 4, 5])
def test_pipeline_matches_stepwise_oracle_on_builtin_plant(true_mode):
    cfg = benchmark_scenario(seed=0, horizon=1000, true_mode=true_mode)
    _assert_matches_stepwise(run_pipeline(cfg), stepwise_pipeline(cfg))


def test_pipeline_matches_stepwise_oracle_when_all_modes_eliminated():
    model = _sensor_pair_model()
    modes = enumerate_modes(0, 2, 1, model.G, model.H)
    cfg = ScenarioConfig(
        model=model, modes=tuple(modes), true_mode=1, horizon=30,
        noise_seed=3, x0=np.array([50.0, -40.0]),
    )
    trace = run_pipeline(cfg)
    assert trace.fault_kind == FAULT_ELIMINATED
    _assert_matches_stepwise(trace, stepwise_pipeline(cfg))


def _late_attack_config(onset, horizon=60):
    """The sensor pair with mode 1's attack switched on at ``onset``: mode 2
    is eliminated at the onset step, past the default cutoff of 25."""
    model = _sensor_pair_model()
    modes = enumerate_modes(0, 2, 1, model.G, model.H)
    values = np.zeros((horizon + 1, 1))
    values[onset:] = 8.0
    return ScenarioConfig(
        model=model, modes=tuple(modes), true_mode=1, horizon=horizon,
        attack=AttackSignal(mode=modes[0], values=values), noise_seed=9,
    )


# the walk's passes from step 26 test the steps of the levels computed so
# far, whose blocks double from 1 level up to the cap: with a cap of 1 each
# step is its own block (so 33 and the horizon's last step 60 are each a
# block's first and last step); a cap of 7 gives [26..28], [29..35],
# [36..42], [43..49], ...; the default cap of 256 gives [26..31], [32..63]
@pytest.mark.parametrize(
    "cap, onset",
    [(1, 33), (1, 60), (7, 36), (7, 42), (None, 26), (None, 31), (None, 32)],
    ids=["1-first", "1-last", "7-first", "7-last", "256-first", "256-last", "256-next-first"],
)
def test_pipeline_matches_stepwise_oracle_when_the_walk_eliminates(monkeypatch, cap, onset):
    if cap is not None:
        monkeypatch.setattr(ThresholdTracker, "_BLOCK_CAP", cap)
    cfg = _late_attack_config(onset)
    assert cfg.k_inf_cutoff < onset
    trace = run_pipeline(cfg)
    assert trace.eliminated_at == {1: None, 2: onset}
    _assert_matches_stepwise(trace, stepwise_pipeline(cfg))
    # nothing computed past the eliminating step is kept
    assert np.isnan(trace.delta_tri[onset + 1 :, 1]).all()
    assert np.isnan(trace.delta_hat[onset + 1 :, 1]).all()
    assert not trace.live[onset + 1 :, 1].any()


# campaign draws whose true hypothesis has an identically zero residual map
# (the attack absorbs every output direction): rounding must never eliminate it
ZERO_RESIDUAL_PLANTS = {
    "t_a=2,t_s=0,rho=2": (
        dict(
            A=[[0.02993723377136106, 1.5293898571713183], [-0.3987526055792522, 0.8519704604730814]],
            B=[[-0.6500054800257842, 0.31856695040419375], [-1.713199748549673, 0.30681066512778404]],
            C=[[-0.30392422923982043, -1.0187327508691342], [0.24554160027489663, 1.9854493439137881]],
            D=[[0.15368264205596377, -0.28638130096440023], [-1.883569073125047, 0.939597914555303]],
            G=[[-0.16434424416127272, -2.0596880068559007], [0.7422918149796733, 1.0490552774730981]],
            H=np.zeros((2, 0)),
            eta_w=0.024274284520908473,
            eta_v=0.00309983243879645,
            delta_x0=0.23109188269699082,
        ),
        (2, 0, 2),
    ),
    "t_a=2,t_s=1,rho=2": (
        dict(
            A=[[0.07864099020475283, -0.23412794419138613], [-0.9508935709862443, 0.37582358467129906]],
            B=[[0.36434918067934874, -0.10806529766399951], [-1.4438627306532346, -2.2417141696901224]],
            C=[[1.222358400927392, 1.021026031451519], [-1.4689137019552276, 1.9989137860876651]],
            D=[[1.1496954550006708, -0.03425819012248541], [1.1113063953886035, 1.0209483873993648]],
            G=[[0.6442202074667516, -0.21110179220410072], [-0.40743027334317444, 1.98985982005788]],
            H=[[-0.22227967911069588], [0.37687947072732314]],
            eta_w=0.020365819423796717,
            eta_v=0.0005487686680931004,
            delta_x0=0.25914996073683555,
        ),
        (2, 1, 2),
    ),
}


@QUIET
@pytest.mark.parametrize("plant", sorted(ZERO_RESIDUAL_PLANTS))
def test_pipeline_matches_stepwise_oracle_on_zero_residual_true_mode(plant):
    entries, (t_a, t_s, rho) = ZERO_RESIDUAL_PLANTS[plant]
    model = SystemModel(**{k: np.asarray(v, dtype=float) for k, v in entries.items()})
    modes = tuple(enumerate_modes(t_a, t_s, rho, model.G, model.H))
    attack = sinusoid_attack(modes[0], 101, amplitude=5.0, bias=2.0)
    for seed in range(20):
        cfg = ScenarioConfig(
            model=model, modes=modes, true_mode=1, horizon=100, attack=attack, noise_seed=seed
        )
        trace = run_pipeline(cfg)
        assert trace.fault is None, f"seed {seed}: {trace.fault}"
        assert trace.eliminated_at[1] is None, f"seed {seed}"
        _assert_matches_stepwise(trace, stepwise_pipeline(cfg))


def test_trace_arrays_are_read_only():
    trace = run_pipeline(benchmark_scenario(seed=0, horizon=10))
    arrays = (trace.xhat, trace.dhat, trace.delta_x, trace.delta_hat, trace.live)
    for arr in arrays + (trace.snapshots[3][1].xhat_star,):
        with pytest.raises(ValueError):
            arr[...] = 0


# ------------------------------------------------------- non-finite data


def _overflowing_plant_config():
    # the plant grows 40-fold per step, so its outputs overflow near step 194
    model = SystemModel(
        A=np.array([[40.0]]),
        B=np.zeros((1, 1)),
        C=np.array([[1.0], [1.0]]),
        D=np.zeros((2, 1)),
        G=np.zeros((1, 0)),
        H=np.eye(2),
        eta_w=0.01,
        eta_v=0.001,
        delta_x0=0.1,
    )
    modes = enumerate_modes(0, 2, 1, model.G, model.H)
    return ScenarioConfig(
        model=model, modes=tuple(modes), true_mode=1, horizon=300,
        noise_seed=0, x0=np.array([0.05]),
    )


def test_nonfinite_output_stops_the_run_with_a_fault():
    cfg = _overflowing_plant_config()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_pipeline(cfg)
    bad = int(np.flatnonzero(~np.isfinite(trace.outputs).all(axis=1))[0])
    assert 0 < bad < cfg.horizon
    assert trace.fault_kind == FAULT_NONFINITE
    assert trace.fault_step == bad
    assert f"step {bad}" in trace.fault
    # the steps before the bad one are recorded, and nothing in them is NaN
    assert trace.steps_recorded == bad - 1
    assert trace.final_active == (1, 2)
    assert trace.containment_violations == 0
    assert np.isfinite(trace.r_norm[trace.live]).all()
    assert np.isfinite(trace.xhat).all()
    # no observer saw the non-finite data: only the plant itself overflows
    lines, start = inspect.getsourcelines(sim._simulate)
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            assert w.filename == sim.__file__, w
            assert start <= w.lineno < start + len(lines), w


def test_overflowing_plant_stops_stepping_without_warnings():
    cfg = _overflowing_plant_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        xs, ys = simulate_plant(cfg)
        trace = run_pipeline(cfg)
    assert trace.fault_kind == FAULT_NONFINITE
    assert trace.fault_step == 194
    # the state that overflowed is kept; nothing is stepped past it
    assert np.isfinite(xs[:194]).all() and np.isfinite(ys[:194]).all()
    assert not np.isfinite(ys[194]).all()
    assert np.isnan(xs[195:]).all() and np.isnan(ys[195:]).all()


# ------------------------------------------- byte identity with step-at-a-time forms


def _same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_simulates_like_stepwise(cfg):
    got, want = simulate_plant(cfg), stepwise_simulate(cfg)
    assert _same_bytes(got[0], want[0]), "states"
    assert _same_bytes(got[1], want[1]), "outputs"


def _random_config(rng, horizon):
    """A random bank's plant under one of its hypotheses, with a nonzero
    known input; returns ``(config, bank)``."""
    model, bank = random_instance(rng)
    modes = tuple(mode for mode, *_ in bank)
    true = modes[int(rng.integers(len(modes)))]
    cfg = ScenarioConfig(
        model=model,
        modes=modes,
        true_mode=true.id,
        horizon=horizon,
        attack=sinusoid_attack(true, horizon + 1) if true.rho else None,
        known_input=rng.normal(size=(horizon + 1, model.m)),
        noise_seed=int(rng.integers(1 << 16)),
    )
    return cfg, bank


@pytest.mark.parametrize("true_mode", [1, 2, 3, 4, 5])
def test_simulation_matches_stepwise_oracle_bytes_on_builtin_plant(true_mode):
    _assert_simulates_like_stepwise(benchmark_scenario(seed=0, horizon=1000, true_mode=true_mode))


@QUIET
def test_simulation_matches_stepwise_oracle_bytes_on_random_plants():
    rng = np.random.default_rng(61)
    two_inputs = attacked = unattacked = 0
    for _ in range(200):
        cfg, _bank = _random_config(rng, int(rng.integers(1, 120)))
        _assert_simulates_like_stepwise(cfg)
        two_inputs += cfg.model.m == 2
        attacked += cfg.attack is not None
        unattacked += cfg.attack is None
    assert min(two_inputs, attacked, unattacked) >= 20


@pytest.mark.parametrize("zero", ["eta_w", "eta_v", "both"])
def test_simulation_with_a_zero_noise_bound_keeps_the_stream(zero):
    full = sim_benchmark_model()
    names = ("eta_w", "eta_v") if zero == "both" else (zero,)
    model = dataclasses.replace(full, **{name: 0.0 for name in names})
    modes = benchmark_modes(model)
    cfg = ScenarioConfig(
        model=model, modes=tuple(modes), true_mode=2, horizon=300,
        attack=sinusoid_attack(modes[1], 301), noise_seed=4,
    )
    _assert_simulates_like_stepwise(cfg)
    # a zero bound draws its directions and radii all the same: the other
    # noise is the one drawn with both bounds on, and the zero rows are +0.0
    ws, vs = sim._noise(model, 300, np.random.default_rng(8))
    ws_full, vs_full = sim._noise(full, 300, np.random.default_rng(8))
    for name, got, want in (("eta_w", ws, ws_full), ("eta_v", vs, vs_full)):
        assert _same_bytes(got, np.zeros_like(want) if name in names else want), name


def test_overflowing_plant_matches_stepwise_oracle_bytes():
    _assert_simulates_like_stepwise(_overflowing_plant_config())


def _assert_bank_matches_per_mode(cfg):
    """run_pipeline's estimates and residuals equal, byte for byte, those of
    each observer stepped on its own, up to the step it was eliminated at
    (the run must have no non-finite output)."""
    trace = run_pipeline(cfg)
    assert trace.fault_kind != FAULT_NONFINITE
    model, N = cfg.model, cfg.horizon
    bank, _ = build_bank(model, cfg.modes)
    u, y = trace.inputs[: N + 1], trace.outputs
    xhat0 = cfg.xhat0 if cfg.xhat0 is not None else np.zeros(model.n)
    for i, q in enumerate(trace.mode_ids):
        _mode, dec, gains, dyn = bank[q]
        xkk = per_mode_xhat(dec, gains, dyn, model, xhat0, u, y)
        xstar, dhat, _, r = _stages(dec, gains, model, xkk[:-1], u[:-1], y[:-1], u[1:], y[1:])
        last = trace.eliminated_at[q] or trace.steps_recorded
        assert _same_bytes(np.ascontiguousarray(trace.xhat[: last + 1, i]), xkk[: last + 1]), q
        snap_xstar = np.array([trace.snapshots[k][q].xhat_star for k in range(1, last + 1)])
        # the stages' rows start at step 1
        for name, got, want in (
            ("xhat_star", snap_xstar.reshape(last, model.n), xstar),
            ("dhat", trace.dhat[1:, i], dhat),
            ("r_norm", trace.r_norm[1:, i], np.linalg.norm(r, axis=1)),
        ):
            assert _same_bytes(np.ascontiguousarray(got[:last]), want[:last]), (q, name)


@QUIET
@pytest.mark.parametrize("true_mode", [1, 2, 3, 4, 5])
def test_bank_recursion_matches_per_mode_oracle_bytes_on_builtin_plant(true_mode):
    _assert_bank_matches_per_mode(benchmark_scenario(seed=0, horizon=1000, true_mode=true_mode))


@QUIET
def test_bank_recursion_matches_per_mode_oracle_bytes_on_random_banks():
    rng = np.random.default_rng(62)
    compared = multi = 0
    while compared < 60:
        cfg, bank = _random_config(rng, int(rng.integers(1, 150)))
        try:
            _assert_bank_matches_per_mode(cfg)
        except SimulationError:  # the drawn true mode is not strongly detectable
            continue
        compared += 1
        multi += len(bank) > 1
    assert multi >= 20


@QUIET
def test_run_bank_steps_every_member_like_the_per_mode_oracle():
    rng = np.random.default_rng(63)
    for _ in range(40):
        cfg, bank = _random_config(rng, 80)
        _xs, ys = simulate_plant(cfg)
        u = cfg.inputs
        xhat0 = rng.normal(size=cfg.model.n)
        xhat = np.empty((81, len(bank), cfg.model.n))
        run_bank([member[1:] for member in bank], cfg.model, xhat0, u, ys, xhat)
        for i, (_mode, dec, gains, dyn) in enumerate(bank):
            want = per_mode_xhat(dec, gains, dyn, cfg.model, xhat0, u, ys)
            assert _same_bytes(np.ascontiguousarray(xhat[:, i]), want), i


# ------------------------------------------------------------ benchmark kit


def test_benchmark_scenario_defaults():
    cfg = benchmark_scenario()
    assert cfg.horizon == 200
    assert cfg.noise_seed == 0
    assert cfg.true_mode == 1
    assert len(cfg.modes) == 5
    assert cfg.attack is not None and len(cfg.attack) == 201
    assert cfg.attack.values.shape == (201, 4)


@pytest.mark.parametrize("true_mode", [0, 9])
def test_benchmark_scenario_rejects_an_unknown_true_mode(true_mode):
    with pytest.raises(SimulationError, match=f"true mode {true_mode} is not in"):
        benchmark_scenario(true_mode=true_mode)


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
