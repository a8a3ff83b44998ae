"""Observer recursion: centroids, radii, and agreement with the error dynamics."""

import dataclasses

import numpy as np
import pytest

from conftest import random_instance
from oracles import radius_recursion
from smio.decomposition import decompose_mode, error_dynamics, synthesize_gains
from smio.model import SystemModel, enumerate_modes
from smio.observer import (
    NotReadyError,
    ObserverError,
    init_observer,
    radius_sequence,
    set_estimates,
    step,
)


def _ball(rng, dim, radius):
    if dim == 0 or radius == 0.0:
        return np.zeros(dim)
    g = rng.normal(size=dim)
    g /= np.linalg.norm(g)
    return g * radius * rng.uniform() ** (1.0 / dim)


def _rollout(model, mode, d_values, x0, steps, rng):
    """Simulate the plant under true mode ``mode`` for ``steps`` transitions.

    Returns (xs, ys, us, ws, vs) with xs/ys/vs of length steps+1 and
    ws/us of length steps (us padded with a final zero input for symmetry).
    """
    n, l, m = model.n, model.l, model.m
    us = rng.normal(size=(steps + 1, m))
    ws = np.array([_ball(rng, n, model.eta_w) for _ in range(steps)])
    vs = np.array([_ball(rng, l, model.eta_v) for _ in range(steps + 1)])
    if steps == 0:
        ws = ws.reshape(0, n)
    xs = np.zeros((steps + 1, n))
    ys = np.zeros((steps + 1, l))
    xs[0] = x0
    for k in range(steps + 1):
        ys[k] = model.C @ xs[k] + model.D @ us[k] + mode.Hq @ d_values[k] + vs[k]
        if k < steps:
            xs[k + 1] = (
                model.A @ xs[k] + model.B @ us[k] + mode.Gq @ d_values[k] + ws[k]
            )
    return xs, ys, us, ws, vs


def _scalar_no_input_setup(A=0.5, ltilde=0.5, **model_kw):
    model = SystemModel(
        A=np.array([[A]]),
        B=np.zeros((1, 1)),
        C=np.array([[1.0]]),
        D=np.zeros((1, 1)),
        G=np.zeros((1, 0)),
        H=np.zeros((1, 0)),
        **model_kw,
    )
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    dec = decompose_mode(model, mode)
    gains = synthesize_gains(dec, model, override=np.array([[ltilde]]))
    dyn = error_dynamics(dec, gains, model)
    return model, mode, dec, gains, dyn


# ---------------------------------------------------------------------- init


def test_init_observer_basic():
    s = init_observer(np.zeros(5), 0.5)
    assert s.k == 0
    assert s.delta_x == 0.5
    assert s.dhat_prev is None
    s0 = init_observer(np.zeros(3), 0.0)
    assert s0.delta_x == 0.0
    with pytest.raises(ObserverError):
        init_observer(np.zeros(3), -1.0)


def test_set_estimates_not_ready_until_first_full_step():
    model, mode, dec, gains, dyn = _scalar_no_input_setup()
    s = init_observer([0.0], 0.5)
    with pytest.raises(NotReadyError):
        set_estimates(s)
    s = step(s, dec, gains, dyn, [0.0], [1.0], model)  # primes the cache only
    assert s.k == 0
    with pytest.raises(NotReadyError):
        set_estimates(s)
    s = step(s, dec, gains, dyn, [0.0], [0.5], model)
    assert s.k == 1
    xb, db = set_estimates(s)
    assert xb.radius == s.delta_x
    assert db.center.shape == (0,)


# ------------------------------------------------------------- hand examples


def test_scalar_hand_recursion():
    model, mode, dec, gains, dyn = _scalar_no_input_setup()
    # x0 = 1, xhat0 = 0, no noise, u = 0: x1 = 0.5, y = x
    s = init_observer([0.0], 1.0)
    s = step(s, dec, gains, dyn, [0.0], [1.0], model)
    s = step(s, dec, gains, dyn, [0.0], [0.5], model)
    np.testing.assert_allclose(s.xhat_kk, [0.25], atol=1e-15)
    # error 0.5 - 0.25 equals Ae * initial error
    np.testing.assert_allclose(dyn.Ae, [[0.25]], atol=1e-15)


def test_exact_tracking_from_zero(benchmark_model, benchmark_modes):
    model = dataclasses.replace(benchmark_model, eta_w=0.0, eta_v=0.0, delta_x0=0.0)
    mode = benchmark_modes[0]
    dec = decompose_mode(model, mode)
    gains = synthesize_gains(dec, model)
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore")
        dyn = error_dynamics(dec, gains, model)
    s = init_observer(np.zeros(5), 0.0)
    u = np.zeros(1)
    y = np.zeros(5)
    for _ in range(12):
        s = step(s, dec, gains, dyn, u, y, model)
        np.testing.assert_allclose(s.xhat_kk, np.zeros(5), atol=1e-14)
        resid = dec.T2 @ y - dec.C2 @ s.xhat_star - dec.D2 @ u
        np.testing.assert_allclose(resid, 0.0, atol=1e-14)
    assert s.delta_x == 0.0
    assert s.delta_d == 0.0


# ---------------------------------------------------- error-dynamics oracle


def test_recursion_matches_error_dynamics_random():
    rng = np.random.default_rng(21)
    for _ in range(12):
        model, bank = random_instance(rng, n_max=3, l_max=3)
        mode, dec, gains, dyn = bank[0]
        steps = 10
        d_values = rng.normal(scale=5.0, size=(steps + 1, mode.rho))
        e0 = _ball(rng, model.n, model.delta_x0)
        xhat0 = rng.normal(size=model.n)
        xs, ys, us, ws, vs = _rollout(model, mode, d_values, xhat0 + e0, steps, rng)

        s = init_observer(xhat0, model.delta_x0)
        e_kk = xs[0] - xhat0
        for k in range(steps + 1):
            s = step(s, dec, gains, dyn, us[k], ys[k], model)
            if k == 0:
                continue
            e_star = (
                dyn.Abar @ e_kk
                + dyn.Bew_star @ ws[k - 1]
                + dyn.Bev1_star @ vs[k - 1]
                + dyn.Bev2_star @ vs[k]
            )
            e_kk = (
                dyn.Ae @ e_kk
                + dyn.Bew @ ws[k - 1]
                + dyn.Bev1 @ vs[k - 1]
                + dyn.Bev2 @ vs[k]
            )
            assert s.k == k
            np.testing.assert_allclose(xs[k] - s.xhat_star, e_star, atol=1e-8)
            np.testing.assert_allclose(xs[k] - s.xhat_kk, e_kk, atol=1e-8)


# ---------------------------------------------------------------- containment


def test_containment_under_attack_random():
    rng = np.random.default_rng(33)
    for _ in range(25):
        model, bank = random_instance(rng)
        mode, dec, gains, dyn = bank[int(rng.integers(len(bank)))]
        steps = 30
        d_values = rng.normal(scale=10.0, size=(steps + 1, mode.rho))
        xhat0 = rng.normal(size=model.n)
        x0 = xhat0 + _ball(rng, model.n, model.delta_x0)
        xs, ys, us, _ws, _vs = _rollout(model, mode, d_values, x0, steps, rng)

        s = init_observer(xhat0, model.delta_x0)
        for k in range(steps + 1):
            s = step(s, dec, gains, dyn, us[k], ys[k], model)
            if k == 0:
                continue
            xball, dball = set_estimates(s)
            slack = 1e-9 * (1.0 + xball.radius)
            assert xball.contains(xs[k], slack=slack), (k, model.n)
            assert dball.contains(d_values[k - 1], slack=slack), (k, mode.rho)


# --------------------------------------------------------------------- radii


def test_radius_fixed_point_when_contractive():
    model, mode, dec, gains, dyn = _scalar_no_input_setup(
        A=0.5, ltilde=0.5, eta_w=0.01, eta_v=0.005, delta_x0=1.0
    )
    assert dyn.theta == pytest.approx(0.25)
    s = init_observer([0.0], model.delta_x0)
    y = [0.0]
    u = [0.0]
    for _ in range(120):
        s = step(s, dec, gains, dyn, u, y, model)
    # fixed point of delta = theta*delta + |Bew| eta_w + (|Bev1|+|Bev2|) eta_v
    expected = (0.5 * 0.01 + 0.5 * 0.005) / (1 - 0.25)
    assert s.delta_x == pytest.approx(expected, abs=1e-12)


def test_radius_collapses_without_noise():
    model, mode, dec, gains, dyn = _scalar_no_input_setup(delta_x0=1.0)
    s = init_observer([0.0], 1.0)
    radii = [s.delta_x]
    for _ in range(25):
        s = step(s, dec, gains, dyn, [0.0], [0.0], model)
        radii.append(s.delta_x)
    assert all(b <= a for a, b in zip(radii[1:], radii[2:]))
    assert radii[-1] < 1e-9
    assert s.delta_d < 1e-9


def test_radius_recursion_coefficients():
    rng = np.random.default_rng(8)
    model, bank = random_instance(rng)
    mode, dec, gains, dyn = bank[0]
    s = init_observer(np.zeros(model.n), model.delta_x0)
    s = step(s, dec, gains, dyn, np.zeros(model.m), np.zeros(model.l), model)
    s1 = step(s, dec, gains, dyn, np.zeros(model.m), np.zeros(model.l), model)

    def n2(M):
        return np.linalg.norm(M, 2) if M.size else 0.0

    expected_x = (
        dyn.theta * model.delta_x0
        + n2(dyn.Bew) * model.eta_w
        + (n2(dyn.Bev1) + n2(dyn.Bev2)) * model.eta_v
    )
    assert s1.delta_x == pytest.approx(expected_x, rel=1e-12)
    At = model.A - dec.G1 @ gains.M1 @ dec.C1
    d_pred = n2(At) * model.delta_x0 + n2(dec.G1 @ gains.M1 @ dec.T1) * model.eta_v + model.eta_w
    expected_d = n2(dec.V1 @ gains.M1) * (n2(dec.C1) * model.delta_x0 + model.eta_v) + n2(
        dec.V2 @ gains.M2
    ) * (n2(dec.C2) * d_pred + model.eta_v)
    assert s1.delta_d == pytest.approx(expected_d, rel=1e-12)


# ------------------------------------------------------------------- errors


def test_dimension_mismatch_rejected(benchmark_model, benchmark_modes):
    mode = benchmark_modes[0]
    dec = decompose_mode(benchmark_model, mode)
    gains = synthesize_gains(dec, benchmark_model)
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore")
        dyn = error_dynamics(dec, gains, benchmark_model)
    s = init_observer(np.zeros(5), 0.5)
    with pytest.raises(ObserverError, match="length"):
        step(s, dec, gains, dyn, np.zeros(1), np.zeros(4), benchmark_model)
    with pytest.raises(ObserverError, match="length"):
        step(s, dec, gains, dyn, np.zeros(2), np.zeros(5), benchmark_model)


def _assert_radii_match_full_recursion(dyn, model, steps):
    """radius_sequence equals every step of the recursion, byte for byte;
    returns the first step whose delta_x repeats the one before (None if
    none does)."""
    got, want = radius_sequence(dyn, model, steps), radius_recursion(dyn, model, steps)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    repeats = np.flatnonzero(want[0][1:] == want[0][:-1])
    return int(repeats[0]) + 1 if repeats.size else None


@pytest.mark.filterwarnings("ignore::smio.decomposition.ConservativeRadiusWarning")
def test_radius_tail_matches_full_recursion_on_builtin_plant():
    from smio.sim import benchmark_model, build_bank, benchmark_modes

    model = benchmark_model()
    bank, _ = build_bank(model, benchmark_modes(model))
    tails = [_assert_radii_match_full_recursion(bank[q][3], model, 1000) for q in sorted(bank)]
    # every built-in hypothesis overflows to a repeating inf inside 1000 steps
    assert all(k is not None and k < 1000 for k in tails), tails


@pytest.mark.filterwarnings("ignore::smio.decomposition.ConservativeRadiusWarning")
def test_radius_tail_matches_full_recursion_on_random_banks():
    rng = np.random.default_rng(64)
    tails = 0
    for _ in range(80):
        model, bank = random_instance(rng)
        for _mode, _dec, _gains, dyn in bank:
            tails += _assert_radii_match_full_recursion(dyn, model, 400) is not None
    assert tails >= 40


@pytest.mark.parametrize("delta_x0", [0.0, -0.0, 1.0])
@pytest.mark.parametrize("eta", [0.0, 0.01])
def test_radius_tail_matches_full_recursion_at_zero_radii(delta_x0, eta):
    model, _mode, _dec, _gains, dyn = _scalar_no_input_setup(
        A=0.5, ltilde=0.5, eta_w=eta, eta_v=eta, delta_x0=delta_x0
    )
    # theta = 0.25: a radius of 1.0 with no noise underflows to 0.0 near step 537
    tail = _assert_radii_match_full_recursion(dyn, model, 700)
    assert tail is not None
    if eta == 0.0 and delta_x0 == 0.0:
        assert tail == 1  # a zero radius with no noise is a fixed point from the first step


def _builtin_dynamics():
    import warnings

    from smio.sim import benchmark_model, benchmark_modes, build_bank

    model = benchmark_model()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bank, _ = build_bank(model, benchmark_modes(model))
    return model, bank[1][3]


def test_radius_sequence_with_theta_zero():
    model, dyn = _builtin_dynamics()
    model = dataclasses.replace(model, delta_x0=1.0)
    dyn = dataclasses.replace(dyn, theta=0.0)
    # the first step forgets delta_x0; the second repeats the first
    assert _assert_radii_match_full_recursion(dyn, model, 50) == 2


@pytest.mark.parametrize("zero", ["a_pred", "c1", "c2", "v1m1", "v2m2"])
def test_radius_sequence_zero_coefficient_times_inf_radius(zero):
    model, dyn = _builtin_dynamics()
    # delta_x overflows to inf at step 1; a zero coefficient still gives 0
    model = dataclasses.replace(model, delta_x0=1e308)
    dyn = dataclasses.replace(dyn, theta=4.0, **{zero: 0.0})
    assert _assert_radii_match_full_recursion(dyn, model, 30) == 2
    delta_x, delta_d = radius_sequence(dyn, model, 30)
    assert np.isinf(delta_x[1:]).all() and not np.isnan(delta_d[1:]).any()


def test_radius_sequence_with_nan_initial_radius():
    model, dyn = _builtin_dynamics()
    model = dataclasses.replace(model, delta_x0=float("nan"))
    # NaN never repeats itself, so every step is taken
    assert _assert_radii_match_full_recursion(dyn, model, 40) is None
    delta_x, delta_d = radius_sequence(dyn, model, 40)
    assert np.isnan(delta_x).all() and np.isnan(delta_d).all()
