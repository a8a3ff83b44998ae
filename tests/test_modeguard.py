"""Residual thresholds, elimination, fusion, and distinguishability checks."""

import dataclasses
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smio import modeguard
from smio.decomposition import decompose_mode, error_dynamics, synthesize_gains
from smio.model import enumerate_modes
from smio.modeguard import (
    AllModesEliminatedError,
    DivergenceError,
    StackedResidualModel,
    ThresholdTracker,
    UnsupportedPairError,
    build_stacked,
    detectability_report,
    eliminate,
    eta_t,
    fuse,
    residual,
    stacked_residual_general,
    threshold_inf,
    threshold_tri,
    tri_limit,
)
from smio.observer import SetEstimate, init_observer, step
from smio.sim import build_bank

from conftest import random_instance
from oracles import (
    PerLevelThresholds,
    ResidualRecord,
    brute_force_vertex_max,
    hypercube_vertex_norm,
    residual_conditioned,
    scalar_tri_series_limit,
    stacked_blocks_direct,
    vertex_max_one_shot,
    vertex_values_exact,
    vertex_values_one_shot,
)


def _ball(rng, dim, radius):
    if dim == 0:
        return np.zeros(0)
    g = rng.standard_normal(dim)
    g /= np.linalg.norm(g) + 1e-300
    return radius * rng.uniform() ** (1.0 / dim) * g


def _rollout(model, mode, d_values, x0, steps, rng, u_values=None, noise=True):
    """Simulate the plant under the given mode and return all signals."""
    n, m, l = model.n, model.m, model.l
    us = u_values if u_values is not None else rng.standard_normal((steps + 1, m))
    ws = np.zeros((steps, n))
    vs = np.zeros((steps + 1, l))
    if noise:
        for k in range(steps):
            ws[k] = _ball(rng, n, model.eta_w)
        for k in range(steps + 1):
            vs[k] = _ball(rng, l, model.eta_v)
    xs = np.zeros((steps + 1, n))
    ys = np.zeros((steps + 1, l))
    xs[0] = x0
    for k in range(steps + 1):
        d_k = d_values[k] if mode.rho else np.zeros(0)
        ys[k] = model.C @ xs[k] + model.D @ us[k] + mode.Hq @ d_k + vs[k]
        if k < steps:
            xs[k + 1] = model.A @ xs[k] + model.B @ us[k] + mode.Gq @ d_k + ws[k]
    return xs, ys, us, ws, vs


def _stack_noise(e0, ws, vs, k):
    return np.concatenate([e0, ws[:k].ravel(), vs[: k + 1].ravel()])


def _small_sensor_pair():
    """Two sensor modes with matching residual dimension, theta < 1."""
    from smio.model import SystemModel

    model = SystemModel(
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
    modes = enumerate_modes(0, 2, 1, model.G, model.H)
    bank = []
    for mode in modes:
        dec = decompose_mode(model, mode)
        gains = synthesize_gains(dec, model)
        dyn = error_dynamics(dec, gains, model)
        bank.append((mode, dec, gains, dyn))
    return model, bank


# ------------------------------------------------------------- threshold_inf


def test_threshold_inf_single_row_weighted_sum():
    sm = StackedResidualModel(
        k=1, n=1, l=1, Aq_k=np.array([[1.0, -2.0]]), bounds=np.array([0.5, 1.0])
    )
    assert threshold_inf(sm) == pytest.approx(2.5, abs=1e-15)


def test_threshold_inf_identity_two_by_two():
    sm = StackedResidualModel(
        k=1, n=1, l=1, Aq_k=np.eye(2), bounds=np.ones(2)
    )
    assert threshold_inf(sm) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_threshold_inf_zero_matrix():
    sm = StackedResidualModel(
        k=1, n=1, l=1, Aq_k=np.zeros((3, 4)), bounds=np.ones(4)
    )
    assert threshold_inf(sm) == 0.0


def test_threshold_inf_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 17))
        A = rng.standard_normal((rows, cols))
        b = rng.uniform(0.1, 2.0, size=cols)
        sm = StackedResidualModel(k=1, n=1, l=1, Aq_k=A, bounds=b)
        exact = brute_force_vertex_max(A, b)
        assert threshold_inf(sm) == pytest.approx(exact, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("chunk", [None, 1, 3, 7])
def test_threshold_inf_blocked_walk_equals_one_shot(monkeypatch, chunk):
    # the blocked walk must give the one-shot value bit for bit, whether the
    # last block is full or partial and whatever the block count
    if chunk is not None:
        monkeypatch.setattr(modeguard, "_ENUM_CHUNK", chunk)
    rng = np.random.default_rng(11)
    col_range = (2, 11) if chunk is not None else (11, 17)
    for _ in range(40):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(*col_range))
        A = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-8, 3)
        b = rng.uniform(0.1, 2.0, size=cols)
        sm = StackedResidualModel(k=1, n=1, l=1, Aq_k=A, bounds=b)
        assert threshold_inf(sm) == vertex_max_one_shot(A, b)


_MAP_KINDS = ["gaussian", "integer", "repeated", "rank_one", "zero", "nonfinite"]


@st.composite
def _enumerated_maps(draw):
    """(A, b) with 2-5 rows and 1-16 columns: Gaussian entries spread over
    six decades per column, integer entries with exact ties, zero,
    duplicated and negated columns, rank one, all zero, or a NaN or
    infinite entry; A scaled by 1e-150 to 1e150."""
    rows = draw(st.integers(2, 5))
    cols = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(_MAP_KINDS))
    scale = 10.0 ** draw(st.integers(-150, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3, cols)
    b = rng.uniform(0.0, 2.0, cols)
    if kind == "integer":
        A = rng.integers(-3, 4, (rows, cols)).astype(float)
        b = rng.integers(0, 3, cols).astype(float)
    elif kind == "repeated":
        for c in range(1, cols):
            source = int(rng.integers(0, c))
            choice = int(rng.integers(0, 4))
            if choice == 0:
                A[:, c] = 0.0
            elif choice < 3:
                A[:, c] = (1.0 if choice == 1 else -1.0) * A[:, source]
                b[c] = b[source]
    elif kind == "rank_one":
        A = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    elif kind == "zero":
        A = np.zeros((rows, cols))
    elif kind == "nonfinite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if draw(st.booleans()):
            A[int(rng.integers(0, rows)), int(rng.integers(0, cols))] = bad
        else:
            b[int(rng.integers(0, cols))] = abs(bad)
    return A * scale, b


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=80, deadline=None)
@given(_enumerated_maps())
def test_threshold_inf_screened_walk_equals_one_shot(case):
    """The screened walk returns the full walk's float bit for bit, ties,
    cancellations, huge and tiny scales and non-finite entries included,
    whether the candidates share one block or take one block each."""
    A, b = case
    sm = StackedResidualModel(k=1, n=1, l=1, Aq_k=A, bounds=b)
    with np.errstate(all="ignore"):
        want = _bits(vertex_max_one_shot(A, b))
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        for chunk in (1, 7, modeguard._ENUM_CHUNK):
            mp.setattr(modeguard, "_ENUM_CHUNK", chunk)
            assert _bits(threshold_inf(sm)) == want, chunk


def test_threshold_inf_screens_only_finite_wide_maps(monkeypatch):
    calls = []
    screen = modeguard._vertex_screen

    def spy(P):
        calls.append(P.shape)
        return screen(P)

    monkeypatch.setattr(modeguard, "_vertex_screen", spy)
    rng = np.random.default_rng(3)
    wide = modeguard._SCREEN_MIN_COLS
    for cols, scale, bad in [
        (wide, 1.0, None),
        (16, 1e100, None),
        (wide - 1, 1.0, None),
        (16, 1e-150, None),
        (16, 1e150, None),
        (16, 1.0, math.nan),
        (16, 1.0, math.inf),
    ]:
        A = rng.standard_normal((3, cols)) * scale
        if bad is not None:
            A[1, 5] = bad
        b = rng.uniform(0.1, 2.0, cols)
        sm = StackedResidualModel(k=1, n=1, l=1, Aq_k=A, bounds=b)
        with np.errstate(all="ignore"):
            assert _bits(threshold_inf(sm)) == _bits(vertex_max_one_shot(A, b))
    assert calls == [(wide, 3), (16, 3)]


def test_threshold_inf_margin_keeps_the_evaluated_maximum():
    """On maps of thirds, many vertices tie exactly and rounding decides
    which is largest, often differently in the screen and in the
    evaluation: the margin must keep the evaluation's largest vertex."""
    rng = np.random.default_rng(1)
    split = 0
    for _ in range(1000):
        A = rng.integers(-3, 4, (2, 10)) / 3.0
        b = np.full(10, 0.1)
        g = modeguard._vertex_screen((A * b).T)
        F = vertex_values_one_shot(A, b)
        if np.flatnonzero(F == F.max())[0] in np.flatnonzero(g == g.max()):
            continue
        split += 1
        sm = StackedResidualModel(k=1, n=1, l=1, Aq_k=A, bounds=b)
        assert _bits(threshold_inf(sm)) == _bits(vertex_max_one_shot(A, b))
    assert split >= 1


def _gamma(n: int) -> Fraction:
    u = Fraction(1, 2**53)
    return n * u / (1 - n * u)


def _cancelling_map(rng, rows, cols):
    """A map whose columns, signed by one random vertex, sum to nearly zero
    in every row: that vertex's exact value is far below T, so its screened
    value is dominated by rounding."""
    A = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-2, 2, cols)
    b = rng.uniform(0.1, 2.0, cols)
    s = np.where(rng.random(cols) < 0.5, -1.0, 1.0)
    s[0] = 1.0
    A[:, -1] = -(A[:, :-1] * (s[:-1] * b[:-1])).sum(axis=1) / (s[-1] * b[-1])
    A[:, -1] *= 1.0 + 1e-13 * rng.standard_normal(rows)
    vertex = int(sum(1 << (c - 1) for c in range(1, cols) if s[c] < 0))
    return A, b, vertex


@pytest.mark.parametrize("seed", range(6))
def test_threshold_inf_screen_and_evaluation_within_stated_error(seed):
    """Against exact rational vertex values, the screen's g and the
    evaluated value F stay within the bounds derived in threshold_inf's
    docstring, and those stay within half of the e that sets its margin."""
    rng = np.random.default_rng(seed)
    for case in range(6):
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(2, 11))
        vertex = None
        if case % 3 == 0:
            A, b, vertex = _cancelling_map(rng, rows, cols)
        elif case % 3 == 1:
            A = rng.integers(-3, 4, (rows, cols)).astype(float)
            b = rng.integers(0, 3, cols).astype(float)
        else:
            A = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-6, 6, cols)
            b = rng.uniform(0.0, 2.0, cols)
        exact = vertex_values_exact(A, b)
        a = [sum(abs(Fraction(A[r, c]) * Fraction(b[c])) for c in range(cols)) for r in range(rows)]
        T = sum(x * x for x in a)
        half = (cols + 1) // 2
        gm, gc = _gamma(max(half, cols - half)), _gamma(cols)
        e_g = (gm * (2 + gm) + _gamma(rows + 2) * (1 + gm) ** 2) * T
        e_f = (gc * (2 + gc) + _gamma(rows) * (1 + gc) ** 2) * T
        P = (A * b).T
        a_hat = np.abs(P).sum(axis=0)
        e = Fraction(modeguard._screen_error(rows, cols, float(a_hat @ a_hat)))
        assert max(e_g, e_f) <= e / 2
        g = modeguard._vertex_screen(P)
        F = vertex_values_one_shot(A, b)
        if vertex is not None:
            assert exact[vertex] < T * Fraction(1, 10**12)
        for v, f in enumerate(exact):
            assert abs(Fraction(g[v]) - f) <= e_g, (case, v)
            assert abs(Fraction(F[v]) - f) <= e_f, (case, v)


def test_threshold_inf_relaxation_dominates_vertices():
    rng = np.random.default_rng(8)
    for _ in range(25):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(17, 21))
        A = rng.standard_normal((rows, cols))
        b = rng.uniform(0.1, 1.0, size=cols)
        sm = StackedResidualModel(k=1, n=1, l=1, Aq_k=A, bounds=b)
        relaxed = threshold_inf(sm)  # over budget -> row relaxation
        sampled = 0.0
        for _ in range(200):
            t = b * rng.choice([-1.0, 1.0], size=cols)
            sampled = max(sampled, float(np.linalg.norm(A @ t)))
        assert relaxed >= sampled - 1e-12


# ------------------------------------------------------------- stacked model


def test_stacked_level_one_blocks_match_oracle(benchmark_model, benchmark_modes):
    for mode in benchmark_modes:
        dec = decompose_mode(benchmark_model, mode)
        with pytest.warns(UserWarning):
            gains = synthesize_gains(dec, benchmark_model)
            dyn = error_dynamics(dec, gains, benchmark_model)
        sm = build_stacked(dyn, dec, 1)
        expected = stacked_blocks_direct(
            dec.C2, dec.T2, dyn.Abar, dyn.Ae,
            dyn.Bew_star, dyn.Bev1_star, dyn.Bev2_star,
            dyn.Bew, dyn.Bev1, dyn.Bev2, 1,
        )
        np.testing.assert_allclose(sm.Aq_k, expected, atol=1e-13)


def test_stacked_blocks_match_oracle_random():
    rng = np.random.default_rng(21)
    for _ in range(8):
        model, bank = random_instance(rng)
        mode, dec, gains, dyn = bank[0]
        for k in (1, 2, 3, 5, 8):
            sm = build_stacked(dyn, dec, k, delta_x0=0.3, eta_w=0.1, eta_v=0.01)
            expected = stacked_blocks_direct(
                dec.C2, dec.T2, dyn.Abar, dyn.Ae,
                dyn.Bew_star, dyn.Bev1_star, dyn.Bev2_star,
                dyn.Bew, dyn.Bev1, dyn.Bev2, k,
            )
            np.testing.assert_allclose(sm.Aq_k, expected, atol=1e-10)
            n, l = model.n, model.l
            assert sm.Aq_k.shape == (dec.residual_dim, (n + l) * (k + 1))
            assert sm.bounds.shape == ((n + l) * (k + 1),)
            assert np.all(sm.bounds[:n] == 0.3)
            assert np.all(sm.bounds[n : n * (k + 1)] == 0.1)
            assert np.all(sm.bounds[n * (k + 1) :] == 0.01)


def test_stacked_map_reproduces_simulated_residual():
    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(50):
        model, bank = random_instance(rng)
        mode, dec, gains, dyn = bank[0]
        steps = int(rng.integers(2, 11))
        xhat0 = rng.standard_normal(model.n)
        e0 = rng.standard_normal(model.n)
        # arbitrary (unbounded) noise and a live attack: the identity is
        # linear-algebraic, and the true mode's own attack never shows up
        d_values = rng.standard_normal((steps + 1, mode.rho)) * 2.0
        us = rng.standard_normal((steps + 1, model.m))
        ws = rng.standard_normal((steps, model.n))
        vs = rng.standard_normal((steps + 1, model.l))
        xs = np.zeros((steps + 1, model.n))
        ys = np.zeros((steps + 1, model.l))
        xs[0] = xhat0 + e0
        for k in range(steps + 1):
            ys[k] = model.C @ xs[k] + model.D @ us[k] + mode.Hq @ d_values[k] + vs[k]
            if k < steps:
                xs[k + 1] = (
                    model.A @ xs[k] + model.B @ us[k] + mode.Gq @ d_values[k] + ws[k]
                )
        state = init_observer(xhat0, model.delta_x0)
        for k in range(steps + 1):
            state = step(state, dec, gains, dyn, us[k], ys[k], model)
            if state.k >= 1:
                r = residual(dec, state.xhat_star, us[k], ys[k])
                sm = build_stacked(dyn, dec, state.k)
                t = _stack_noise(e0, ws, vs, state.k)
                np.testing.assert_allclose(sm.Aq_k @ t, r, atol=1e-8)
                checked += 1
    assert checked >= 100


def test_stacked_state_block_alone_drives_residual():
    rng = np.random.default_rng(4)
    model, bank = random_instance(rng)
    mode, dec, gains, dyn = bank[0]
    e0 = rng.standard_normal(model.n)
    xhat0 = np.zeros(model.n)
    d_values = np.zeros((8 + 1, mode.rho))
    xs, ys, us, ws, vs = _rollout(model, mode, d_values, e0, 8, rng, noise=False)
    state = init_observer(xhat0, model.delta_x0)
    for k in range(9):
        state = step(state, dec, gains, dyn, us[k], ys[k], model)
        if state.k >= 1:
            r = residual(dec, state.xhat_star, us[k], ys[k])
            kk = state.k
            block = dec.C2 @ dyn.Abar @ np.linalg.matrix_power(dyn.Ae, kk - 1)
            np.testing.assert_allclose(r, block @ e0, atol=1e-9)


# -------------------------------------------------------------- triangle law


def test_threshold_tri_bounds_true_mode_residual():
    rng = np.random.default_rng(55)
    for _ in range(20):
        model, bank = random_instance(rng)
        mode, dec, gains, dyn = bank[0]
        xhat0 = rng.standard_normal(model.n)
        e0 = _ball(rng, model.n, model.delta_x0)
        d_values = np.zeros((15 + 1, mode.rho))
        xs, ys, us, ws, vs = _rollout(model, mode, d_values, xhat0 + e0, 15, rng)
        state = init_observer(xhat0, model.delta_x0)
        tracker = ThresholdTracker(
            dyn, dec, eta_w=model.eta_w, eta_v=model.eta_v, delta_x0=model.delta_x0
        )
        for k in range(16):
            state = step(state, dec, gains, dyn, us[k], ys[k], model)
            if state.k >= 1:
                dinf, dtri, dhat = tracker.advance()
                r_norm = float(np.linalg.norm(residual(dec, state.xhat_star, us[k], ys[k])))
                assert r_norm <= dtri + 1e-9
                if dinf is not None:
                    assert r_norm <= dinf + 1e-9
                assert dhat == min(dtri, dinf if dinf is not None else math.inf)


def test_tri_limit_scalar_matches_series_oracle():
    from smio.model import SystemModel

    model = SystemModel(
        A=np.array([[0.5]]),
        B=np.zeros((1, 1)),
        C=np.array([[1.0]]),
        D=np.zeros((1, 1)),
        G=np.zeros((1, 0)),
        H=np.zeros((1, 0)),
        eta_w=0.02,
        eta_v=0.003,
        delta_x0=0.5,
    )
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    dec = decompose_mode(model, mode)
    gains = synthesize_gains(dec, model, override=np.array([[0.0]]))
    dyn = error_dynamics(dec, gains, model)
    assert dyn.theta == pytest.approx(0.5, abs=1e-14)
    expected = scalar_tri_series_limit(
        float(dec.C2[0, 0]), float(dec.T2[0, 0]),
        float(dyn.Abar[0, 0]), float(dyn.Ae[0, 0]),
        float(dyn.Bew_star[0, 0]), float(dyn.Bev1_star[0, 0]), float(dyn.Bev2_star[0, 0]),
        float(dyn.Bew[0, 0]), float(dyn.Bev1[0, 0]), float(dyn.Bev2[0, 0]),
        model.eta_w, model.eta_v,
    )
    assert tri_limit(dyn, dec, model.eta_w, model.eta_v) == pytest.approx(expected, rel=1e-9)
    # and the finite-k thresholds approach it from within the envelope
    for k in (10, 20, 40):
        val = threshold_tri(dyn, dec, k, model.eta_w, model.eta_v, model.delta_x0)
        assert val <= expected * (1 + 1e-6) + 0.5 ** (k - 2) * 10.0


def test_tri_limit_envelope_invariant_random():
    rng = np.random.default_rng(77)
    found = 0
    while found < 6:
        model, bank = random_instance(rng)
        mode, dec, gains, dyn = bank[0]
        if dyn.theta >= 1.0:
            continue
        found += 1
        lim = tri_limit(dyn, dec, model.eta_w, model.eta_v)
        C2A = dec.C2 @ dyn.Abar
        cnorm = float(np.linalg.norm(C2A, 2)) if C2A.size else 0.0
        const = (
            model.delta_x0 * cnorm * dyn.theta
            + model.eta_w * cnorm * (np.linalg.norm(dyn.Bew, 2) if dyn.Bew.size else 0.0)
            + model.eta_v * cnorm * (np.linalg.norm(dyn.Bev1, 2) if dyn.Bev1.size else 0.0)
        )
        for k in range(2, 41):
            val = threshold_tri(dyn, dec, k, model.eta_w, model.eta_v, model.delta_x0)
            assert val <= lim * (1 + 1e-6) + dyn.theta ** (k - 2) * const + 1e-12


def test_tri_limit_divergence_error(benchmark_model, benchmark_modes):
    dec = decompose_mode(benchmark_model, benchmark_modes[0])
    with pytest.warns(UserWarning):
        gains = synthesize_gains(dec, benchmark_model)
        dyn = error_dynamics(dec, gains, benchmark_model)
    assert dyn.theta >= 1.0
    with pytest.raises(DivergenceError, match="theta"):
        tri_limit(dyn, dec, benchmark_model.eta_w, benchmark_model.eta_v)


# -------------------------------------------------------------- vertex norms


def test_eta_t_benchmark_initial_level(benchmark_model):
    sys = benchmark_model
    assert eta_t(0, 5, 5, sys.delta_x0, sys.eta_w, sys.eta_v) == pytest.approx(
        1.1180340, abs=1e-6
    )


def test_eta_t_matches_vertex_norm_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        l = int(rng.integers(1, 6))
        k = int(rng.integers(0, 30))
        dx, ew, ev = rng.uniform(0.0, 2.0, size=3)
        assert eta_t(k, n, l, dx, ew, ev) == pytest.approx(
            hypercube_vertex_norm(n, l, k, dx, ew, ev), rel=1e-12
        )


def test_eta_t_equals_stacked_bounds_norm():
    rng = np.random.default_rng(12)
    model, bank = random_instance(rng)
    mode, dec, gains, dyn = bank[0]
    for k in (1, 3, 7):
        sm = build_stacked(
            dyn, dec, k,
            delta_x0=model.delta_x0, eta_w=model.eta_w, eta_v=model.eta_v,
        )
        assert float(np.linalg.norm(sm.bounds)) == pytest.approx(
            eta_t(k, model.n, model.l, model.delta_x0, model.eta_w, model.eta_v),
            rel=1e-12,
        )


# ------------------------------------------------------- eliminate and fuse


def test_eliminate_is_strict():
    assert eliminate(1.2, 1.0) is True
    assert eliminate(0.5, 1.0) is False
    assert eliminate(1.0, 1.0) is False
    # rounding dust on an identically-zero residual must not reject
    assert eliminate(9e-19, 0.0) is False
    assert eliminate(1e-10, 0.0) is True
    with pytest.raises(ValueError):
        eliminate(-0.1, 1.0)


def test_residual_record_evaluate():
    rec = ResidualRecord.evaluate(3, 7, np.array([0.6, 0.8]), None, 0.9)
    assert rec.r_norm == pytest.approx(1.0, abs=1e-15)
    assert rec.delta_inf is None
    assert rec.delta_hat == pytest.approx(0.9)
    assert rec.eliminated is True
    rec2 = ResidualRecord.evaluate(3, 7, np.array([0.6, 0.8]), 1.5, 2.0)
    assert rec2.delta_hat == pytest.approx(1.5)
    assert rec2.eliminated is False


def test_fuse_keeps_every_surviving_ball():
    ball = SetEstimate(center=np.zeros(2), radius=0.5)
    dball = SetEstimate(center=np.zeros(1), radius=0.1)
    est = {1: (ball, dball), 2: (ball, dball)}
    out = fuse([1, 2], est)
    assert out.active == (1, 2)
    assert len(out.state_balls) == 2 and len(out.input_balls) == 2
    single = fuse([2], est)
    assert single.active == (2,)


def test_fuse_empty_is_fault():
    with pytest.raises(AllModesEliminatedError, match="assumption"):
        fuse([], {})


# ------------------------------------------------------ cross-mode residuals


def test_residual_conditioned_rotation_identity(benchmark_model, benchmark_modes):
    rng = np.random.default_rng(3)
    decs = [decompose_mode(benchmark_model, m) for m in benchmark_modes]
    y = rng.standard_normal(5)
    u = rng.standard_normal(1)
    xh = rng.standard_normal(5)
    for i in range(4):
        for j in range(4):
            full = residual(decs[i], xh, u, y)
            cond = residual_conditioned(decs[i], decs[j], xh, u, y)
            np.testing.assert_allclose(
                full - cond, (decs[i].T2 - decs[j].T2) @ y, atol=1e-12
            )
    with pytest.raises(UnsupportedPairError):
        residual_conditioned(decs[4], decs[0], xh, u, y)


def test_residual_difference_decomposition(benchmark_model, benchmark_modes):
    # the pair-separation certificate rests on this exact algebraic split
    rng = np.random.default_rng(13)
    dec_q = decompose_mode(benchmark_model, benchmark_modes[0])
    dec_p = decompose_mode(benchmark_model, benchmark_modes[2])
    y = rng.standard_normal(5)
    u = rng.standard_normal(1)
    xq = rng.standard_normal(5)
    xp = rng.standard_normal(5)
    r_q = residual(dec_q, xq, u, y)
    r_p = residual(dec_p, xp, u, y)
    sep = (
        dec_p.C2 @ xp - dec_q.C2 @ xq + dec_p.D2 @ u - dec_q.D2 @ u
        + (dec_q.T2 - dec_p.T2) @ y
    )
    np.testing.assert_allclose(r_q - r_p, sep, atol=1e-12)
    # triangle consequence: if the split exceeds both thresholds combined,
    # at least one residual must exceed its own threshold
    s = float(np.linalg.norm(sep))
    for dq, dp in [(0.1, 0.1), (0.3, 0.2)]:
        if s > dq + dp:
            assert (
                float(np.linalg.norm(r_q)) > dq or float(np.linalg.norm(r_p)) > dp
            )


# ---------------------------------------------------------- tracker wrappers


def test_tracker_agrees_with_stateless_wrappers():
    rng = np.random.default_rng(91)
    model, bank = random_instance(rng)
    mode, dec, gains, dyn = bank[0]
    tracker = ThresholdTracker(
        dyn, dec,
        eta_w=model.eta_w, eta_v=model.eta_v, delta_x0=model.delta_x0,
        k_inf_cutoff=6,
    )
    for k in range(1, 12):
        dinf, dtri, dhat = tracker.advance()
        ref = threshold_tri(dyn, dec, k, model.eta_w, model.eta_v, model.delta_x0)
        assert dtri == pytest.approx(ref, rel=1e-12, abs=1e-15)
        if k <= 6:
            sm_ref = build_stacked(
                dyn, dec, k,
                delta_x0=model.delta_x0, eta_w=model.eta_w, eta_v=model.eta_v,
            )
            np.testing.assert_allclose(tracker.stacked().Aq_k, sm_ref.Aq_k, atol=1e-13)
            assert dinf == pytest.approx(threshold_inf(sm_ref), rel=1e-12, abs=1e-15)
            assert dhat == min(dinf, dtri)
        else:
            assert dinf is None
            assert dhat == dtri
            with pytest.raises(ValueError, match="k_inf_cutoff"):
                tracker.stacked()


def test_stacked_and_tri_reject_level_zero():
    rng = np.random.default_rng(14)
    model, bank = random_instance(rng)
    mode, dec, gains, dyn = bank[0]
    with pytest.raises(ValueError):
        build_stacked(dyn, dec, 0)
    with pytest.raises(ValueError):
        threshold_tri(dyn, dec, 0, 0.1, 0.1, 0.1)
    tracker = ThresholdTracker(dyn, dec)
    with pytest.raises(ValueError):
        tracker.threshold_tri()


def _per_level(model, dec, dyn, k_inf_cutoff):
    return PerLevelThresholds(
        dec.C2, dec.T2, dyn.Abar, dyn.Ae, dyn.Bew_star, dyn.Bev1_star, dyn.Bev2_star,
        dyn.Bew, dyn.Bev1, dyn.Bev2,
        model.delta_x0, model.eta_w, model.eta_v, k_inf_cutoff,
    )


def _reference_advance(ref):
    """The reference's (delta_inf, delta_tri, delta_hat) at its next level,
    and its stacked map there (None past the cutoff)."""
    A, bounds, dtri = ref.advance()
    if A is None:
        return (None, dtri, dtri), None
    sm = StackedResidualModel(k=ref.k, n=ref.n, l=ref.l, Aq_k=A, bounds=bounds)
    dinf = threshold_inf(sm)
    return (dinf, dtri, min(dinf, dtri)), A


def _tracker(model, dec, dyn, k_inf_cutoff):
    return ThresholdTracker(
        dyn, dec,
        eta_w=model.eta_w, eta_v=model.eta_v, delta_x0=model.delta_x0,
        k_inf_cutoff=k_inf_cutoff,
    )


def test_tracker_equals_per_level_reference_exactly():
    """Batched levels give the very floats of the one-level-at-a-time
    definition, for k = 1..600 (several block edges) on 40 random banks."""
    dims = set()
    for seed in range(40):
        model, bank = random_instance(np.random.default_rng(1000 + seed))
        for mode, dec, _gains, dyn in bank:
            dims.add(dec.residual_dim)
            tracker = _tracker(model, dec, dyn, 25)
            ref = _per_level(model, dec, dyn, 25)
            for k in range(1, 601):
                got = tracker.advance()
                assert got == _reference_advance(ref)[0], (seed, mode.id, k)
    assert {0, 1} <= dims and max(dims) >= 2


def test_tracker_equals_per_level_reference_on_builtin_plant(benchmark_model, benchmark_modes):
    """The same exact agreement on the built-in plant's five hypotheses for
    k = 1..1000: four full 256-level blocks, and hypothesis 5's one-row
    residual."""
    with pytest.warns(UserWarning):
        bank, excluded = build_bank(benchmark_model, benchmark_modes)
    assert not excluded and len(bank) == 5
    assert bank[5][1].residual_dim == 1
    cutoff = 25
    for q, (_mode, dec, _gains, dyn) in bank.items():
        tracker = _tracker(benchmark_model, dec, dyn, cutoff)
        ref = _per_level(benchmark_model, dec, dyn, cutoff)
        for k in range(1, 1001):
            got = tracker.advance()
            expected, A = _reference_advance(ref)
            assert got == expected, (q, k)
            if k <= cutoff:
                assert np.array_equal(tracker.stacked().Aq_k, A), (q, k)


def test_tracker_equals_per_level_reference_across_the_zero_tail(benchmark_model, benchmark_modes):
    """The built-in hypotheses' rows are exactly zero from level 248 on.
    With the cutoff past that level, the tracker still gives the
    reference's floats for k = 1..600 (across the 256-level block edge),
    and the stacked maps of the zero levels equal the reference's."""
    with pytest.warns(UserWarning):
        bank, _ = build_bank(benchmark_model, benchmark_modes)
    cutoff = 300
    for q, (_mode, dec, _gains, dyn) in bank.items():
        tracker = _tracker(benchmark_model, dec, dyn, cutoff)
        ref = _per_level(benchmark_model, dec, dyn, cutoff)
        for k in range(1, 601):
            got = tracker.advance()
            expected, A = _reference_advance(ref)
            assert got == expected, (q, k)
            if k <= cutoff:
                assert np.array_equal(tracker.stacked().Aq_k, A), (q, k)
        assert ref.rows[247].any() and not any(row.any() for row in ref.rows[248:]), q


def test_tracker_norm_lists_equal_per_level_reference(benchmark_model, benchmark_modes):
    """The tracker's 2-norm lists, taken two stacks per block, hold the
    reference's one-matrix-at-a-time norms and Python running sums exactly,
    over levels 0..599, on the built-in bank and on random plants."""
    with pytest.warns(UserWarning):
        bank, _ = build_bank(benchmark_model, benchmark_modes)
    cases = [(benchmark_model, dec, dyn) for _mode, dec, _gains, dyn in bank.values()]
    for seed in range(20):
        model, entries = random_instance(np.random.default_rng(3000 + seed), n_max=5, l_max=5)
        cases += [(model, dec, dyn) for _mode, dec, _gains, dyn in entries]
    for i, (model, dec, dyn) in enumerate(cases):
        tracker = _tracker(model, dec, dyn, 0)
        tracker.extend(600)
        ref = _per_level(model, dec, dyn, 0)
        for _ in range(len(tracker._row_norm)):
            ref.advance()
        boundary = [ref.norm2(M) for M in (ref.w_last, ref.v0_at_k1, ref.v_prev, ref.v_last)]
        got = [tracker._nw_last, tracker._nv0_at_k1, tracker._nv_prev, tracker._nv_last]
        assert got == boundary, i
        assert tracker._row_norm == ref.row_norm, i
        assert tracker._bev1_norm == [boundary[1]] + ref.bev1_norm, i
        assert tracker._cum_w == [0.0] + ref.cum_w, i
        assert tracker._cum_mv == [0.0, 0.0] + ref.cum_mv, i


def test_tracker_zero_tail_calls_no_svd(benchmark_model, benchmark_modes, monkeypatch):
    with pytest.warns(UserWarning):
        bank, _ = build_bank(benchmark_model, benchmark_modes)
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    for q, (_mode, dec, _gains, dyn) in bank.items():
        tracker = _tracker(benchmark_model, dec, dyn, 25)
        tracker.extend(255)  # levels 0..254, the last block ending in zeros
        assert not tracker._last_row.any(), q
        monkeypatch.setattr(np.linalg, "svd", counted)
        tracker.extend(2000)
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert calls == [], q
        assert tracker._row_norm[254:] == [0.0] * (len(tracker._row_norm) - 254)
        # entry k-1 of each running sum is step k's, so level j's total is at j + 1 or j + 2
        assert len(set(tracker._cum_w[255:])) == len(set(tracker._cum_mv[256:])) == 1


@pytest.mark.parametrize("cap", [1, 7, None], ids=["cap1", "cap7", "cap-default"])
@pytest.mark.parametrize("cutoff", [0, 2, 25])
def test_tracker_zero_tail_inside_the_enumerated_window(monkeypatch, cutoff, cap):
    """A nilpotent error map puts the exact zero tail at level 2, before
    the cutoff: the rows C2*Abar*Ae^j are zero from j = 2 on.  The tracker
    still gives the reference's thresholds and stacked maps at every
    level, whatever its block schedule."""
    from smio.decomposition import ConservativeRadiusWarning
    from smio.model import SystemModel

    if cap is not None:
        monkeypatch.setattr(ThresholdTracker, "_BLOCK_CAP", cap)
    # the 3-by-3 shift (A^3 = 0), every sensor safe; a zero gain keeps Ae = A
    model = SystemModel(
        A=np.eye(3, k=1),
        B=np.zeros((3, 1)),
        C=np.eye(3),
        D=np.zeros((3, 1)),
        G=np.zeros((3, 0)),
        H=np.zeros((3, 0)),
        eta_w=0.01,
        eta_v=0.001,
        delta_x0=0.2,
    )
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    dec = decompose_mode(model, mode)
    gains = synthesize_gains(dec, model, override=np.zeros((3, 3)))
    with pytest.warns(ConservativeRadiusWarning):  # theta = ||A||_2 = 1
        dyn = error_dynamics(dec, gains, model)
    assert np.array_equal(dyn.Ae, model.A)
    tracker = _tracker(model, dec, dyn, cutoff)
    ref = _per_level(model, dec, dyn, cutoff)
    for k in range(1, 61):
        got = tracker.advance()
        expected, A = _reference_advance(ref)
        assert got == expected, k
        if k <= cutoff:
            assert np.array_equal(tracker.stacked().Aq_k, A), k
    assert tracker._zero_tail
    assert ref.rows[1].any() and not any(row.any() for row in ref.rows[2:])


def test_stacked_norm2_of_mixed_zero_and_nonzero_matrices():
    from smio.decomposition import _norm2

    rng = np.random.default_rng(5)
    stack = rng.standard_normal((7, 3, 4))
    stack[1] = 0.0
    stack[3] = -0.0
    stack[4] = 0.0
    stack[4, 2, 1] = -0.0
    stack[6] = 0.0
    stack[6, 0, 0] = 1e-320  # a subnormal entry is not zero
    got = modeguard._stacked_norm2(stack)
    want = [_norm2(M) for M in stack]
    assert got.tolist() == want
    assert not np.signbit(got).any()
    assert modeguard._stacked_norm2(np.zeros((3, 2, 2))).tolist() == [0.0] * 3
    assert modeguard._stacked_norm2(np.zeros((2, 0, 4))).tolist() == [0.0] * 2


@pytest.mark.parametrize("cap", [1, 7, None], ids=["cap1", "cap7", "cap-default"])
@pytest.mark.parametrize("cutoff", [-1, 0, 1, 2, 25])
def test_walk_writes_the_floats_of_advance_step_by_step(monkeypatch, cutoff, cap):
    """walk() gives every step it tests the (delta_inf, delta_tri,
    delta_hat) floats of a loop of advance(), whatever the tracker's block
    schedule, and stops at the first step whose residual clears the scaled
    guard.  A step flagged by the unscaled test but cleared by its scale
    does not stop it, and only flagged steps are priced."""
    if cap is not None:
        monkeypatch.setattr(ThresholdTracker, "_BLOCK_CAP", cap)
    steps = 300
    model, bank = random_instance(np.random.default_rng(91))
    for _mode, dec, _gains, dyn in bank:
        loop = _tracker(model, dec, dyn, cutoff)
        want = np.full((steps + 1, 3), np.nan)
        for k in range(1, steps + 1):
            want[k] = loop.advance()
        dhat = want[:, 2]
        first_past = max(cutoff, 0) + 1
        for elim in (None, 1, first_past, first_past + 1, 150, steps):
            r_norm = np.zeros(steps + 1)
            cleared = 60 if elim is None or elim > 60 else None
            if cleared is not None:  # above the unscaled guard only
                r_norm[cleared] = dhat[cleared] + 3e-14 * (1.0 + dhat[cleared])
            if elim is not None:
                r_norm[elim] = 2.0 * dhat[elim] + 1.0
            priced = []

            def scale(k):
                priced.append(int(k))
                return 1e3

            tracker = _tracker(model, dec, dyn, cutoff)
            out = np.full((steps + 1, 3), np.nan)
            assert tracker.walk(r_norm, scale, out) == elim
            assert tracker.k == (steps if elim is None else elim)
            last = steps if elim is None else elim
            expected = np.full((steps + 1, 3), np.nan)
            expected[: last + 1] = want[: last + 1]
            assert out.tobytes() == expected.tobytes(), (cutoff, cap, elim)
            assert priced == [k for k in (cleared, elim) if k is not None], (cutoff, cap, elim)


def test_tracker_keeps_one_array_of_rows_only():
    """Past the cutoff the tracker keeps the rows of levels 0..cutoff, r by n
    each, in one array that owns its memory, and no product arrays."""
    model, bank = random_instance(np.random.default_rng(91))
    _mode, dec, _gains, dyn = bank[0]
    cutoff = ThresholdTracker._BLOCK_CAP + 45
    tracker = _tracker(model, dec, dyn, cutoff)
    tracker.extend(4 * ThresholdTracker._BLOCK_CAP)
    rows = tracker._rows
    assert rows.shape == (cutoff + 1, dec.C2.shape[0], model.n)
    assert rows.base is None and rows.flags.owndata
    held = vars(tracker)
    assert [name for name, v in held.items() if isinstance(v, np.ndarray) and v.ndim == 3] == ["_rows"]
    assert not any(isinstance(x, np.ndarray) for v in held.values() if isinstance(v, list) for x in v)


@pytest.mark.parametrize("cutoff", [0, ThresholdTracker._BLOCK_CAP + 1, 1000])
def test_tracker_extend_then_advance_in_mixed_order(cutoff):
    cap = ThresholdTracker._BLOCK_CAP
    model, bank = random_instance(np.random.default_rng(91))
    _mode, dec, _gains, dyn = bank[0]
    targets = [1, 2, 5, 6, 127, 128, cap, cap + 1, cap + 2, 300, 2 * cap + 1]
    ref = _per_level(model, dec, dyn, cutoff)
    expected, maps = {}, {}
    for k in range(1, targets[-1] + 1):
        expected[k], A = _reference_advance(ref)
        if k in targets:
            maps[k] = A
    tracker = _tracker(model, dec, dyn, cutoff)
    for k in targets:
        tracker.extend(k - 1 - tracker.k)
        assert tracker.k == k - 1
        assert tracker.advance() == expected[k], k
        assert tracker.k == k
        assert tracker.threshold_tri() == expected[k][1]
        if k <= cutoff:
            assert np.array_equal(tracker.stacked().Aq_k, maps[k])
        else:
            with pytest.raises(ValueError, match="k_inf_cutoff"):
                tracker.stacked()


def test_stateless_wrappers_across_block_edges():
    cap = ThresholdTracker._BLOCK_CAP
    levels = {1, 2, cap, cap + 1, 2 * cap + 1}
    model, bank = random_instance(np.random.default_rng(14))
    _mode, dec, _gains, dyn = bank[0]
    ref = _per_level(model, dec, dyn, 2 * cap + 1)
    for k in range(1, 2 * cap + 2):
        A, bounds, dtri = ref.advance()
        if k not in levels:
            continue
        sm = build_stacked(
            dyn, dec, k, delta_x0=model.delta_x0, eta_w=model.eta_w, eta_v=model.eta_v
        )
        assert np.array_equal(sm.Aq_k, A) and np.array_equal(sm.bounds, bounds)
        assert threshold_tri(dyn, dec, k, model.eta_w, model.eta_v, model.delta_x0) == dtri


def test_tracker_empty_residual_map_gives_zero_norms():
    from smio.model import SystemModel

    # both sensors attacked: no attack-free output direction is left
    model = SystemModel(
        A=np.diag([0.5, 0.2]),
        B=np.zeros((2, 1)),
        C=np.eye(2),
        D=np.zeros((2, 1)),
        G=np.zeros((2, 0)),
        H=np.eye(2),
        eta_w=0.01,
        eta_v=0.001,
        delta_x0=0.2,
    )
    (mode,) = enumerate_modes(0, 2, 2, model.G, model.H)
    dec = decompose_mode(model, mode)
    dyn = error_dynamics(dec, synthesize_gains(dec, model), model)
    assert dec.residual_dim == 0
    cap = ThresholdTracker._BLOCK_CAP
    tracker = _tracker(model, dec, dyn, 25)
    for k in range(1, 2 * cap + 2):
        assert tracker.advance() == ((0.0 if k <= 25 else None), 0.0, 0.0)
    assert threshold_tri(dyn, dec, cap + 1, model.eta_w, model.eta_v, model.delta_x0) == 0.0
    assert build_stacked(dyn, dec, cap + 1).Aq_k.shape[0] == 0


# ------------------------------------------------------------- detectability


def _benchmark_bank(model, modes):
    bank = []
    for mode in modes:
        dec = decompose_mode(model, mode)
        with pytest.warns(UserWarning):
            gains = synthesize_gains(dec, model)
            dyn = error_dynamics(dec, gains, model)
        bank.append((mode, dec, dyn))
    return bank


def test_detectability_report_benchmark(benchmark_model, benchmark_modes):
    bank = _benchmark_bank(benchmark_model, benchmark_modes)
    report = detectability_report(benchmark_model, bank, R_x=10.0, R_y=60.0)
    assert len(report.pairs) == 25
    by_pair = {(p.q, p.q_prime): p for p in report.pairs}
    for q in range(1, 6):
        assert by_pair[(q, q)].condition_ii is False
    for q in range(1, 5):
        for p in range(1, 5):
            rec = by_pair[(q, p)]
            assert rec.dimension_matched
            if q != p:
                assert rec.condition_ii is True
                # divergent triangle limits make the ratio infinite
                assert rec.threshold_ratio == math.inf
                assert rec.condition_i is False
        rec5 = by_pair[(q, 5)]
        assert not rec5.dimension_matched
        assert rec5.condition_i is None
        assert rec5.condition_ii is True
    assert report.overall_condition_ii is True
    assert report.overall_condition_i is False
    assert report.certified is True
    d = report.to_dict()
    assert d["certified"] is True and len(d["pairs"]) == 25


def test_detectability_condition_i_certifies_separated_pair():
    model, bank = _small_sensor_pair()
    entries = [(m, dec, dyn) for m, dec, gains, dyn in bank]
    report = detectability_report(model, entries, R_x=0.5, R_y=0.05)
    # hand check sigma_min of W for the (1, 2) pair
    (m1, dec1, _, dyn1), (m2, dec2, _, dyn2) = bank
    W = np.hstack(
        [
            dec1.C2 - dec2.C2,
            dec1.T2 - dec2.T2,
            -np.eye(1),
            np.eye(1),
            dec1.D2,
            -dec2.D2,
        ]
    )
    sigma = float(np.linalg.svd(W, compute_uv=False)[-1])
    rec = {(p.q, p.q_prime): p for p in report.pairs}[(1, 2)]
    assert rec.sigma_min == pytest.approx(sigma, abs=1e-8)
    lim1 = tri_limit(dyn1, dec1, model.eta_w, model.eta_v)
    lim2 = tri_limit(dyn2, dec2, model.eta_w, model.eta_v)
    rz = 0.05 * float(np.linalg.norm(dec1.T2 - dec2.T2, 2))
    expected_ratio = (lim1 + lim2 + rz) / math.sqrt(0.5**2 + model.eta_v**2)
    assert rec.threshold_ratio == pytest.approx(expected_ratio, rel=1e-10)
    assert rec.condition_i is (sigma > expected_ratio)
    assert report.overall_condition_i is (sigma > expected_ratio)
    assert report.overall_condition_ii is True


def test_detectability_identical_subspaces_fail_condition_ii():
    from smio.model import SystemModel

    # two actuator modes: no feedthrough at all, so T2 = I for both
    model = SystemModel(
        A=np.diag([0.5, 0.2]),
        B=np.zeros((2, 1)),
        C=np.eye(2),
        D=np.zeros((2, 1)),
        G=np.array([[1.0, 0.0], [0.0, 1.0]]),
        H=np.zeros((2, 0)),
        eta_w=0.01,
        eta_v=0.001,
        delta_x0=0.1,
    )
    modes = enumerate_modes(2, 0, 1, model.G, model.H)
    entries = []
    for mode in modes:
        dec = decompose_mode(model, mode)
        gains = synthesize_gains(dec, model)
        dyn = error_dynamics(dec, gains, model)
        entries.append((mode, dec, dyn))
    report = detectability_report(model, entries, R_x=1.0, R_y=1.0)
    rec = {(p.q, p.q_prime): p for p in report.pairs}[(1, 2)]
    assert rec.condition_ii is False
    assert report.overall_condition_ii is False


# ------------------------------------------- residuals across mode mismatch


def test_stacked_residual_general_true_mode_attack_map_vanishes():
    rng = np.random.default_rng(41)
    found = 0
    while found < 6:
        model, bank = random_instance(rng)
        mode, dec, gains, dyn = bank[0]
        if mode.rho == 0:
            continue
        found += 1
        T, B, D = stacked_residual_general(dec, dyn, dec, model, k=4)
        assert D.shape == (dec.residual_dim, mode.rho * 5)
        assert float(np.max(np.abs(D))) <= 1e-10 * max(1.0, float(np.max(np.abs(T))))


def test_stacked_residual_general_reproduces_wrong_mode_residual():
    rng = np.random.default_rng(47)
    model, bank = _small_sensor_pair()
    (m1, dec1, g1, dyn1), (m2, dec2, g2, dyn2) = bank
    for trial in range(12):
        steps = int(rng.integers(2, 7))
        # plant runs mode 1 (sensor 1 attacked); observer hypothesises mode 2
        d_values = rng.standard_normal((steps + 1, 1)) * 3.0
        du = rng.standard_normal((steps + 1, model.m)) * 0.5
        us_plant = rng.standard_normal((steps + 1, model.m))
        xhat0 = rng.standard_normal(2)
        e0 = rng.standard_normal(2)
        xs, ys, us, ws, vs = _rollout(
            model, m1, d_values, xhat0 + e0, steps, rng, u_values=us_plant
        )
        state = init_observer(xhat0, model.delta_x0)
        for k in range(steps + 1):
            u_obs = us_plant[k] - du[k]
            state = step(state, dec2, g2, dyn2, u_obs, ys[k], model)
            if state.k >= 1:
                r = residual(dec2, state.xhat_star, u_obs, ys[k])
                T, B, D = stacked_residual_general(dec2, dyn2, dec1, model, state.k)
                t = _stack_noise(e0, ws, vs, state.k)
                predicted = (
                    T @ t
                    + B @ du[: state.k + 1].ravel()
                    + D @ d_values[: state.k + 1].ravel()
                )
                np.testing.assert_allclose(predicted, r, atol=1e-8)


def test_stacked_residual_general_rejects_dimension_mismatch(
    benchmark_model, benchmark_modes
):
    dec1 = decompose_mode(benchmark_model, benchmark_modes[0])
    dec5 = decompose_mode(benchmark_model, benchmark_modes[4])
    with pytest.warns(UserWarning):
        gains = synthesize_gains(dec1, benchmark_model)
        dyn = error_dynamics(dec1, gains, benchmark_model)
    with pytest.raises(UnsupportedPairError):
        stacked_residual_general(dec1, dyn, dec5, benchmark_model, 3)


# ----------------------------------------------- structural benchmark facts


def test_benchmark_cross_mode_attack_maps_vanish(benchmark_model, benchmark_modes):
    # every dimension-matched observer/true-mode pair has a vanishing attack
    # map: sparse attacks on this plant can never trip a residual threshold
    for mode_q in benchmark_modes[:4]:
        dec_q = decompose_mode(benchmark_model, mode_q)
        with pytest.warns(UserWarning):
            gains = synthesize_gains(dec_q, benchmark_model)
            dyn_q = error_dynamics(dec_q, gains, benchmark_model)
        for mode_s in benchmark_modes[:4]:
            dec_s = decompose_mode(benchmark_model, mode_s)
            T, B, D = stacked_residual_general(dec_q, dyn_q, dec_s, benchmark_model, 4)
            assert float(np.max(np.abs(D))) <= 1e-10


def test_benchmark_mode5_attack_map_vanishes_too(benchmark_model, benchmark_modes):
    # dimension mismatch rules out the packaged helper, but the block
    # construction still applies: reuse the stacked map of mode 5 directly
    dec5 = decompose_mode(benchmark_model, benchmark_modes[4])
    with pytest.warns(UserWarning):
        gains = synthesize_gains(dec5, benchmark_model)
        dyn5 = error_dynamics(dec5, gains, benchmark_model)
    k = 4
    sm = build_stacked(dyn5, dec5, k)
    n, l = 5, 5
    for mode_s in benchmark_modes[:4]:
        Gs, Hs = mode_s.Gq, mode_s.Hq
        worst = 0.0
        for j in range(k):
            wblk = sm.Aq_k[:, n + j * n : n + (j + 1) * n]
            vblk = sm.Aq_k[:, n * (k + 1) + j * l : n * (k + 1) + (j + 1) * l]
            worst = max(worst, float(np.max(np.abs(wblk @ Gs + vblk @ Hs))))
        vlast = sm.Aq_k[:, n * (k + 1) + k * l :]
        worst = max(worst, float(np.max(np.abs(vlast @ Hs))))
        assert worst <= 1e-10


def test_elimination_fires_on_distinguishable_plant():
    # constructed counterpart to the structurally immune benchmark: when the
    # attacked channel leaks into another hypothesis's residual directions,
    # a large attack pushes that residual past its threshold
    model, bank = _small_sensor_pair()
    (m1, dec1, g1, dyn1), (m2, dec2, g2, dyn2) = bank
    rng = np.random.default_rng(5)
    steps = 30
    d_values = 8.0 * np.ones((steps + 1, 1))
    xhat0 = np.zeros(2)
    e0 = _ball(rng, 2, model.delta_x0)
    xs, ys, us, ws, vs = _rollout(model, m1, d_values, xhat0 + e0, steps, rng)
    states = {1: init_observer(xhat0, model.delta_x0), 2: init_observer(xhat0, model.delta_x0)}
    trackers = {
        1: ThresholdTracker(dyn1, dec1, model.eta_w, model.eta_v, model.delta_x0),
        2: ThresholdTracker(dyn2, dec2, model.eta_w, model.eta_v, model.delta_x0),
    }
    banks = {1: (dec1, g1, dyn1), 2: (dec2, g2, dyn2)}
    eliminated = {1: False, 2: False}
    for k in range(steps + 1):
        for q in (1, 2):
            dec, gains, dyn = banks[q]
            states[q] = step(states[q], dec, gains, dyn, us[k], ys[k], model)
            if states[q].k >= 1:
                dinf, dtri, dhat = trackers[q].advance()
                rec = ResidualRecord.evaluate(
                    q, states[q].k,
                    residual(dec, states[q].xhat_star, us[k], ys[k]),
                    dinf, dtri,
                )
                eliminated[q] = eliminated[q] or rec.eliminated
    assert eliminated[2] is True  # wrong hypothesis rejected
    assert eliminated[1] is False  # true mode never trips its own threshold
