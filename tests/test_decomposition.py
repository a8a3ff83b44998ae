"""Frame construction, gain synthesis, and error-dynamics assembly."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_instance
from oracles import per_hypothesis_abar, per_hypothesis_m1_m2, riccati_difference_gain
from smio.decomposition import (
    ConservativeRadiusWarning,
    DecompositionError,
    InfeasibleModeError,
    ModeDecomposition,
    RankAmbiguityError,
    SynthesisError,
    _norm2,
    _stacked_norm2,
    decompose_mode,
    error_dynamics,
    synthesize_gains,
)
from smio.model import ModeHypothesis, SystemModel, enumerate_modes, invariant_zeros
from smio import sim


def _tiny_model(C, G, H, A=None, n=None):
    n = n if n is not None else C.shape[1]
    A = A if A is not None else 0.5 * np.eye(n)
    ell = C.shape[0]
    return SystemModel(
        A=A, B=np.zeros((n, 1)), C=C, D=np.zeros((ell, 1)), G=G, H=H
    )


# ------------------------------------------------------------- decomposition


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 4),
    ell=st.integers(1, 4),
    rho=st.integers(1, 4),
    inner=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_observer_and_detectability_test_agree_on_the_rank_of_hq(n, ell, rho, inner, seed):
    """decompose_mode and invariant_zeros split Hq at the same numerical
    rank, also when Hq is rank-deficient (a product through ``inner``
    columns, zero for inner = 0) or has columns 2^-30 times smaller than
    the others."""
    rng = np.random.default_rng(seed)
    draw = lambda r, c: rng.integers(-8, 9, size=(r, c)) / 4.0
    A, Gq, C = draw(n, n), draw(n, rho), draw(ell, n)
    Hq = draw(ell, inner) @ draw(inner, rho) * 2.0 ** -rng.choice([0, 30], size=rho)
    empty = np.zeros((0, rho))
    mode = ModeHypothesis(id=1, actuator_set=(), sensor_set=(), IG=empty, IH=empty, Gq=Gq, Hq=Hq)
    try:
        dec = decompose_mode(_tiny_model(C, Gq, Hq, A=A), mode)
    except RankAmbiguityError:
        assume(False)
    zeros, note = invariant_zeros(A, Gq, C, Hq)
    assume(zeros is not None)  # the note of a failed reduction gives no rank
    assert note.startswith(f"one-step reduction: rank {dec.p_H} output-visible")


def test_axis_aligned_single_sensor():
    model = _tiny_model(C=np.eye(2), G=np.zeros((2, 0)), H=np.array([[1.0], [0.0]]))
    (mode,) = enumerate_modes(0, 1, 1, model.G, model.H)
    dec = decompose_mode(model, mode)
    assert dec.p_H == 1
    np.testing.assert_allclose(dec.Sigma, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(dec.T1, [[1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(dec.T2, [[0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(dec.V1, [[1.0]], atol=1e-15)


def test_rank_zero_feedthrough():
    # one vulnerable actuator: Hq is the zero l x rho matrix
    model = _tiny_model(C=np.eye(2), G=np.ones((2, 1)), H=np.zeros((2, 0)))
    (mode,) = enumerate_modes(1, 0, 1, model.G, model.H)
    dec = decompose_mode(model, mode)
    assert dec.p_H == 0
    assert dec.T1.shape == (0, 2)
    np.testing.assert_allclose(dec.T2 @ dec.T2.T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(dec.V2, np.eye(1), atol=1e-15)
    np.testing.assert_allclose(dec.G2, mode.Gq, atol=1e-15)


def test_benchmark_mode5_residual_direction(benchmark_model, benchmark_modes):
    dec = decompose_mode(benchmark_model, benchmark_modes[4])
    assert dec.p_H == 4
    assert dec.T2.shape == (1, 5)
    np.testing.assert_allclose(dec.T2, [[0, 0, 0, 0, 1.0]], atol=1e-12)


def test_benchmark_modes_1_to_4_residual_span(benchmark_model, benchmark_modes):
    # for mode q (1..4) the unattacked sensors are {5-q, 5}; the attack-free
    # output plane must be exactly their span
    for q, mode in enumerate(benchmark_modes[:4], start=1):
        dec = decompose_mode(benchmark_model, mode)
        assert dec.p_H == 3
        assert dec.T2.shape == (2, 5)
        for axis in (4 - q, 4):
            e = np.zeros(5)
            e[axis] = 1.0
            proj = dec.T2.T @ (dec.T2 @ e)
            np.testing.assert_allclose(proj, e, atol=1e-12)


def test_frame_invariants_benchmark_and_random(benchmark_model, benchmark_modes):
    cases = [(benchmark_model, m) for m in benchmark_modes]
    rng = np.random.default_rng(42)
    for _ in range(8):
        model, bank = random_instance(rng)
        cases.extend((model, mode) for mode, *_ in bank)
    for model, mode in cases:
        dec = decompose_mode(model, mode)
        T = np.vstack([dec.T1, dec.T2])
        V = np.hstack([dec.V1, dec.V2])
        assert np.linalg.norm(T @ T.T - np.eye(model.l)) <= 1e-10
        assert np.linalg.norm(V.T @ V - np.eye(mode.rho)) <= 1e-10
        hnorm = np.linalg.norm(mode.Hq) or 1.0
        assert np.linalg.norm(dec.T2 @ mode.Hq) <= 1e-10 * hnorm
        np.testing.assert_allclose(dec.T1 @ mode.Hq @ dec.V1, dec.Sigma, atol=1e-10)
        assert np.linalg.norm(dec.T1 @ mode.Hq @ dec.V2) <= 1e-10 * hnorm
        # derived products stored consistently
        np.testing.assert_allclose(dec.C2, dec.T2 @ model.C, atol=1e-14)
        np.testing.assert_allclose(dec.G1, mode.Gq @ dec.V1, atol=1e-14)


def test_rank_ambiguity_detected():
    H = np.array([[1.0, 0.0], [0.0, 1e-14]])
    model = _tiny_model(C=np.eye(2), G=np.zeros((2, 0)), H=H)
    modes = enumerate_modes(0, 2, 2, model.G, model.H)
    with pytest.raises(RankAmbiguityError, match="singular value"):
        decompose_mode(model, modes[0])


def test_decomposition_deterministic_across_calls(benchmark_model, benchmark_modes):
    a = decompose_mode(benchmark_model, benchmark_modes[1])
    b = decompose_mode(benchmark_model, benchmark_modes[1])
    np.testing.assert_array_equal(a.T2, b.T2)
    np.testing.assert_array_equal(a.V1, b.V1)


# ----------------------------------------------------------------- synthesis


def test_m1_is_diagonal_inverse():
    H = np.array([[2.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
    model = _tiny_model(C=np.eye(3), G=np.zeros((3, 0)), H=H, A=0.4 * np.eye(3))
    modes = enumerate_modes(0, 2, 2, model.G, model.H)
    dec = decompose_mode(model, modes[0])
    gains = synthesize_gains(dec, model)
    np.testing.assert_allclose(np.sort(np.diag(dec.Sigma)), [0.5, 2.0], atol=1e-15)
    np.testing.assert_allclose(gains.M1 @ dec.Sigma, np.eye(2), atol=1e-12)


def test_gain_inversion_identities_benchmark(benchmark_model, benchmark_modes):
    for mode in benchmark_modes:
        dec = decompose_mode(benchmark_model, mode)
        gains = synthesize_gains(dec, benchmark_model)
        if dec.p_H:
            assert np.linalg.norm(gains.M1 @ dec.Sigma - np.eye(dec.p_H)) <= 1e-10
        width = dec.G2.shape[1]
        if width:
            assert np.linalg.norm(gains.M2 @ dec.C2 @ dec.G2 - np.eye(width)) <= 1e-10


def test_scalar_override_accept_and_reject():
    model = _tiny_model(
        C=np.array([[1.0]]), G=np.zeros((1, 0)), H=np.zeros((1, 0)), A=np.array([[0.5]])
    )
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    dec = decompose_mode(model, mode)
    gains = synthesize_gains(dec, model, override=np.array([[0.5]]))
    dyn = error_dynamics(dec, gains, model)
    np.testing.assert_allclose(dyn.Ae, [[0.25]], atol=1e-15)
    with pytest.raises(SynthesisError) as err:
        synthesize_gains(dec, model, override=np.array([[3.0]]))
    assert err.value.radius is not None
    assert err.value.radius >= 1.0
    assert f"{err.value.radius:.6f}" in str(err.value)


def test_override_shape_checked(benchmark_model, benchmark_modes):
    dec = decompose_mode(benchmark_model, benchmark_modes[0])
    with pytest.raises(SynthesisError, match="shape"):
        synthesize_gains(dec, benchmark_model, override=np.zeros((5, 3)))


def test_benchmark_all_modes_stabilized(benchmark_model, benchmark_modes):
    for mode in benchmark_modes:
        dec = decompose_mode(benchmark_model, mode)
        gains = synthesize_gains(dec, benchmark_model)
        with pytest.warns(ConservativeRadiusWarning):
            dyn = error_dynamics(dec, gains, benchmark_model)
        assert dyn.spectral_radius < 1.0
        assert dyn.theta >= dyn.spectral_radius


def test_riccati_gain_matches_iteration_oracle(benchmark_model, benchmark_modes):
    for mode in benchmark_modes:
        dec = decompose_mode(benchmark_model, mode)
        gains = synthesize_gains(dec, benchmark_model)
        M1, M2 = gains.M1, gains.M2
        At = benchmark_model.A - dec.G1 @ M1 @ dec.C1
        Abar = (np.eye(5) - dec.G2 @ M2 @ dec.C2) @ At
        _P, K = riccati_difference_gain(Abar, dec.C2)
        assert np.linalg.norm(K - gains.Ltilde) <= 1e-7 * max(1.0, np.linalg.norm(K))


def _scipy_gain(dec, model):
    """Ltilde from scipy's Schur-based DARE solver, or None where scipy finds
    no stabilizing gain; the same verdict rule as synthesize_gains."""
    linalg = pytest.importorskip("scipy.linalg")
    M1, M2 = per_hypothesis_m1_m2(dec)
    Abar = per_hypothesis_abar(dec, M1, M2, model)[2]
    n, r = model.n, dec.residual_dim
    try:
        P = linalg.solve_discrete_are(Abar.T, dec.C2.T, np.eye(n), np.eye(r))
    except (ValueError, np.linalg.LinAlgError):
        return None
    Lt = P @ dec.C2.T @ np.linalg.inv(dec.C2 @ P @ dec.C2.T + np.eye(r))
    radius = np.max(np.abs(np.linalg.eigvals((np.eye(n) - Lt @ dec.C2) @ Abar)))
    return Lt if radius < 1.0 else None


def _compare_with_scipy(model, mode):
    """Compare one hypothesis; returns False when it never reaches the solver."""
    try:
        dec = decompose_mode(model, mode)
        per_hypothesis_m1_m2(dec)
    except DecompositionError:
        return False
    if dec.residual_dim == 0:
        return False
    ref = _scipy_gain(dec, model)
    try:
        got = synthesize_gains(dec, model).Ltilde
    except SynthesisError:
        got = None
    assert (got is None) == (ref is None), (mode.id, ref is None)
    if ref is not None:
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref), mode.id
    return True


def test_riccati_gain_matches_scipy_builtin(benchmark_model, benchmark_modes):
    for mode in benchmark_modes:
        assert _compare_with_scipy(benchmark_model, mode)


def test_riccati_gain_matches_scipy_random():
    # every hypothesis of each drawn plant, including those no gain stabilizes
    compared = 0
    for seed in range(200):
        model, _bank = random_instance(np.random.default_rng(seed))
        t_a, t_s = model.G.shape[1], model.H.shape[1]
        for rho in range(t_a + t_s + 1):
            for mode in enumerate_modes(t_a, t_s, rho, model.G, model.H):
                compared += _compare_with_scipy(model, mode)
    assert compared > 500


def test_undetectable_unstable_mode_raises():
    # the residual output sees only the stable state; the unstable one (1.5)
    # is invisible to it, so no innovation gain can stabilize the error map
    model = _tiny_model(
        C=np.array([[0.0, 1.0]]), G=np.zeros((2, 0)), H=np.zeros((1, 0)),
        A=np.diag([1.5, 0.4]),
    )
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    dec = decompose_mode(model, mode)
    assert dec.residual_dim == 1
    with pytest.raises(SynthesisError, match="Riccati synthesis failed"):
        synthesize_gains(dec, model)


def test_infeasible_mode_rejected():
    # attacked actuator drives a state direction the residual outputs miss
    A = np.diag([0.5, 0.4])
    C = np.array([[1.0, 0.0]])
    G = np.array([[0.0], [1.0]])
    H = np.zeros((1, 0))
    model = _tiny_model(C=C, G=G, H=H, A=A)
    (mode,) = enumerate_modes(1, 0, 1, model.G, model.H)
    dec = decompose_mode(model, mode)
    with pytest.raises(InfeasibleModeError, match="rank deficient"):
        synthesize_gains(dec, model)


def test_no_residual_direction_needs_stable_open_map():
    # every output direction is attackable: l - p_H = 0, so no correction
    C = np.array([[1.0, 0.0]])
    H = np.array([[1.0]])
    stable = _tiny_model(C=C, G=np.zeros((2, 0)), H=H, A=np.diag([0.5, 0.4]), n=2)
    (mode,) = enumerate_modes(0, 1, 1, stable.G, stable.H)
    dec = decompose_mode(stable, mode)
    gains = synthesize_gains(dec, stable)
    assert gains.Ltilde.shape == (2, 0)
    dyn = error_dynamics(dec, gains, stable)
    np.testing.assert_allclose(dyn.Ae, dyn.Abar, atol=1e-15)

    unstable = _tiny_model(C=C, G=np.zeros((2, 0)), H=H, A=np.diag([1.5, 0.4]), n=2)
    dec_u = decompose_mode(unstable, mode)
    with pytest.raises(SynthesisError, match="no attack-free output direction") as err:
        synthesize_gains(dec_u, unstable)
    assert err.value.radius >= 1.0
    assert f"(spectral radius {err.value.radius:.6f})" in str(err.value)


# ------------------------------------------------------------ error dynamics


def test_degenerate_no_d2_component():
    # H full column rank: the whole attack is output-visible, G2 zero-width
    C = np.eye(3)
    H = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    G = np.zeros((3, 0))
    model = _tiny_model(C=C, G=G, H=H, A=0.6 * np.eye(3))
    modes = enumerate_modes(0, 2, 2, model.G, model.H)
    dec = decompose_mode(model, modes[0])
    assert dec.p_H == 2
    assert dec.G2.shape == (3, 0)
    gains = synthesize_gains(dec, model, override=np.zeros((3, 1)))
    dyn = error_dynamics(dec, gains, model)
    At = model.A - dec.G1 @ gains.M1 @ dec.C1
    np.testing.assert_allclose(dyn.Abar, At, atol=1e-14)
    np.testing.assert_allclose(dyn.Ae, dyn.Abar, atol=1e-14)


def test_degenerate_no_unknown_input_no_output():
    # no vulnerable channels and no outputs at all: everything zero-width
    model = SystemModel(
        A=0.5 * np.eye(2),
        B=np.zeros((2, 1)),
        C=np.zeros((0, 2)),
        D=np.zeros((0, 1)),
        G=np.zeros((2, 0)),
        H=np.zeros((0, 0)),
    )
    (mode,) = enumerate_modes(0, 0, 0, model.G, model.H)
    dec = decompose_mode(model, mode)
    gains = synthesize_gains(dec, model)
    assert gains.Ltilde.shape == (2, 0)
    dyn = error_dynamics(dec, gains, model)
    np.testing.assert_allclose(dyn.Abar, model.A, atol=1e-15)
    np.testing.assert_allclose(dyn.Bew_star, np.eye(2), atol=1e-15)


def test_error_dynamics_rebuild_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        model, bank = random_instance(rng)
        for _mode, dec, gains, dyn in bank:
            n = model.n
            Phi = np.eye(n) - dec.G2 @ gains.M2 @ dec.C2
            At = model.A - dec.G1 @ gains.M1 @ dec.C1
            IL = np.eye(n) - gains.Ltilde @ dec.C2
            np.testing.assert_allclose(dyn.Abar, Phi @ At, atol=1e-12)
            np.testing.assert_allclose(dyn.Ae, IL @ Phi @ At, atol=1e-12)
            np.testing.assert_allclose(dyn.Bew_star, Phi, atol=1e-12)
            np.testing.assert_allclose(
                dyn.Bev1_star, -Phi @ dec.G1 @ gains.M1 @ dec.T1, atol=1e-12
            )
            np.testing.assert_allclose(dyn.Bev2_star, -dec.G2 @ gains.M2 @ dec.T2, atol=1e-12)
            np.testing.assert_allclose(dyn.Bew, IL @ Phi, atol=1e-12)
            np.testing.assert_allclose(dyn.Bev1, IL @ dyn.Bev1_star, atol=1e-12)
            np.testing.assert_allclose(
                dyn.Bev2, IL @ dyn.Bev2_star - gains.Ltilde @ dec.T2, atol=1e-12
            )
            assert dyn.theta == pytest.approx(np.linalg.norm(dyn.Ae, 2))
            assert dyn.theta >= dyn.spectral_radius - 1e-12
            # structural identities of the frame
            if dec.G2.shape[1]:
                assert np.linalg.norm(Phi @ dec.G2) <= 1e-10
            feed = dyn.Bew_star @ _mode.Gq + dyn.Bev1_star @ _mode.Hq
            assert np.linalg.norm(feed) <= 1e-9 * max(1.0, np.linalg.norm(_mode.Gq))
            assert np.linalg.norm(dyn.Bev2 @ _mode.Hq) <= 1e-9 * max(
                1.0, np.linalg.norm(_mode.Hq)
            )


def _numpy_norm2(M):
    """The reference 2-norm: ``np.linalg.norm(M, 2)``, 0.0 for an empty M."""
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def _same_floats(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.tobytes() == want.tobytes()


def test_norm2_equals_numpy_matrix_2norm():
    """_norm2 and _stacked_norm2 give np.linalg.norm(M, 2)'s very floats:
    random shapes up to 6 x 7, empty, all-zero (of either sign) and one-row
    matrices, and stacks that mix zero and nonzero matrices."""
    rng = np.random.default_rng(23)
    for trial in range(600):
        count = int(rng.integers(1, 8))
        rows, cols = (int(v) for v in rng.integers(0, [7, 8]))
        stack = rng.standard_normal((count, rows, cols)) * 10.0 ** rng.uniform(-200, 200)
        if trial % 3 == 0:
            stack[:1] = 0.0
        if trial % 4 == 0:
            stack[1::2] = -0.0
        if trial % 5 == 0:
            stack = stack[:, :1]
        want = [_numpy_norm2(M) for M in stack]
        assert _same_floats([_norm2(M) for M in stack], want), trial
        assert _same_floats(_stacked_norm2(stack), want), trial


def _bank_cases():
    """(model, bank entry) pairs: the built-in bank and random plants' banks."""
    model = sim.benchmark_model()
    with pytest.warns(ConservativeRadiusWarning):
        bank, excluded = sim.build_bank(model, sim.benchmark_modes(model))
    assert not excluded
    cases = [(model, entry) for entry in bank.values()]
    rng = np.random.default_rng(31)
    for _ in range(25):
        model, entries = random_instance(rng, n_max=5, l_max=5)
        cases += [(model, entry) for entry in entries]
    return cases


def test_error_dynamics_norms_equal_numpy_matrix_2norms():
    """The nine 2-norms of ErrorDynamics, taken two stacks at a time, are
    np.linalg.norm(M, 2) of each matrix, on the built-in bank and on
    random plants."""
    for model, (_mode, dec, gains, dyn) in _bank_cases():
        At = model.A - dec.G1 @ gains.M1 @ dec.C1
        want = {
            "theta": _numpy_norm2(dyn.Ae),
            "a_pred": _numpy_norm2(At),
            "v_pred": _numpy_norm2(dec.G1 @ gains.M1 @ dec.T1),
            "w_gain": _numpy_norm2(dyn.Bew),
            "v_gain": _numpy_norm2(dyn.Bev1) + _numpy_norm2(dyn.Bev2),
            "v1m1": _numpy_norm2(dec.V1 @ gains.M1),
            "v2m2": _numpy_norm2(dec.V2 @ gains.M2),
            "c1": _numpy_norm2(dec.C1),
            "c2": _numpy_norm2(dec.C2),
        }
        for name, value in want.items():
            assert _same_floats(getattr(dyn, name), value), (name, _mode)


def test_rotation_of_residual_frame_is_invisible():
    # replacing T2 by Q T2 (any orthogonal Q) must leave every closed-loop
    # matrix unchanged once the gains are re-synthesized in the new frame
    rng = np.random.default_rng(3)
    model, bank = random_instance(rng, require_modes=1)
    mode, dec, gains, dyn = bank[0]
    rdim = dec.residual_dim
    if rdim == 0:
        pytest.skip("drew a mode with no residual direction")
    Qm, _ = np.linalg.qr(rng.normal(size=(rdim, rdim)))
    rot = ModeDecomposition(
        p_H=dec.p_H,
        T1=dec.T1,
        T2=Qm @ dec.T2,
        Sigma=dec.Sigma,
        V1=dec.V1,
        V2=dec.V2,
        C1=dec.C1,
        C2=Qm @ dec.C2,
        D1=dec.D1,
        D2=Qm @ dec.D2,
        G1=dec.G1,
        G2=dec.G2,
    )
    gains_rot = synthesize_gains(rot, model)
    dyn_rot = error_dynamics(rot, gains_rot, model)
    np.testing.assert_allclose(dyn_rot.Ae, dyn.Ae, atol=1e-9)
    np.testing.assert_allclose(dyn_rot.Abar, dyn.Abar, atol=1e-9)
    np.testing.assert_allclose(dyn_rot.Bew, dyn.Bew, atol=1e-9)
    np.testing.assert_allclose(dyn_rot.Bev1, dyn.Bev1, atol=1e-9)
    np.testing.assert_allclose(dyn_rot.Bev2, dyn.Bev2, atol=1e-9)
    assert dyn_rot.theta == pytest.approx(dyn.theta, abs=1e-9)
