"""Mode enumeration, structural checks, and model validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import invariant_zeros_per_eigenvalue, invariant_zeros_symbolic
from smio import model as model_module
from smio.model import (
    MODES_MAX,
    AttackSignal,
    DegenerateModeWarning,
    ModelError,
    SparsityError,
    SystemModel,
    check_strong_detectability,
    enumerate_modes,
    invariant_zeros,
    validate,
)


# ---------------------------------------------------------------- enumeration


def test_benchmark_enumeration_matches_known_attack_sets(benchmark_model, benchmark_modes):
    assert len(benchmark_modes) == 5
    expected = [
        ((1,), (1, 2, 3)),
        ((1,), (1, 2, 4)),
        ((1,), (1, 3, 4)),
        ((1,), (2, 3, 4)),
        ((), (1, 2, 3, 4)),
    ]
    for mode, (acts, sens) in zip(benchmark_modes, expected):
        assert mode.actuator_set == acts
        assert mode.sensor_set == sens
    assert [m.id for m in benchmark_modes] == [1, 2, 3, 4, 5]
    for mode in benchmark_modes:
        assert mode.Gq.shape == (5, 4)
        assert mode.Hq.shape == (5, 4)
        np.testing.assert_array_equal(mode.Gq, benchmark_model.G @ mode.IG)
        np.testing.assert_array_equal(mode.Hq, benchmark_model.H @ mode.IH)


def test_zero_sparsity_gives_single_empty_mode():
    G = np.ones((3, 2))
    H = np.ones((2, 2))
    modes = enumerate_modes(2, 2, 0, G, H)
    assert len(modes) == 1
    (mode,) = modes
    assert mode.actuator_set == ()
    assert mode.sensor_set == ()
    assert mode.Gq.shape == (3, 0)
    assert mode.Hq.shape == (2, 0)


def test_four_choose_two_enumeration_order():
    G = np.arange(6.0).reshape(3, 2)
    H = np.arange(4.0).reshape(2, 2)
    modes = enumerate_modes(2, 2, 2, G, H)
    got = [(m.actuator_set, m.sensor_set) for m in modes]
    assert got == [
        ((1, 2), ()),
        ((1,), (1,)),
        ((1,), (2,)),
        ((2,), (1,)),
        ((2,), (2,)),
        ((), (1, 2)),
    ]


def test_mode_count_exhaustive_small_range():
    for t_a in range(0, 5):
        for t_s in range(0, 5):
            if t_a + t_s == 0 or t_a + t_s > 8:
                continue
            G = np.random.default_rng(0).normal(size=(3, t_a))
            H = np.random.default_rng(1).normal(size=(2, t_s))
            for rho in range(0, t_a + t_s + 1):
                modes = enumerate_modes(t_a, t_s, rho, G, H)
                assert len(modes) == math.comb(t_a + t_s, rho)


def test_sparsity_out_of_range_rejected():
    G = np.ones((2, 1))
    H = np.ones((2, 3))
    with pytest.raises(SparsityError):
        enumerate_modes(1, 3, 5, G, H)
    with pytest.raises(SparsityError):
        enumerate_modes(1, 3, -1, G, H)


@pytest.mark.parametrize("t_a, t_s, rho", [(-1, 5, 4), (-1, 0, 0), (2, -1, 1)])
def test_negative_channel_count_rejected_by_name(t_a, t_s, rho):
    name, count = ("t_a", t_a) if t_a < 0 else ("t_s", t_s)
    G = np.ones((2, max(t_a, 0)))
    H = np.ones((2, max(t_s, 0)))
    with pytest.raises(SparsityError, match=f"^{name}={count} must be a nonnegative"):
        enumerate_modes(t_a, t_s, rho, G, H)


def test_bank_above_the_cap_rejected_before_enumerating(monkeypatch):
    """t_s = 40, rho = 20 asks for about 1.4e11 hypotheses: refused by
    name before a single combination is drawn."""

    def no_enumeration(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(model_module.itertools, "combinations", no_enumeration)
    with pytest.raises(SparsityError, match=r"^t_a=0, t_s=40, rho=20 give 137846528820 hypotheses"):
        enumerate_modes(0, 40, 20, np.ones((2, 0)), np.ones((3, 40)))
    assert math.comb(40, 20) > MODES_MAX


def test_bank_at_the_cap_is_enumerated(monkeypatch):
    monkeypatch.setattr(model_module, "MODES_MAX", 6)
    G, H = np.ones((2, 1)), np.ones((2, 3))
    assert len(enumerate_modes(1, 3, 2, G, H)) == 6
    with pytest.raises(SparsityError, match=r"^t_a=1, t_s=4, rho=2 give 10 hypotheses, more than the 6"):
        enumerate_modes(1, 4, 2, G, np.ones((2, 4)))


@settings(max_examples=60, deadline=None)
@given(
    t_a=st.integers(min_value=1, max_value=4),
    t_s=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_selector_columns_are_distinct_basis_vectors(t_a, t_s, data):
    rho = data.draw(st.integers(min_value=0, max_value=t_a + t_s))
    rng = np.random.default_rng(7)
    G = rng.normal(size=(3, t_a))
    H = rng.normal(size=(4, t_s))
    for mode in enumerate_modes(t_a, t_s, rho, G, H):
        stacked = np.vstack([mode.IG, mode.IH])
        assert stacked.shape == (t_a + t_s, rho)
        # each column a standard basis vector, no channel selected twice
        assert np.all(np.sum(stacked, axis=0) == 1.0)
        assert np.all((stacked == 0.0) | (stacked == 1.0))
        assert np.all(np.sum(stacked, axis=1) <= 1.0)
        np.testing.assert_array_equal(mode.Gq, G @ mode.IG)
        np.testing.assert_array_equal(mode.Hq, H @ mode.IH)
        # attack-vector convention: actuator columns first, ascending
        channels = [int(np.argmax(col)) for col in stacked.T]
        assert channels == sorted(channels)


# ------------------------------------------------------- strong detectability


def test_benchmark_modes_all_strongly_detectable(benchmark_model, benchmark_modes):
    for mode in benchmark_modes:
        assert check_strong_detectability(
            benchmark_model.A, mode.Gq, benchmark_model.C, mode.Hq
        )


def test_deadbeat_system_is_strongly_detectable():
    n = 3
    assert check_strong_detectability(
        np.zeros((n, n)), np.zeros((n, 2)), np.eye(n), np.zeros((n, 2))
    )
    zeros, note = invariant_zeros(np.zeros((n, n)), np.zeros((n, 2)), np.eye(n), np.zeros((n, 2)))
    assert zeros == []
    assert "quotiented" in note


def test_unobservable_unstable_scalar_is_not():
    A = np.array([[2.0]])
    C = np.array([[0.0]])
    empty = np.zeros((1, 0))
    assert not check_strong_detectability(A, empty, C, empty)
    zeros, _ = invariant_zeros(A, empty, C, empty)
    assert zeros is not None
    assert len(zeros) == 1
    assert abs(zeros[0] - 2.0) < 1e-9


def test_invisible_attack_range_degrades_conservatively():
    # the attacked actuator drives a state the residual outputs cannot see
    A = np.diag([0.5, 0.4])
    Gq = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    Hq = np.zeros((1, 1))
    zeros, note = invariant_zeros(A, Gq, C, Hq)
    assert zeros is None
    assert "column-rank deficient" in note
    with pytest.warns(DegenerateModeWarning):
        assert not check_strong_detectability(A, Gq, C, Hq)


def _cluster(values, tol=1e-5):
    out = []
    for v in sorted(values, key=lambda c: (c.real, c.imag)):
        if not any(abs(v - u) <= tol for u in out):
            out.append(v)
    return out


def _random_quadruple(rng, n, l, rho, zero_H):
    # dyadic entries keep the symbolic oracle exact and fast
    draw = lambda r, c: rng.integers(-8, 9, size=(r, c)) / 4.0
    A = draw(n, n)
    Gq = draw(n, rho)
    C = draw(l, n)
    Hq = np.zeros((l, rho)) if zero_H else draw(l, rho)
    return A, Gq, C, Hq


@pytest.mark.parametrize(
    "n,l,rho,zero_H",
    [
        (2, 1, 1, True),
        (2, 2, 1, False),
        (3, 1, 1, True),
        (3, 2, 1, False),
        (3, 2, 2, False),
        (3, 3, 2, False),
    ],
)
def test_invariant_zeros_match_symbolic_oracle(n, l, rho, zero_H):
    rng = np.random.default_rng(100 * n + 10 * l + rho + int(zero_H))
    checked = 0
    attempts = 0
    while checked < 5 and attempts < 60:
        attempts += 1
        A, Gq, C, Hq = _random_quadruple(rng, n, l, rho, zero_H)
        got, _note = invariant_zeros(A, Gq, C, Hq)
        if got is None:
            continue
        try:
            expected = invariant_zeros_symbolic(A, Gq, C, Hq)
        except ValueError:
            continue
        g = _cluster(got)
        e = _cluster(expected)
        assert len(g) == len(e), (A, Gq, C, Hq, g, e)
        for zg, ze in zip(g, e):
            assert abs(zg - ze) < 1e-6, (A, Gq, C, Hq, g, e)
        # the boolean check agrees whenever no zero sits near the circle
        if all(abs(abs(z) - 1.0) > 1e-6 for z in e):
            assert check_strong_detectability(A, Gq, C, Hq) == all(
                abs(z) < 1.0 for z in e
            )
        checked += 1
    assert checked == 5, f"only {checked} comparable draws out of {attempts}"


def _zeros_bytes(zeros):
    return None if zeros is None else np.array(zeros, dtype=complex).tobytes()


def test_batched_invariant_zeros_equal_the_per_eigenvalue_loop():
    """One batched SVD over the candidate eigenvalues gives the loop's
    zeros and note exactly, on random plants with real and complex
    eigenvalues, with and without zeros, and on untestable structures."""
    rng = np.random.default_rng(77)
    seen = {"complex_zero": 0, "real_zero": 0, "none": 0}
    for trial in range(400):
        n = int(rng.integers(1, 6))
        l = int(rng.integers(1, 5))
        rho = int(rng.integers(0, 4))
        if trial % 2:
            A, Gq, C, Hq = _random_quadruple(rng, n, l, rho, zero_H=trial % 4 == 1)
        else:
            A, Gq, C, Hq = (rng.normal(size=shape) for shape in ((n, n), (n, rho), (l, n), (l, rho)))
        got = invariant_zeros(A, Gq, C, Hq)
        want = invariant_zeros_per_eigenvalue(A, Gq, C, Hq)
        assert got[1] == want[1], trial
        assert _zeros_bytes(got[0]) == _zeros_bytes(want[0]), trial
        zeros = got[0]
        if zeros is None:
            seen["none"] += 1
            continue
        seen["complex_zero"] += any(z.imag for z in zeros)
        seen["real_zero"] += any(not z.imag for z in zeros)
    for key in seen:
        assert seen[key] >= 5, seen


def test_square_channel_case_has_true_finite_zeros():
    # l == rho with an invertible feedthrough-like structure gives genuinely
    # nontrivial zeros; make sure we are not just comparing empty sets
    rng = np.random.default_rng(5)
    found_nonempty = 0
    for _ in range(40):
        A, Gq, C, Hq = _random_quadruple(rng, 3, 2, 2, zero_H=False)
        got, _ = invariant_zeros(A, Gq, C, Hq)
        if got:
            expected = invariant_zeros_symbolic(A, Gq, C, Hq)
            assert len(_cluster(got)) == len(_cluster(expected))
            found_nonempty += 1
    assert found_nonempty >= 3


# ------------------------------------------------------------------ validate


def test_benchmark_model_validates_clean(benchmark_model):
    assert validate(benchmark_model) == []


def test_validate_flags_bad_row_count(benchmark_model):
    bad = SystemModel(
        A=benchmark_model.A,
        B=np.zeros((4, 1)),
        C=benchmark_model.C,
        D=benchmark_model.D,
        G=benchmark_model.G,
        H=benchmark_model.H,
    )
    report = validate(bad)
    assert len(report) == 1
    assert "B" in report[0]


def test_validate_flags_negative_noise_bound(benchmark_model):
    bad = SystemModel(
        A=benchmark_model.A,
        B=benchmark_model.B,
        C=benchmark_model.C,
        D=benchmark_model.D,
        G=benchmark_model.G,
        H=benchmark_model.H,
        eta_w=-1.0,
    )
    report = validate(bad)
    assert len(report) == 1
    assert "eta_w" in report[0]


def test_validate_flags_non_matrix():
    bad = SystemModel(
        A=np.zeros(3),
        B=np.zeros((3, 1)),
        C=np.eye(3),
        D=np.zeros((3, 1)),
        G=np.zeros((3, 1)),
        H=np.zeros((3, 1)),
    )
    report = validate(bad)
    assert any("A" in line and "2-D" in line for line in report)


# ------------------------------------------------------------- attack signal


def test_attack_signal_shape_checked(benchmark_modes):
    mode = benchmark_modes[0]
    with pytest.raises(ModelError):
        AttackSignal(mode=mode, values=np.zeros((10, 3)))
    sig = AttackSignal.zeros(mode, 12)
    assert len(sig) == 12
    assert sig.values.shape == (12, 4)


def test_attack_signal_single_channel_accepts_flat_values():
    modes = enumerate_modes(1, 1, 1, np.ones((2, 1)), np.ones((1, 1)))
    sig = AttackSignal(mode=modes[0], values=np.sin(np.arange(8.0)))
    assert sig.values.shape == (8, 1)
    sig0 = AttackSignal.zeros(modes[0], 8)
    assert sig0.values.shape == (8, 1)


def test_model_arrays_immutable(benchmark_model, benchmark_modes):
    with pytest.raises(ValueError):
        benchmark_model.A[0, 0] = 9.9
    with pytest.raises(ValueError):
        benchmark_modes[0].IG[0, 0] = 9.9
