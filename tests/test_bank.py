"""The observer bank built in shape-grouped stacks.

``sim.build_bank`` takes the hypotheses that share their matrix shapes
through each stage together, in stacked LAPACK and matmul calls.  These
tests hold it to the per-hypothesis chain it replaced
(``oracles.per_hypothesis_bank``): the bytes of every bank matrix, every
float, every exclusion reason, the order of both dicts and the warnings.
"""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import random_instance
from smio import cli, decomposition, sim
from smio.model import SystemModel, enumerate_modes

DEMOS = Path(__file__).resolve().parent.parent / "demos"

_DEC = ("T1", "T2", "Sigma", "V1", "V2", "C1", "C2", "D1", "D2", "G1", "G2")
_GAINS = ("M1", "M2", "Ltilde")
_DYN = ("Abar", "Ae", "Bew_star", "Bev1_star", "Bev2_star", "Bew", "Bev1", "Bev2")
_FLOATS = ("theta", "a_pred", "v_pred", "w_gain", "v_gain", "v1m1", "v2m2", "c1", "c2")


def _array(a):
    return a.shape, a.dtype.str, a.flags.c_contiguous, a.flags.writeable, a.tobytes()


def _fingerprint(bank, excluded, caught):
    """Everything a bank build publishes, in comparable form."""
    out = [
        list(bank),
        list(excluded.items()),
        [(w.category, str(w.message)) for w in caught],
    ]
    for q, (mode, dec, gains, dyn) in bank.items():
        out.append(
            (
                q,
                mode,
                dec.p_H,
                [_array(getattr(dec, name)) for name in _DEC],
                [_array(getattr(gains, name)) for name in _GAINS],
                [_array(getattr(dyn, name)) for name in _DYN],
                [(type(getattr(dyn, f)), float(getattr(dyn, f)).hex()) for f in _FLOATS],
            )
        )
    return out


def _builds(model, modes):
    """The stacked build's and the per-hypothesis chain's fingerprints, and
    the stacked build's bank."""
    results = []
    for build in (sim.build_bank, oracles.per_hypothesis_bank):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bank, excluded = build(model, modes)
        results.append(_fingerprint(bank, excluded, caught))
    return results[0], results[1], bank


def _plant(A, C, G, H, **bounds):
    A, C = np.asarray(A, dtype=float), np.asarray(C, dtype=float)
    n, ell = A.shape[0], C.shape[0]
    return SystemModel(
        A=A, B=np.ones((n, 1)), C=C, D=np.zeros((ell, 1)),
        G=np.asarray(G, dtype=float).reshape(n, -1), H=np.asarray(H, dtype=float).reshape(ell, -1),
        eta_w=0.01, eta_v=0.001, delta_x0=0.2, **bounds,
    )


def _edge_banks():
    """(name, model, modes) of the edge configs."""
    A = [[0.5, 0.2, 0.0], [0.0, 0.4, 0.3], [0.1, 0.0, 0.6]]
    C = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    G = [[1.0], [0.0], [0.5]]
    H = np.eye(4)[:, :2]
    full = _plant(A, C, G, H)
    unstable = _plant(
        [[1.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.3]],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        np.zeros((3, 0)),
        np.eye(3),
    )
    no_channels = _plant(A, C, np.zeros((3, 0)), np.zeros((4, 0)))
    zero_c = _plant(A, np.zeros((4, 3)), G, H)
    return [
        ("no attack channels", no_channels, enumerate_modes(0, 0, 0, no_channels.G, no_channels.H)),
        ("rho 0", full, enumerate_modes(1, 2, 0, full.G, full.H)),
        ("every channel attacked", full, enumerate_modes(1, 2, 3, full.G, full.H)),
        ("C = 0", zero_c, enumerate_modes(1, 2, 1, zero_c.G, zero_c.H)),
        ("unstable undetectable", unstable, enumerate_modes(0, 3, 1, unstable.G, unstable.H)),
    ]


def _named_banks():
    model = sim.benchmark_model()
    yield "built-in", model, sim.benchmark_modes(model)
    for path in sorted(DEMOS.glob("*.json")):
        _doc, model, modes, _bounds = cli._read_config(path)
        yield path.stem, model, modes
    yield from _edge_banks()


@pytest.mark.parametrize(
    "name, model, modes", list(_named_banks()), ids=[name for name, *_ in _named_banks()]
)
def test_stacked_bank_equals_the_per_hypothesis_chain(name, model, modes):
    got, want, _bank = _builds(model, modes)
    assert got == want, name


def test_stacked_bank_equals_the_per_hypothesis_chain_on_random_plants():
    """200 seeded random plants, every sparsity of each; the banks must
    include a group (one p_H) whose members' Abar spectra are real for some
    and complex for others, and hypotheses excluded at each stage."""
    mixed = 0
    reasons = set()
    for seed in range(200):
        model, built = random_instance(np.random.default_rng(seed))
        t_a, t_s = built[0][0].IG.shape[0], built[0][0].IH.shape[0]
        for rho in range(t_a + t_s + 1):
            modes = enumerate_modes(t_a, t_s, rho, model.G, model.H)
            got, want, bank = _builds(model, modes)
            assert got == want, (seed, rho)
            kinds: dict[int, set] = {}
            for _mode, dec, _gains, dyn in bank.values():
                kinds.setdefault(dec.p_H, set()).add(np.iscomplexobj(np.linalg.eigvals(dyn.Abar)))
            mixed += any(len(k) == 2 for k in kinds.values())
            reasons |= {why.split(":")[0] for _q, why in got[1]}
    assert mixed > 0
    assert {"not strongly detectable", "InfeasibleModeError"} <= reasons


def test_a_diverging_doubling_excludes_only_its_member(monkeypatch):
    """With detectability forced to pass, the unstable plant's hypothesis
    whose residual outputs miss the unstable state diverges in the
    doubling; its group's other members are built as alone."""
    name, model, modes = _edge_banks()[-1]
    monkeypatch.setattr(sim, "_detectable", lambda zeros, note: (True, None))
    monkeypatch.setattr(oracles, "per_hypothesis_detectable", lambda *args: True)
    got, want, _bank = _builds(model, modes)
    assert got == want
    bank, excluded = sim.build_bank(model, modes)
    assert list(bank) == [1, 2]
    diverged = "SynthesisError: Riccati synthesis failed: the doubling iteration diverged"
    assert excluded == {3: diverged}


def test_a_singular_solve_fails_only_its_pair(monkeypatch):
    """A stacked solve that raises is retaken pair by pair: the pair whose
    solve is singular gets the per-hypothesis error, the others their
    per-hypothesis solution."""
    sentinel = 5.0  # 1 + 2**2: the first solve's corner for C2 = [2, 0, 0]
    real_solve = np.linalg.solve

    def solve(a, b):
        if np.any(np.asarray(a)[..., 0, 0] == sentinel):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    Abar = np.array([[[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.4]]] * 3)
    Abar[2, 0, 0] = 1.2
    C2 = np.array([[[1.0, 0.5, 0.0]], [[2.0, 0.0, 0.0]], [[0.3, 1.0, 0.2]]])
    got = decomposition._filter_dare(Abar, C2)
    for i in range(3):
        try:
            want = oracles.per_hypothesis_filter_dare(Abar[i], C2[i])
        except decomposition.SynthesisError as exc:
            assert isinstance(got[i], decomposition.SynthesisError)
            assert str(got[i]) == str(exc) == "Riccati synthesis failed: Singular matrix"
        else:
            assert got[i].tobytes() == want.tobytes()
    assert isinstance(got[1], decomposition.SynthesisError)


def _traced_peak(model, modes):
    """(peak, retained) bytes traced while building a bank."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bank = sim.build_bank(model, modes)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del bank
    return peak, retained


def test_bank_transients_do_not_grow_with_the_bank(monkeypatch):
    """A 66-hypothesis bank of a 24-state plant is built in chunks: above
    what the bank keeps, its build peaks within a chunk's budget of one
    hypothesis's build, where one stack of all 66 would hold about 27 MB of
    candidate pencils alone."""
    rng = np.random.default_rng(7)
    n, ell = 24, 12
    A = rng.normal(size=(n, n))
    A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
    model = _plant(A, rng.normal(size=(ell, n)), np.zeros((n, 0)), np.eye(ell))
    modes = enumerate_modes(0, ell, 2, model.G, model.H)
    assert len(modes) == 66
    _traced_peak(model, modes[:1])  # lazy imports and caches outside the measurement
    one_peak, _ = _traced_peak(model, modes[:1])
    peak, retained = _traced_peak(model, modes)
    assert peak - retained <= one_peak + sim.GROUP_BYTES
    # one hypothesis per chunk: the transients are one hypothesis's
    monkeypatch.setattr(sim, "GROUP_BYTES", 0)
    peak, retained = _traced_peak(model, modes)
    assert peak - retained <= 1.5 * one_peak
