"""Shared fixtures: the five-state benchmark plant, its mode bank, and a
generator of random small plants with feasible (synthesizable) modes."""

import warnings

import numpy as np
import pytest

from smio import sim
from smio.decomposition import (
    ConservativeRadiusWarning,
    DecompositionError,
    decompose_mode,
    error_dynamics,
    synthesize_gains,
)
from smio.model import SystemModel, enumerate_modes


@pytest.fixture(scope="session")
def benchmark_model() -> SystemModel:
    return sim.benchmark_model()


@pytest.fixture(scope="session")
def benchmark_modes(benchmark_model):
    return sim.benchmark_modes(benchmark_model)


def random_instance(rng, n_max=4, l_max=4, require_modes=1):
    """Draw a random small plant and return (model, bank) where bank holds
    every mode that decomposes and synthesizes cleanly, as tuples
    (mode, decomposition, gains, dynamics).  Redraws until at least
    ``require_modes`` modes are feasible."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        ell = int(rng.integers(1, l_max + 1))
        m = int(rng.integers(1, 3))
        t_a = int(rng.integers(0, 3))
        t_s = int(rng.integers(0, 3))
        if t_a + t_s == 0:
            continue
        rho = int(rng.integers(0, t_a + t_s + 1))
        A = rng.normal(size=(n, n))
        radius = max(np.abs(np.linalg.eigvals(A)))
        A *= rng.uniform(0.3, 0.95) / max(radius, 1e-9)
        model = SystemModel(
            A=A,
            B=rng.normal(size=(n, m)),
            C=rng.normal(size=(ell, n)),
            D=rng.normal(size=(ell, m)),
            G=rng.normal(size=(n, t_a)),
            H=rng.normal(size=(ell, t_s)),
            eta_w=float(10.0 ** rng.uniform(-3, -1.5)),
            eta_v=float(10.0 ** rng.uniform(-4, -2.5)),
            delta_x0=float(10.0 ** rng.uniform(-1, 0.0)),
        )
        bank = []
        for mode in enumerate_modes(t_a, t_s, rho, model.G, model.H):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ConservativeRadiusWarning)
                    dec = decompose_mode(model, mode)
                    gains = synthesize_gains(dec, model)
                    dyn = error_dynamics(dec, gains, model)
            except DecompositionError:
                continue
            bank.append((mode, dec, gains, dyn))
        if len(bank) >= require_modes:
            return model, bank
