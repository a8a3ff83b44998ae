"""Closed-loop simulation of the attacked plant and the full estimation pipeline.

Simulates the switched plant under one true mode, then runs the bank of
observers over the whole horizon at once: the plant trajectory exists
before the bank runs, each observer is a fixed affine recursion, its radii
and thresholds do not depend on the data, and eliminating one hypothesis
never changes another's estimates.  The plant's known-input, attack and
output terms are one stacked product each over the horizon, and only
``A x_k`` is stepped.  Per mode, the data drive of every step is one
matrix product per observer stage; the state recursion then steps every
mode at once, one stacked product of the modes' n-by-n error maps per
step; and the observer's stages, whose innovation is the residual, take
one product each.  The thresholds are walked one step at a time up to the
fixed cutoff :data:`~smio.modeguard.K_INF_CUTOFF_DEFAULT` (25), where the
enumerated threshold needs each step's stacked map, and past it a block of
steps at a time: one array of triangle thresholds and one vectorised
residual test per block, with blocks that double in size.  The walk stops
at the first step whose residual test eliminates the mode, so at most one
block is computed past it.  The run records everything in a replayable
trace of arrays.  Noise is drawn uniformly from the 2-norm balls the
bounds describe, so runs exercise the constraint set all the way to its
boundary; every random draw is tied to one seed and a fixed stream order,
which makes traces bit-reproducible.  Each noise direction is drawn into
its row in that order, and the rows are scaled at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .decomposition import (
    DecompositionError,
    decompose_mode,
    error_dynamics,
    synthesize_gains,
)
from .model import (
    AttackSignal,
    ModeHypothesis,
    SystemModel,
    check_strong_detectability,
    enumerate_modes,
)
from .modeguard import (
    ENUM_BUDGET_DEFAULT,
    K_INF_CUTOFF_DEFAULT,
    ThresholdTracker,
    eliminate,
    residual_scale,
)
from .observer import ObserverState, radius_sequence, run_bank, stage_rows

__all__ = [
    "SimulationError",
    "ScenarioConfig",
    "RunTrace",
    "HORIZON_MAX",
    "FAULT_ELIMINATED",
    "FAULT_NONFINITE",
    "check_horizon",
    "sample_bounded",
    "simulate_plant",
    "build_bank",
    "run_pipeline",
    "benchmark_model",
    "benchmark_modes",
    "sinusoid_attack",
    "benchmark_scenario",
]


# Largest accepted horizon.  A run's arrays grow with the horizon: on the
# built-in five-hypothesis plant ``run_pipeline`` holds about 1.5 KB per step,
# and writing the CSV, a block of steps at a time, adds about 8 MB whatever
# the horizon, so ``smio benchmark`` at the cap peaks at about 0.18 GB resident
# (and takes about 6.5 s on a 2-core host with one BLAS thread).
HORIZON_MAX = 100_000

# Steps in the first block of the threshold walk past the cutoff; each
# later block is twice the last, so at most one block is computed past an
# elimination.
_WALK_BLOCK = 32

# RunTrace.fault_kind values
FAULT_ELIMINATED = "all_eliminated"
FAULT_NONFINITE = "nonfinite_output"


class SimulationError(ValueError):
    """The scenario configuration is unusable."""


def check_horizon(horizon: int) -> int:
    """``horizon`` as an int; raises :class:`SimulationError` unless it is
    in ``1..HORIZON_MAX``.  Callers check before building any array of
    horizon length."""
    horizon = int(horizon)
    if horizon < 1:
        raise SimulationError("horizon must be at least 1")
    if horizon > HORIZON_MAX:
        raise SimulationError(f"horizon must be at most {HORIZON_MAX}, got {horizon}")
    return horizon


def _opt_array(x, name, shape=None):
    if x is None:
        return None
    arr = np.array(x, dtype=float)
    if shape is not None and arr.shape != shape:
        raise SimulationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SimulationError(f"{name} must hold finite numbers only (no NaN or Infinity)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything one estimation run depends on.  Every array must be
    finite, ``horizon`` at most :data:`HORIZON_MAX`, and ``noise_seed``
    nonnegative."""

    model: SystemModel
    modes: tuple[ModeHypothesis, ...]
    true_mode: int
    horizon: int
    attack: AttackSignal | None = None
    known_input: np.ndarray | None = field(default=None, repr=False)
    noise_seed: int = 0
    xhat0: np.ndarray | None = field(default=None, repr=False)
    x0: np.ndarray | None = field(default=None, repr=False)
    # constants, not fields: bench/run.py and tests/oracles.py read them off a config
    k_inf_cutoff: ClassVar[int] = K_INF_CUTOFF_DEFAULT
    enum_budget: ClassVar[int] = ENUM_BUDGET_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "horizon", check_horizon(self.horizon))
        object.__setattr__(self, "true_mode", int(self.true_mode))
        if self.noise_seed < 0:
            raise SimulationError(f"noise seed must be nonnegative, got {self.noise_seed}")
        ids = [m.id for m in self.modes]
        if len(set(ids)) != len(ids):
            raise SimulationError("mode ids must be unique")
        if self.true_mode not in ids:
            raise SimulationError(
                f"true mode {self.true_mode} is not in the hypothesis set {sorted(ids)}"
            )
        n, m = self.model.n, self.model.m
        object.__setattr__(
            self,
            "known_input",
            _opt_array(self.known_input, "known_input"),
        )
        if self.known_input is not None:
            ki = self.known_input
            if ki.ndim == 1 and m == 1:
                ki = ki.reshape(-1, 1)
                ki.setflags(write=False)
                object.__setattr__(self, "known_input", ki)
            if self.known_input.ndim != 2 or self.known_input.shape[1] != m:
                raise SimulationError(
                    f"known_input must be a (steps, {m}) array, got {self.known_input.shape}"
                )
            if self.known_input.shape[0] < self.horizon + 1:
                raise SimulationError(
                    f"known_input must cover {self.horizon + 1} steps, "
                    f"got {self.known_input.shape[0]}"
                )
        object.__setattr__(self, "xhat0", _opt_array(self.xhat0, "xhat0", (n,)))
        object.__setattr__(self, "x0", _opt_array(self.x0, "x0", (n,)))
        if self.attack is not None:
            if self.attack.mode.id != self.true_mode:
                raise SimulationError(
                    f"attack is defined for mode {self.attack.mode.id}, "
                    f"but the true mode is {self.true_mode}"
                )
            if len(self.attack) < self.horizon + 1:
                raise SimulationError(
                    f"attack signal must cover {self.horizon + 1} steps, got {len(self.attack)}"
                )
            _opt_array(self.attack.values, "attack values")

    def mode_by_id(self, mode_id: int) -> ModeHypothesis:
        for m in self.modes:
            if m.id == mode_id:
                return m
        raise SimulationError(f"no mode with id {mode_id}")

    @property
    def inputs(self) -> np.ndarray:
        """Known input sequence fed to the plant and to every observer
        (zeros when the scenario gives none)."""
        if self.known_input is not None:
            return self.known_input
        return np.zeros((self.horizon + 1, self.model.m))


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Complete record of one pipeline run, as arrays over the recorded steps.

    ``states``, ``outputs``, ``inputs`` and ``attack_values`` cover the full
    horizon.  The per-mode arrays cover the recorded steps ``0..K-1`` (first
    axis) and the modes of ``mode_ids`` (second axis): ``xhat``,
    ``xhat_pred`` and ``xhat_star`` are ``(K, Q, n)``, ``dhat`` is ``(K, Q,
    rho)``, and ``delta_x``, ``delta_d``, ``r_norm``, ``delta_inf``,
    ``delta_tri`` and ``delta_hat`` are ``(K, Q)``; ``residuals[i]`` is the
    ``(K, r)`` residual array of mode ``mode_ids[i]``.  ``live`` marks the
    steps at which a mode's residual test ran (steps 1 up to the step that
    eliminated it); the residual and threshold entries are NaN elsewhere,
    and so is ``delta_inf`` past the cutoff
    (:attr:`ScenarioConfig.k_inf_cutoff`).  An eliminated mode's estimates
    and radii stay frozen at its eliminating step.  Every array is
    read-only.

    The recorded steps stop early only on a fault: ``fault`` holds the
    diagnostic, ``fault_step`` the step and ``fault_kind`` which fault
    (:data:`FAULT_ELIMINATED`: every mode eliminated at ``fault_step``,
    which is the last recorded step; :data:`FAULT_NONFINITE`: the output at
    ``fault_step`` is not finite, and the steps before it are recorded, or
    step 0 alone if the first output is already not finite).

    The fused estimate at step k >= 1 is the union, over the ``i`` with
    ``mode_ids[i]`` in ``active_sets[k]``, of the state balls ``(xhat[k, i],
    delta_x[k, i])`` and the input balls ``(dhat[k, i], delta_d[k, i])``;
    it is empty once every mode is eliminated.

    ``snapshots`` is a per-step view of the arrays as :class:`ObserverState`
    objects, built on first access.  An eliminated mode's entry is the same
    object at every step from its elimination on.
    """

    config: ScenarioConfig
    states: np.ndarray = field(repr=False)
    outputs: np.ndarray = field(repr=False)
    inputs: np.ndarray = field(repr=False)
    attack_values: np.ndarray = field(repr=False)
    mode_ids: tuple[int, ...]
    active_sets: tuple[tuple[int, ...], ...] = field(repr=False)
    xhat: np.ndarray = field(repr=False)
    xhat_pred: np.ndarray = field(repr=False)
    xhat_star: np.ndarray = field(repr=False)
    dhat: np.ndarray = field(repr=False)
    delta_x: np.ndarray = field(repr=False)
    delta_d: np.ndarray = field(repr=False)
    residuals: tuple[np.ndarray, ...] = field(repr=False)
    r_norm: np.ndarray = field(repr=False)
    delta_inf: np.ndarray = field(repr=False)
    delta_tri: np.ndarray = field(repr=False)
    delta_hat: np.ndarray = field(repr=False)
    live: np.ndarray = field(repr=False)
    eliminated_at: dict[int, int | None]
    excluded: dict[int, str]
    fault: str | None
    fault_step: int | None
    fault_kind: str | None
    containment_violations: int

    @property
    def final_active(self) -> tuple[int, ...]:
        return self.active_sets[-1]

    @property
    def steps_recorded(self) -> int:
        return len(self.active_sets) - 1

    def _last_step(self, q: int) -> int:
        """The last step at which mode ``q``'s observer ran."""
        k = self.eliminated_at[q]
        return self.steps_recorded if k is None else k

    @functools.cached_property
    def snapshots(self) -> tuple[dict[int, ObserverState], ...]:
        """Per step, each mode's observer state as :func:`observer.step`
        leaves it after that step's (u, y) pair."""
        per_mode = {}
        for i, q in enumerate(self.mode_ids):
            x0 = self.xhat[0, i]
            states = [
                ObserverState(
                    xhat_kk=x0,
                    xhat_pred=x0,
                    xhat_star=x0,
                    dhat_prev=None,
                    delta_x=float(self.delta_x[0, i]),
                    delta_d=None,
                    k=0,
                    u_prev=self.inputs[0],
                    y_prev=self.outputs[0],
                )
            ]
            states += [
                ObserverState(
                    xhat_kk=self.xhat[k, i],
                    xhat_pred=self.xhat_pred[k, i],
                    xhat_star=self.xhat_star[k, i],
                    dhat_prev=self.dhat[k, i],
                    delta_x=float(self.delta_x[k, i]),
                    delta_d=float(self.delta_d[k, i]),
                    k=k,
                    u_prev=self.inputs[k],
                    y_prev=self.outputs[k],
                )
                for k in range(1, self._last_step(q) + 1)
            ]
            per_mode[q] = states
        return tuple(
            {q: states[min(k, len(states) - 1)] for q, states in per_mode.items()}
            for k in range(len(self.active_sets))
        )


def _ball_scale(g: np.ndarray, eta: float, rng: np.random.Generator) -> float:
    """Draw the radius of a uniform point of the 2-norm ball of radius ``eta``
    whose direction is the standard normal draw ``g``, and return the factor
    that takes ``g`` to that point.  For a zero radius or a zero ``g`` the
    radius is drawn all the same, so turning a bound on or off never shifts
    later draws, ``g`` is set to +0.0 and the factor is 0.0.  A ball of
    dimension 0 draws nothing."""
    if not g.size:
        return 0.0
    nrm = math.sqrt(g.dot(g))  # np.linalg.norm's arithmetic on a vector
    r = rng.random()
    if eta == 0.0 or nrm == 0.0:
        g[:] = 0.0
        return 0.0
    return eta * r ** (1.0 / g.size) / nrm


def sample_bounded(dim: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the closed 2-norm ball of radius eta."""
    eta = float(eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    g = rng.standard_normal(int(dim))
    return _ball_scale(g, eta, rng) * g


def _noise(model: SystemModel, N: int, rng: np.random.Generator):
    """``(ws, vs)``: the process noise of steps 0..N-1 and the measurement
    noise of steps 0..N, drawn as ``sample_bounded`` draws them, in the
    stream order v_0, w_0, v_1, w_1, ..., v_N.  Each direction is drawn into
    its row, and the rows are scaled together at the end."""
    ws, vs = np.empty((N, model.n)), np.empty((N + 1, model.l))
    fw, fv = np.empty(N), np.empty(N + 1)
    normal, scale = rng.standard_normal, _ball_scale
    eta_w, eta_v = model.eta_w, model.eta_v
    for k in range(N):
        g = vs[k]
        normal(out=g)
        fv[k] = scale(g, eta_v, rng)
        g = ws[k]
        normal(out=g)
        fw[k] = scale(g, eta_w, rng)
    g = vs[N]
    normal(out=g)
    fv[N] = scale(g, eta_v, rng)
    ws *= fw[:, None]
    vs *= fv[:, None]
    return ws, vs


def _rows_times(M: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``M @ rows[k]`` for every row k, each the same product (one gemv)."""
    return np.matmul(M, rows[:, :, None])[:, :, 0]


def _simulate(cfg: ScenarioConfig):
    model = cfg.model
    N = cfg.horizon
    n = model.n
    mode_star = cfg.mode_by_id(cfg.true_mode)
    if cfg.attack is not None:
        d = cfg.attack.values
    else:
        d = np.zeros((N + 1, mode_star.rho))
    u = cfg.inputs
    init_ss, noise_ss = np.random.SeedSequence(cfg.noise_seed).spawn(2)
    rng_init = np.random.default_rng(init_ss)
    rng_noise = np.random.default_rng(noise_ss)
    xhat0 = cfg.xhat0 if cfg.xhat0 is not None else np.zeros(n)
    x0 = cfg.x0 if cfg.x0 is not None else xhat0 + sample_bounded(n, model.delta_x0, rng_init)
    ws, vs = _noise(model, N, rng_noise)
    d_rows = d[: N + 1, : mode_star.rho]
    # x_{k+1} = ((A x_k + B u_k) + Gq d_k) + w_k and
    # y_k = ((C x_k + D u_k) + Hq d_k) + v_k, in this order of sums; only the
    # A x_k term is stepped.  Rows after the first non-finite state or output
    # stay NaN: the plant has left the floating-point range, and stepping on
    # would only overflow.
    xs = np.full((N + 1, n), np.nan)
    ys = np.full((N + 1, model.l), np.nan)
    xs[0] = x0
    last = N
    with np.errstate(over="ignore", invalid="ignore"):
        Bu = _rows_times(model.B, u[:N])
        Gd = _rows_times(mode_star.Gq, d_rows[:N])
        A, matmul, isfinite = model.A, np.matmul, math.isfinite
        for k in range(N):
            x = xs[k + 1]
            matmul(A, xs[k], out=x)
            x += Bu[k]
            x += Gd[k]
            x += ws[k]
            # x.x is finite unless x is not, or its square overflows
            if not isfinite(x.dot(x)) and not np.isfinite(x).all():
                last = k + 1
                break
        y = ys[: last + 1]
        y[:] = _rows_times(model.C, xs[: last + 1])
        y += _rows_times(model.D, u[: last + 1])
        y += _rows_times(mode_star.Hq, d_rows[: last + 1])
        y += vs[: last + 1]
    finite = np.isfinite(xs[: last + 1]).all(axis=1) & np.isfinite(y).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        xs[bad + 1 :] = ys[bad + 1 :] = np.nan
    return xs, ys, u, d, xhat0


def simulate_plant(cfg: ScenarioConfig):
    """Simulate the plant under the true mode; returns (states, outputs)."""
    xs, ys, *_ = _simulate(cfg)
    return xs, ys


def build_bank(model: SystemModel, modes) -> tuple[dict[int, tuple], dict[int, str]]:
    """Build one observer per usable mode hypothesis.

    Runs strong detectability, decomposition, gain synthesis and error
    dynamics for each mode.  Returns ``(bank, excluded)``: ``bank`` maps a
    mode id to its ``(mode, decomposition, gains, error dynamics)`` tuple,
    ``excluded`` maps the id of every mode left out to the reason.
    """
    bank: dict[int, tuple] = {}
    excluded: dict[int, str] = {}
    for mode in modes:
        if not check_strong_detectability(model.A, mode.Gq, model.C, mode.Hq):
            excluded[mode.id] = "not strongly detectable"
            continue
        try:
            dec = decompose_mode(model, mode)
            gains = synthesize_gains(dec, model)
            dyn = error_dynamics(dec, gains, model)
        except DecompositionError as exc:
            excluded[mode.id] = f"{type(exc).__name__}: {exc}"
            continue
        bank[mode.id] = (mode, dec, gains, dyn)
    return bank, excluded


def _run_mode(cfg: ScenarioConfig, dec, gains, dyn, u, y, out: dict) -> tuple:
    """Finish one hypothesis over the data rows ``u[0..N]``, ``y[0..N]``,
    given its corrected estimates in ``out["xhat"]``, and write its rows
    into ``out``, this mode's ``(N+1)``-row slices of the trace arrays.
    Returns ``(eliminated_at, residuals)``; rows past the eliminating step
    keep its estimates and radii, and NaN residuals and thresholds."""
    model = cfg.model
    steps = y.shape[0] - 1
    out["delta_x"][:], out["delta_d"][:] = radius_sequence(dyn, model, steps)
    *stages, r_rows = stage_rows(dec, gains, model, out["xhat"], u, y)
    for name, rows in zip(("xhat_pred", "xhat_star", "dhat"), stages):
        out[name][1:] = rows
    del stages
    out["xhat_pred"][0] = out["xhat_star"][0] = out["xhat"][0]  # dhat's row 0 stays NaN
    r = np.empty((steps + 1, r_rows.shape[1]))  # the observer's innovation, one row per step
    r[0] = np.nan
    r[1:] = r_rows
    del r_rows
    xstar = out["xhat_star"]
    r_norm = out["r_norm"]
    r_norm[1:] = np.linalg.norm(r[1:], axis=1)
    tracker = ThresholdTracker(
        dyn,
        dec,
        eta_w=model.eta_w,
        eta_v=model.eta_v,
        delta_x0=model.delta_x0,
    )
    thresholds = out["thresholds"]
    elim = None
    cutoff = min(K_INF_CUTOFF_DEFAULT, steps)
    for k in range(1, cutoff + 1):
        dinf, dtri, dhat = tracker.advance()
        thresholds[k] = (dinf, dtri, dhat)
        if eliminate(r_norm[k], dhat):  # a scale can only clear a flag: price it only then
            if eliminate(r_norm[k], dhat, residual_scale(dec, xstar[k], u[k], y[k])):
                elim = k
                break
    # past the cutoff delta_hat is delta_tri: walk a block of steps at a time
    start, size = cutoff + 1, _WALK_BLOCK
    while elim is None and start <= steps:
        stop = min(start + size, steps + 1)
        dtri = tracker.advance_tri(stop - start)
        thresholds[start:stop, 1] = thresholds[start:stop, 2] = dtri
        # eliminate()'s test without a scale, for the whole block at once
        for k in start + np.flatnonzero(r_norm[start:stop] > dtri + 1e-14 * (1.0 + dtri)):
            if eliminate(r_norm[k], dtri[k - start], residual_scale(dec, xstar[k], u[k], y[k])):
                elim = int(k)
                break
        start, size = stop, 2 * size
    if elim is None:
        out["live"][1:] = True
        return None, r
    # the estimates and radii stay frozen from the eliminating step on
    for name in ("xhat", "xhat_pred", "xhat_star", "dhat", "delta_x", "delta_d"):
        out[name][elim + 1 :] = out[name][elim]
    r[elim + 1 :] = r_norm[elim + 1 :] = thresholds[elim + 1 :] = np.nan
    out["live"][1 : elim + 1] = True
    return elim, r


def run_pipeline(cfg: ScenarioConfig) -> RunTrace:
    """Run the full bank: observers, thresholds, elimination, fusion.

    Modes that cannot be decomposed, gain-synthesized, or that fail the
    strong-detectability test are excluded up front with a diagnostic; the
    true mode being excluded is an error.  If every hypothesis gets
    eliminated the run stops with the fault recorded and the trace kept up
    to that step.  If an output is not finite (the plant overflowed), the
    run stops at that step with the fault recorded and the trace kept up to
    the step before it; no observer processes the non-finite data.
    """
    model = cfg.model
    bank, excluded = build_bank(model, cfg.modes)
    if cfg.true_mode in excluded:
        raise SimulationError(
            f"true mode {cfg.true_mode} unusable: {excluded[cfg.true_mode]}"
        )

    xs, ys, u, d_true, xhat0 = _simulate(cfg)
    finite = np.isfinite(ys).all(axis=1)
    bad = None if finite.all() else int(np.argmin(finite))
    last = cfg.horizon if bad is None else max(bad - 1, 0)
    ids = tuple(sorted(bank))
    n, Q, rho = model.n, len(ids), d_true.shape[1]
    shapes = {
        "xhat": (n,),
        "xhat_pred": (n,),
        "xhat_star": (n,),
        "dhat": (rho,),
        "delta_x": (),
        "delta_d": (),
        "r_norm": (),
        "thresholds": (3,),  # delta_inf (NaN if none), delta_tri, delta_hat
    }
    arrays = {name: np.full((last + 1, Q) + shape, np.nan) for name, shape in shapes.items()}
    arrays["live"] = np.zeros((last + 1, Q), dtype=bool)
    data = u[: last + 1], ys[: last + 1]  # no observer sees a non-finite output
    run_bank([bank[q][1:] for q in ids], model, xhat0, *data, arrays["xhat"])
    eliminated_at, residuals = {}, []
    for i, q in enumerate(ids):
        _mode, dec, gains, dyn = bank[q]
        out = {name: arr[:, i] for name, arr in arrays.items()}
        eliminated_at[q], r = _run_mode(cfg, dec, gains, dyn, *data, out)
        residuals.append(r)

    fault = fault_step = fault_kind = None
    steps = last
    if all(k is not None for k in eliminated_at.values()):
        steps = fault_step = max(eliminated_at.values())
        fault_kind = FAULT_ELIMINATED
        fault = (
            f"all mode hypotheses eliminated at step {fault_step}; the true mode "
            "cannot trip its own threshold, so an assumption is violated "
            "(mode family, noise bounds, or data consistency)"
        )
    elif bad is not None:
        fault_step = bad
        fault_kind = FAULT_NONFINITE
        fault = (
            f"the output at step {bad} is not finite (the plant left the "
            f"floating-point range); the run stops there and records steps 0..{last}"
        )
    K = steps + 1
    for arr in (*arrays.values(), *residuals):
        arr.setflags(write=False)
    view = {name: arr[:K] for name, arr in arrays.items()}
    delta_inf, delta_tri, delta_hat = np.moveaxis(view.pop("thresholds"), 2, 0)

    # the true mode's balls must hold the truth while it survives
    t = ids.index(cfg.true_mode)
    hi = steps if eliminated_at[cfg.true_mode] is None else eliminated_at[cfg.true_mode] - 1
    dx = view["delta_x"][1 : hi + 1, t]
    dd = view["delta_d"][1 : hi + 1, t]
    x_err = np.linalg.norm(xs[1 : hi + 1] - view["xhat"][1 : hi + 1, t], axis=1)
    d_err = np.linalg.norm(d_true[:hi] - view["dhat"][1 : hi + 1, t], axis=1)
    violations = int(
        np.count_nonzero(~(x_err <= dx + 1e-9 * (1.0 + dx)))
        + np.count_nonzero(~(d_err <= dd + 1e-9 * (1.0 + dd)))
    )

    # the active set changes only at an eliminating step: one tuple per stretch
    active_sets = []
    for stop in sorted({k for k in eliminated_at.values() if k is not None} | {K}):
        start = len(active_sets)
        active = tuple(q for q in ids if eliminated_at[q] is None or eliminated_at[q] > start)
        active_sets += [active] * (stop - start)
    return RunTrace(
        config=cfg,
        states=xs,
        outputs=ys,
        inputs=u,
        attack_values=d_true,
        mode_ids=ids,
        active_sets=tuple(active_sets),
        residuals=tuple(r[:K] for r in residuals),
        delta_inf=delta_inf,
        delta_tri=delta_tri,
        delta_hat=delta_hat,
        **view,
        eliminated_at=eliminated_at,
        excluded=excluded,
        fault=fault,
        fault_step=fault_step,
        fault_kind=fault_kind,
        containment_violations=violations,
    )


# ------------------------------------------------------------ benchmark kit


def benchmark_model() -> SystemModel:
    """Five-state single-actuator four-sensor benchmark plant."""
    A = np.array(
        [
            [0.5, 2.0, 0.0, 0.0, 0.0],
            [0.0, 0.2, 1.0, 0.0, 1.0],
            [0.0, 0.0, 0.3, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.7, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.1],
        ]
    )
    B = np.zeros((5, 1))
    C = np.eye(5)
    D = np.zeros((5, 1))
    G = np.array([[1.0], [0.1], [0.1], [1.0], [0.0]])
    H = np.vstack([np.eye(4), np.zeros((1, 4))])
    return SystemModel(
        A=A, B=B, C=C, D=D, G=G, H=H, eta_w=0.02, eta_v=1e-4, delta_x0=0.5
    )


def benchmark_modes(model: SystemModel | None = None) -> list[ModeHypothesis]:
    model = model or benchmark_model()
    return enumerate_modes(1, 4, 4, model.G, model.H)


def sinusoid_attack(
    mode: ModeHypothesis,
    steps: int,
    amplitude: float = 5.0,
    bias: float = 2.0,
) -> AttackSignal:
    """Persistent per-channel attack: bias plus a channel-specific sinusoid.

    Channel j carries bias + amplitude*sin((0.28 + 0.06 j) k + 0.9 j), a
    non-decaying waveform with unlimited cumulative energy.
    """
    ks = np.arange(int(steps))[:, None]
    j = np.arange(mode.rho)[None, :]
    values = bias + amplitude * np.sin((0.28 + 0.06 * j) * ks + 0.9 * j)
    return AttackSignal(mode=mode, values=values)


def benchmark_scenario(
    seed: int = 0,
    horizon: int = 200,
    true_mode: int = 1,
    amplitude: float = 5.0,
    bias: float = 2.0,
) -> ScenarioConfig:
    """The default benchmark scenario: persistent sparse attack, mode bank of 5."""
    horizon = check_horizon(horizon)
    model = benchmark_model()
    modes = benchmark_modes(model)
    mode_star = next(m for m in modes if m.id == int(true_mode))
    attack = sinusoid_attack(mode_star, horizon + 1, amplitude, bias)
    return ScenarioConfig(
        model=model,
        modes=tuple(modes),
        true_mode=int(true_mode),
        horizon=horizon,
        attack=attack,
        noise_seed=int(seed),
    )
