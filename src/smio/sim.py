"""Closed-loop simulation of the attacked plant and the full estimation pipeline.

Simulates the switched plant under one true mode, then runs the bank of
observers (:func:`~smio.decomposition.build_bank`, re-exported here) over
the whole horizon at once: the plant trajectory exists
before the bank runs, each observer is a fixed affine recursion, its radii
and thresholds do not depend on the data, and eliminating one hypothesis
never changes another's estimates.  The plant's known-input, attack and
output terms are one stacked product each over the horizon, and each
state step is one product ``A x_k`` and one add.  Per mode, the data
drive of every step is one matrix product per observer stage; the state
recursion then steps every mode at once, one stacked product of the
modes' n-by-n error maps per step; and the observer's stages, whose
innovation is the residual, take one product each.  Each mode's threshold
tracker then runs the residual test over the residual norms
(:meth:`~smio.modeguard.ThresholdTracker.walk`) and stops at the step that
eliminates the mode.  The run records the bank and what it publishes in
a replayable trace of arrays.  Noise is drawn uniformly from the 2-norm
balls the bounds describe, so runs exercise the constraint set all the
way to its boundary; every random draw is tied to one seed and a fixed
stream order, which makes traces bit-reproducible.  The noise is drawn in
bulk: all directions of one kind in one call, then all radii in one call
(:func:`_noise`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .decomposition import build_bank
from .model import MODES_MAX, AttackSignal, ModeHypothesis, SystemModel, enumerate_modes
from .modeguard import (
    ENUM_BUDGET_DEFAULT,
    K_INF_CUTOFF_DEFAULT,
    ThresholdTracker,
    _row_norms,
    residual_scale,
)
from .observer import ObserverState, radius_sequence, run_bank, stage_rows

__all__ = [
    "SimulationError",
    "ScenarioConfig",
    "RunTrace",
    "HORIZON_MAX",
    "MODES_MAX",
    "TRACE_BYTES_MAX",
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
# built-in five-hypothesis plant a trace holds about 0.7 KB per step (0.9 KB
# at the peak of ``run_pipeline``), and writing the CSV, a block of steps at a
# time, adds about 8 MB whatever the horizon, so ``smio benchmark`` at the cap
# peaks at about 0.13 GB resident (and takes about 4 s on a 2-core host with
# one BLAS thread).
HORIZON_MAX = 100_000

# MODES_MAX, the largest accepted hypothesis bank, is model's: enumerate_modes
# checks it before it builds a hypothesis.  A trace holds the bytes of
# _trace_layout's arrays per hypothesis and step, 8 (n + rho + 6) + 1 (121
# on the built-in plant), so a full bank of such hypotheses holds about
# 0.12 GB per thousand steps.  Hypotheses of one shape are built as one
# stack, at about 0.15 ms each (220 in about 31 ms, the built-in five in about
# 2.5 ms: best of 20 and of 50 calls on a 2-core host with one BLAS thread).
# Those two caps bound the bank and the horizon each;
# TRACE_BYTES_MAX bounds their product, by the same table: a config
# whose trace arrays would exceed it is refused before any is allocated.  It
# admits ``smio benchmark`` at HORIZON_MAX (about 60 MB) and a full bank of
# such hypotheses at a horizon of 1000 (about 124 MB).
TRACE_BYTES_MAX = 2**30


def _trace_layout(n: int, rho: int) -> dict[str, tuple[tuple[int, ...], object]]:
    """The trace arrays :func:`run_pipeline` allocates, one row per step and
    one column per hypothesis: each one's entry shape and fill value, whose
    type is the array's dtype.  :class:`ScenarioConfig` charges their bytes
    against :data:`TRACE_BYTES_MAX`."""
    return {
        "xhat": ((n,), np.nan),
        "dhat": ((rho,), np.nan),
        "delta_x": ((), np.nan),
        "delta_d": ((), np.nan),
        "r_norm": ((), np.nan),
        "thresholds": ((3,), np.nan),  # delta_inf (NaN if none), delta_tri, delta_hat
        "live": ((), False),
    }


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
    try:
        arr = np.array(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SimulationError(f"{name} must be a rectangular array of numbers ({exc})") from exc
    if shape is not None and arr.shape != shape:
        raise SimulationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SimulationError(f"{name} must hold finite numbers only (no NaN or Infinity)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything one estimation run depends on.  Every array must be
    finite, ``horizon`` at most :data:`HORIZON_MAX`, the trace arrays of
    every hypothesis over the horizon at most :data:`TRACE_BYTES_MAX` bytes,
    and ``noise_seed`` nonnegative."""

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
        layout = _trace_layout(n, self.mode_by_id(self.true_mode).rho).values()
        entry = sum(math.prod(shape) * np.array(fill).itemsize for shape, fill in layout)
        size = len(self.modes) * (self.horizon + 1) * entry
        if size > TRACE_BYTES_MAX:
            raise SimulationError(
                f"{len(self.modes)} hypotheses over a horizon of {self.horizon} steps need "
                f"{size / 2**30:.1f} GiB of trace arrays, more than the {TRACE_BYTES_MAX} "
                "bytes a run may hold; lower the horizon or the number of hypotheses"
            )
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
    axis) and the modes of ``mode_ids`` (second axis): ``xhat`` is ``(K, Q,
    n)``, ``dhat`` is ``(K, Q, rho)``, and ``delta_x``, ``delta_d``,
    ``r_norm``, ``delta_inf``, ``delta_tri`` and ``delta_hat`` are ``(K,
    Q)``.  ``bank`` is the observer bank :func:`build_bank` built, by mode
    id, and ``excluded`` the modes it left out.  ``live`` marks the
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
    objects, built on first access; their ``xhat_star`` is derived from the
    bank and ``xhat`` with :func:`~smio.observer.stage_rows`.  An eliminated
    mode's entry is the same object at every step from its elimination on.
    """

    config: ScenarioConfig
    states: np.ndarray = field(repr=False)
    outputs: np.ndarray = field(repr=False)
    inputs: np.ndarray = field(repr=False)
    attack_values: np.ndarray = field(repr=False)
    mode_ids: tuple[int, ...]
    active_sets: tuple[tuple[int, ...], ...] = field(repr=False)
    xhat: np.ndarray = field(repr=False)
    dhat: np.ndarray = field(repr=False)
    delta_x: np.ndarray = field(repr=False)
    delta_d: np.ndarray = field(repr=False)
    r_norm: np.ndarray = field(repr=False)
    delta_inf: np.ndarray = field(repr=False)
    delta_tri: np.ndarray = field(repr=False)
    delta_hat: np.ndarray = field(repr=False)
    live: np.ndarray = field(repr=False)
    eliminated_at: dict[int, int | None]
    bank: dict[int, tuple] = field(repr=False)
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
        K, model = len(self.active_sets), self.config.model
        per_mode = {}
        for i, q in enumerate(self.mode_ids):
            _mode, dec, gains, _dyn = self.bank[q]
            # over all K rows: a one-row product could round differently
            xstar = stage_rows(dec, gains, model, self.xhat[:, i], self.inputs[:K], self.outputs[:K])[0]
            xstar.setflags(write=False)
            # step 0 is the initial state: no input estimate yet
            per_mode[q] = [
                ObserverState(
                    xhat_kk=self.xhat[k, i],
                    xhat_star=xstar[k - 1] if k else self.xhat[0, i],
                    dhat_prev=self.dhat[k, i] if k else None,
                    delta_x=float(self.delta_x[k, i]),
                    delta_d=float(self.delta_d[k, i]) if k else None,
                    k=k,
                    u_prev=self.inputs[k],
                    y_prev=self.outputs[k],
                )
                for k in range(self._last_step(q) + 1)
            ]
        return tuple(
            {q: states[min(k, len(states) - 1)] for q, states in per_mode.items()}
            for k in range(K)
        )


def _to_ball(g: np.ndarray, eta: float, r: np.ndarray) -> np.ndarray:
    """Take each row of the standard normal draws ``g``, in place, to a
    uniform point of the closed 2-norm ball of radius ``eta``: the row
    times ``eta * r**(1/dim) / ||row||``, where ``r`` holds one uniform draw
    per row.  A zero bound or a zero row gives a +0.0 row (a plain product
    would leave -0.0 on its negative entries).  Each norm is one dot of the
    row with itself, as ``np.linalg.norm`` takes it, and ``float_power`` is
    libm's ``pow`` as Python's ``**`` is (``np.power`` may take a SIMD
    ``pow`` that differs in the last bit)."""
    if eta == 0.0:
        g[:] = 0.0
        return g
    nrm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
    if not nrm.all():
        zero = nrm == 0.0
        g[zero] = 0.0
        nrm[zero] = np.inf  # a factor of 0.0
    g *= (eta * np.float_power(r, 1.0 / g.shape[1]) / nrm)[:, None]
    return g


def sample_bounded(dim: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the closed 2-norm ball of radius eta: one
    ``standard_normal(dim)``, then one ``random()`` for the radius, drawn
    for a zero radius or a zero direction too (either gives +0.0), taken to
    the ball by :func:`_to_ball`; a ball of dimension 0 draws nothing."""
    eta = float(eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    g = rng.standard_normal(int(dim))
    if g.size:
        _to_ball(g[None], eta, rng.random(1))
    return g


def _noise(model: SystemModel, N: int, rng: np.random.Generator):
    """``(ws, vs)``: the process noise of steps 0..N-1 and the measurement
    noise of steps 0..N, each row uniform on its ball (:func:`_to_ball`),
    drawn from ``rng`` in this order: ``standard_normal((N+1, l))`` for every
    measurement direction, ``standard_normal((N, n))`` for every process
    direction, then one ``random(...)`` for the radii, the v rows' first and
    then the w rows'.  A zero bound draws its directions and radii all the
    same, so turning it on or off never shifts the other noise; a ball of
    dimension 0 draws nothing."""
    vs = rng.standard_normal((N + 1, model.l))
    ws = rng.standard_normal((N, model.n))
    balls = [(g, eta) for g, eta in ((vs, model.eta_v), (ws, model.eta_w)) if g.shape[1]]
    r = rng.random(sum(len(g) for g, _eta in balls))
    for g, eta in balls:
        _to_ball(g, eta, r[: len(g)])
        r = r[len(g) :]
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
    # x_{k+1} = A x_k + f_k with the forcing f_k = (B u_k + Gq d_k) + w_k, and
    # y_k = ((C x_k + D u_k) + Hq d_k) + v_k, in this order of sums; f and y
    # are formed over the whole horizon, and each state step is one product
    # and one add.  Rows after the first non-finite state or output are set
    # to NaN: the plant has left the floating-point range there.
    xs = np.empty((N + 1, n))
    xs[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        f = _rows_times(model.B, u[:N])
        f += _rows_times(mode_star.Gq, d_rows[:N])
        f += ws
        A, matmul, add = model.A, np.matmul, np.add
        for x_prev, x, f_k in zip(xs[:-1], xs[1:], f):
            add(matmul(A, x_prev), f_k, out=x)
        ys = _rows_times(model.C, xs)
        ys += _rows_times(model.D, u[: N + 1])
        ys += _rows_times(mode_star.Hq, d_rows)
        ys += vs
        finite = np.isfinite(xs).all(axis=1) & np.isfinite(ys).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            xs[bad + 1 :] = ys[bad + 1 :] = np.nan
    return xs, ys, u, d, xhat0


def simulate_plant(cfg: ScenarioConfig):
    """Simulate the plant under the true mode; returns (states, outputs)."""
    xs, ys, *_ = _simulate(cfg)
    return xs, ys


def _run_mode(cfg: ScenarioConfig, dec, gains, dyn, u, y, out: dict) -> int | None:
    """Finish one hypothesis over the data rows ``u[0..N]``, ``y[0..N]``,
    given its corrected estimates in ``out["xhat"]``, and write its rows
    into ``out``, this mode's ``(N+1)``-row slices of the trace arrays.
    Returns the eliminating step (None if none); rows past it keep its
    estimates and radii, and NaN residual norms and thresholds."""
    model = cfg.model
    steps = y.shape[0] - 1
    out["delta_x"][:], out["delta_d"][:] = radius_sequence(dyn, model, steps)
    # rows k-1 of xstar and r belong to step k; dhat's row 0 stays NaN
    xstar, out["dhat"][1:], r = stage_rows(dec, gains, model, out["xhat"], u, y)
    r_norm = out["r_norm"]
    r_norm[1:] = _row_norms(r)
    del r
    tracker = ThresholdTracker(
        dyn, dec, eta_w=model.eta_w, eta_v=model.eta_v, delta_x0=model.delta_x0
    )
    elim = tracker.walk(r_norm, lambda k: residual_scale(dec, xstar[k - 1], u[k], y[k]), out["thresholds"])
    if elim is None:
        out["live"][1:] = True
        return None
    # the estimates and radii stay frozen from the eliminating step on
    for name in ("xhat", "dhat", "delta_x", "delta_d"):
        out[name][elim + 1 :] = out[name][elim]
    r_norm[elim + 1 :] = np.nan
    out["live"][1 : elim + 1] = True
    return elim


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
    arrays = {
        name: np.full((last + 1, len(ids)) + shape, fill)
        for name, (shape, fill) in _trace_layout(model.n, d_true.shape[1]).items()
    }
    data = u[: last + 1], ys[: last + 1]  # no observer sees a non-finite output
    run_bank([bank[q][1:] for q in ids], model, xhat0, *data, arrays["xhat"])
    eliminated_at = {}
    for i, q in enumerate(ids):
        _mode, dec, gains, dyn = bank[q]
        out = {name: arr[:, i] for name, arr in arrays.items()}
        eliminated_at[q] = _run_mode(cfg, dec, gains, dyn, *data, out)

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
    for arr in arrays.values():
        arr.setflags(write=False)
    view = {name: arr[:K] for name, arr in arrays.items()}
    delta_inf, delta_tri, delta_hat = np.moveaxis(view.pop("thresholds"), 2, 0)

    # the true mode's balls must hold the truth while it survives
    t = ids.index(cfg.true_mode)
    hi = steps if eliminated_at[cfg.true_mode] is None else eliminated_at[cfg.true_mode] - 1
    dx = view["delta_x"][1 : hi + 1, t]
    dd = view["delta_d"][1 : hi + 1, t]
    x_err = _row_norms(xs[1 : hi + 1] - view["xhat"][1 : hi + 1, t])
    d_err = _row_norms(d_true[:hi] - view["dhat"][1 : hi + 1, t])
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
        delta_inf=delta_inf,
        delta_tri=delta_tri,
        delta_hat=delta_hat,
        **view,
        eliminated_at=eliminated_at,
        bank=bank,
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
) -> ScenarioConfig:
    """The default benchmark scenario: persistent sparse attack, mode bank of 5."""
    horizon, true_mode = check_horizon(horizon), int(true_mode)
    model = benchmark_model()
    modes = {m.id: m for m in benchmark_modes(model)}
    if true_mode not in modes:
        raise SimulationError(f"true mode {true_mode} is not in the hypothesis set {sorted(modes)}")
    attack = sinusoid_attack(modes[true_mode], horizon + 1)
    return ScenarioConfig(
        model=model,
        modes=tuple(modes.values()),
        true_mode=true_mode,
        horizon=horizon,
        attack=attack,
        noise_seed=int(seed),
    )
