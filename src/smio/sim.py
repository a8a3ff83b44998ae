"""Closed-loop simulation of the attacked plant and the full estimation pipeline.

Simulates the switched plant under one true mode, runs the whole observer
bank step by step, applies the residual-threshold elimination test, fuses
the survivors, and records everything in a replayable trace.  Noise is
drawn uniformly from the 2-norm balls the bounds describe, so runs exercise
the constraint set all the way to its boundary; every random draw is tied
to one seed and a fixed stream order, which makes traces bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    GlobalEstimate,
    ResidualRecord,
    ThresholdTracker,
    fuse,
    residual,
    residual_scale,
)
from .observer import ObserverState, init_observer, set_estimates, step

__all__ = [
    "SimulationError",
    "ScenarioConfig",
    "RunTrace",
    "ENUM_BUDGET_MAX",
    "sample_bounded",
    "simulate_plant",
    "build_bank",
    "run_pipeline",
    "benchmark_model",
    "benchmark_modes",
    "sinusoid_attack",
    "benchmark_scenario",
]


# Largest accepted ``enum_budget``: enumerating c columns and r residual rows
# takes 2**(c-1) * (2c + r) * 8 bytes, ~9 MB at 16, ~180 MB at 20, 3.4 GB at 24.
ENUM_BUDGET_MAX = 20


class SimulationError(ValueError):
    """The scenario configuration is unusable."""


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
    finite, and ``enum_budget`` at most :data:`ENUM_BUDGET_MAX`."""

    model: SystemModel
    modes: tuple[ModeHypothesis, ...]
    true_mode: int
    horizon: int
    attack: AttackSignal | None = None
    known_input: np.ndarray | None = field(default=None, repr=False)
    noise_seed: int = 0
    xhat0: np.ndarray | None = field(default=None, repr=False)
    x0: np.ndarray | None = field(default=None, repr=False)
    k_inf_cutoff: int = 25
    enum_budget: int = 16

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "true_mode", int(self.true_mode))
        if self.horizon < 1:
            raise SimulationError("horizon must be at least 1")
        if self.enum_budget > ENUM_BUDGET_MAX:
            raise SimulationError(
                f"enum_budget must be at most {ENUM_BUDGET_MAX}, got {self.enum_budget}"
            )
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
    """Complete record of one pipeline run.

    Arrays cover the full horizon; the per-step lists stop early only when
    the run aborted on an all-modes-eliminated fault, in which case
    ``fault`` holds the diagnostic and ``fault_step`` the step it fired.
    ``records``/``snapshots`` keep the last computed entry for eliminated
    modes (their observers are frozen, not stepped).
    """

    config: ScenarioConfig
    states: np.ndarray = field(repr=False)
    outputs: np.ndarray = field(repr=False)
    inputs: np.ndarray = field(repr=False)
    attack_values: np.ndarray = field(repr=False)
    active_sets: tuple[tuple[int, ...], ...]
    records: tuple[dict[int, ResidualRecord], ...] = field(repr=False)
    snapshots: tuple[dict[int, ObserverState], ...] = field(repr=False)
    fused: tuple[GlobalEstimate | None, ...] = field(repr=False)
    eliminated_at: dict[int, int | None]
    excluded: dict[int, str]
    fault: str | None
    fault_step: int | None
    containment_violations: int

    @property
    def final_active(self) -> tuple[int, ...]:
        return self.active_sets[-1]

    @property
    def steps_recorded(self) -> int:
        return len(self.active_sets) - 1


def sample_bounded(dim: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the closed 2-norm ball of radius eta."""
    dim = int(dim)
    eta = float(eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if dim == 0:
        return np.zeros(0)
    g = rng.standard_normal(dim)
    nrm = float(np.linalg.norm(g))
    if eta == 0.0 or nrm == 0.0:
        # the direction draw stays in the stream even for a zero radius,
        # so turning a bound on or off never shifts later draws' directions
        rng.uniform()
        return np.zeros(dim)
    return (eta * rng.uniform() ** (1.0 / dim) / nrm) * g


def _simulate(cfg: ScenarioConfig):
    model = cfg.model
    N = cfg.horizon
    n, l = model.n, model.l
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
    ws = np.zeros((N, n))
    vs = np.zeros((N + 1, l))
    for k in range(N + 1):
        vs[k] = sample_bounded(l, model.eta_v, rng_noise)
        if k < N:
            ws[k] = sample_bounded(n, model.eta_w, rng_noise)
    xs = np.zeros((N + 1, n))
    ys = np.zeros((N + 1, l))
    xs[0] = x0
    for k in range(N + 1):
        dk = d[k] if mode_star.rho else np.zeros(0)
        ys[k] = model.C @ xs[k] + model.D @ u[k] + mode_star.Hq @ dk + vs[k]
        if k < N:
            xs[k + 1] = model.A @ xs[k] + model.B @ u[k] + mode_star.Gq @ dk + ws[k]
    return xs, ys, u, d, ws, vs, xhat0


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


def run_pipeline(cfg: ScenarioConfig) -> RunTrace:
    """Run the full bank: observers, thresholds, elimination, fusion.

    Modes that cannot be decomposed, gain-synthesized, or that fail the
    strong-detectability test are excluded up front with a diagnostic; the
    true mode being excluded is an error.  If every hypothesis gets
    eliminated the run stops with the fault recorded and the trace kept up
    to that step.
    """
    model = cfg.model
    bank, excluded = build_bank(model, cfg.modes)
    if cfg.true_mode in excluded:
        raise SimulationError(
            f"true mode {cfg.true_mode} unusable: {excluded[cfg.true_mode]}"
        )

    xs, ys, u, d_true, _ws, _vs, xhat0 = _simulate(cfg)
    N = cfg.horizon
    states = {q: init_observer(xhat0, model.delta_x0) for q in bank}
    trackers = {
        q: ThresholdTracker(
            dyn,
            dec,
            eta_w=model.eta_w,
            eta_v=model.eta_v,
            delta_x0=model.delta_x0,
            k_inf_cutoff=cfg.k_inf_cutoff,
            enum_budget=cfg.enum_budget,
        )
        for q, (_mode, dec, _gains, dyn) in bank.items()
    }
    active: list[int] = sorted(bank)
    active_sets: list[tuple[int, ...]] = []
    records: list[dict[int, ResidualRecord]] = []
    snapshots: list[dict[int, ObserverState]] = []
    fused: list[GlobalEstimate | None] = []
    last_record: dict[int, ResidualRecord] = {}
    eliminated_at: dict[int, int | None] = {q: None for q in bank}
    fault = None
    fault_step = None
    violations = 0

    for k in range(N + 1):
        for q in active:
            _mode, dec, gains, dyn = bank[q]
            st = step(states[q], dec, gains, dyn, u[k], ys[k], model)
            states[q] = st
            if st.k < 1:
                continue
            dinf, dtri, _ = trackers[q].advance()
            r = residual(dec, st.xhat_star, u[k], ys[k])
            rec = ResidualRecord.evaluate(q, st.k, r, dinf, dtri)
            if rec.eliminated:  # a scale can only clear a flag: price it only then
                scale = residual_scale(dec, st.xhat_star, u[k], ys[k])
                rec = ResidualRecord.evaluate(q, st.k, r, dinf, dtri, scale)
            last_record[q] = rec
            if rec.eliminated:
                eliminated_at[q] = k
        active = [q for q in active if eliminated_at[q] is None]
        active_sets.append(tuple(active))
        records.append(dict(last_record))
        snapshots.append(dict(states))
        ests = {q: set_estimates(states[q]) for q in active} if k >= 1 else {}
        if cfg.true_mode in ests:
            xb, db = ests[cfg.true_mode]
            if not xb.contains(xs[k], slack=1e-9 * (1.0 + xb.radius)):
                violations += 1
            d_prev = d_true[k - 1] if d_true.shape[1] else np.zeros(0)
            if not db.contains(d_prev, slack=1e-9 * (1.0 + db.radius)):
                violations += 1
        if not active:
            fault = (
                f"all mode hypotheses eliminated at step {k}; the true mode "
                "cannot trip its own threshold, so an assumption is violated "
                "(mode family, noise bounds, or data consistency)"
            )
            fault_step = k
            fused.append(None)
            break
        fused.append(fuse(active, ests) if ests else None)

    return RunTrace(
        config=cfg,
        states=xs,
        outputs=ys,
        inputs=u,
        attack_values=d_true,
        active_sets=tuple(active_sets),
        records=tuple(records),
        snapshots=tuple(snapshots),
        fused=tuple(fused),
        eliminated_at=eliminated_at,
        excluded=excluded,
        fault=fault,
        fault_step=fault_step,
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
    model = benchmark_model()
    modes = benchmark_modes(model)
    mode_star = next(m for m in modes if m.id == int(true_mode))
    attack = sinusoid_attack(mode_star, int(horizon) + 1, amplitude, bias)
    return ScenarioConfig(
        model=model,
        modes=tuple(modes),
        true_mode=int(true_mode),
        horizon=int(horizon),
        attack=attack,
        noise_seed=int(seed),
    )
