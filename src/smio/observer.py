"""Three-step recursive observer for one mode: unknown-input estimation,
time update, measurement update, plus set radii for states and inputs.

At every step the observer (for hypothesis q): inverts the output-visible
attack component of the *previous* measurement, propagates the state one
step, inverts the state-side attack component using the *current*
measurement, and finally applies an innovation correction on the
attack-free residual channel.  All four stages are linear, so the
corrected estimate obeys ``xhat_k = Ae xhat_{k-1} + s_k``, with ``Ae`` the
closed error map and ``s_k`` the four stages run on the data alone (a zero
previous estimate).  The one-step API (:func:`step`) and the whole-horizon
run of a bank of observers (:func:`run_bank`, then :func:`stage_rows` per
observer) both step the corrected estimate this way and take every stage
in the same order and grouping (:func:`_stages`), so the observer is
defined in one place: a cancellation in the data (an attack the
decomposition absorbs) happens inside a stage, as the paper's recursion
does it, and leaves rounding relative to that stage's terms.  Over a
horizon, each stage is one matrix product per observer, and the bank's
recursion is one stacked product of the observers' error maps per step.
Because the update mixes two adjacent time indices, :func:`step` caches
the last (u, y) pair internally — callers feed one pair per step, and the
very first call only registers the time-0 pair without advancing the
estimate.

Alongside the centroids, two set radii are propagated so that (when q is
the true mode and the noise respects its bounds) the true state lies in
``||x - xhat_kk|| <= delta_x`` and the previous unknown input in
``||d - dhat_prev|| <= delta_d`` at every step.  The radius recursion is
the norm-triangle bound driven by the closed error map: it contracts iff
``theta = ||Ae||_2 < 1`` (see ConservativeRadiusWarning in the
decomposition module for the expansive-but-stable case).  The radii never
depend on the data, so :func:`radius_sequence` runs them for a whole
horizon: ``delta_x`` with the same scalar recursion :func:`step` uses, up
to the first step that repeats its predecessor, and ``delta_d`` from
:func:`_radii` applied to the whole ``delta_x`` array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .decomposition import ErrorDynamics, ModeDecomposition, ObserverGains
from .model import SystemModel

__all__ = [
    "ObserverState",
    "SetEstimate",
    "ObserverError",
    "NotReadyError",
    "init_observer",
    "step",
    "run_bank",
    "stage_rows",
    "radius_sequence",
    "set_estimates",
]


class ObserverError(ValueError):
    """Invalid observer input (bad dimensions or arguments)."""


class NotReadyError(ObserverError):
    """An estimate was requested before the observer has processed enough data."""


@dataclass(frozen=True, eq=False)
class SetEstimate:
    """A 2-norm ball: every candidate value lies within ``radius`` of ``center``."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        c = np.array(self.center, dtype=float).reshape(-1)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise ObserverError(f"ball radius must be nonnegative; got {self.radius}")

    def contains(self, point, slack: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float).reshape(-1)
        return float(np.linalg.norm(p - self.center)) <= self.radius + slack


@dataclass(frozen=True, eq=False)
class ObserverState:
    """Immutable snapshot of one mode observer after ``k`` processed steps.

    ``xhat_kk`` is the current corrected estimate, ``xhat_pred`` the one-step
    prediction and ``xhat_star`` the pre-correction update that produced it;
    ``dhat_prev`` estimates the unknown input at step ``k-1`` (None until the
    first full step).  ``u_prev``/``y_prev`` cache the last fed input/output
    pair; they are implementation state, not estimates.
    """

    xhat_kk: np.ndarray = field(repr=False)
    xhat_pred: np.ndarray = field(repr=False)
    xhat_star: np.ndarray = field(repr=False)
    dhat_prev: np.ndarray | None = field(repr=False)
    delta_x: float
    delta_d: float | None
    k: int
    u_prev: np.ndarray | None = field(default=None, repr=False)
    y_prev: np.ndarray | None = field(default=None, repr=False)


def init_observer(xhat0, delta_x0: float) -> ObserverState:
    """Fresh observer at k = 0 with initial guess ``xhat0`` and radius ``delta_x0``."""
    delta_x0 = float(delta_x0)
    if not np.isfinite(delta_x0) or delta_x0 < 0:
        raise ObserverError(f"initial radius must be finite and nonnegative; got {delta_x0}")
    x0 = np.array(xhat0, dtype=float).reshape(-1)
    x0.setflags(write=False)
    return ObserverState(
        xhat_kk=x0,
        xhat_pred=x0,
        xhat_star=x0,
        dhat_prev=None,
        delta_x=delta_x0,
        delta_d=None,
        k=0,
    )


def _stages(dec, gains, model, x, u_prev, y_prev, u, y):
    """``(xhat_pred, xhat_star, dhat_prev, xhat_kk, r)`` from the previous
    estimate ``x``, stage by stage; ``r = T2 y - C2 xhat_star - D2 u`` is
    the innovation, which is also the mode's residual.  Every argument is
    one vector, or one row per step for a whole horizon."""
    d1 = (y_prev @ dec.T1.T - x @ dec.C1.T - u_prev @ dec.D1.T) @ gains.M1.T
    xpred = x @ model.A.T + u_prev @ model.B.T + d1 @ dec.G1.T
    z2 = y @ dec.T2.T
    d2 = (z2 - xpred @ dec.C2.T - u @ dec.D2.T) @ gains.M2.T
    xstar = xpred + d2 @ dec.G2.T
    r = z2 - xstar @ dec.C2.T - u @ dec.D2.T
    return xpred, xstar, d1 @ dec.V1.T + d2 @ dec.V2.T, xstar + r @ gains.Ltilde.T, r


def _times(coeff: float, radius: float) -> float:
    """``coeff * radius``, where an exactly-zero coefficient contributes 0
    even after the radius has overflowed to inf (``0 * inf`` is NaN)."""
    return coeff * radius if coeff else 0.0


def _radii(ed: ErrorDynamics, eta_w: float, eta_v: float, delta_prev):
    """One step of the radius recursion: ``(delta_x, delta_d)`` from the
    previous state radius, or from an array of them entry by entry."""
    delta_pred = _times(ed.a_pred, delta_prev) + ed.v_pred * eta_v + eta_w
    delta_x = _times(ed.theta, delta_prev) + ed.w_gain * eta_w + ed.v_gain * eta_v
    delta_d = _times(ed.v1m1, _times(ed.c1, delta_prev) + eta_v) + _times(
        ed.v2m2, _times(ed.c2, delta_pred) + eta_v
    )
    return delta_x, delta_d


# bench/layers.py hooks this; it can go only once the benchmark is mended (ROADMAP item 1).
def step(
    state: ObserverState,
    dec: ModeDecomposition,
    gains: ObserverGains,
    errdyn: ErrorDynamics,
    u_k,
    y_k,
    model: SystemModel,
) -> ObserverState:
    """Feed the (u, y) pair of the next time instant and advance the observer.

    The first call only caches the time-0 pair (estimates and ``k`` stay
    put — the initial guess is not measurement-corrected).  Every later
    call performs the full update: the cached pair supplies the ``k-1``
    quantities, the given pair the ``k`` quantities, ``k`` advances by one,
    and the unknown input at ``k-1`` is finalized.
    """
    u = np.asarray(u_k, dtype=float).reshape(-1)
    y = np.asarray(y_k, dtype=float).reshape(-1)
    if u.shape != (model.m,):
        raise ObserverError(f"u must have length {model.m}; got {u.shape}")
    if y.shape != (model.l,):
        raise ObserverError(f"y must have length {model.l}; got {y.shape}")

    if state.u_prev is None:
        return replace(state, u_prev=u, y_prev=y)

    x, data = state.xhat_kk, (state.u_prev, state.y_prev, u, y)
    xpred, xstar, dhat, _, _ = _stages(dec, gains, model, x, *data)
    drive = _stages(dec, gains, model, np.zeros_like(x), *data)[3]
    delta_x, delta_d = _radii(errdyn, model.eta_w, model.eta_v, state.delta_x)
    return ObserverState(
        xhat_kk=errdyn.Ae @ x + drive,
        xhat_pred=xpred,
        xhat_star=xstar,
        dhat_prev=dhat,
        delta_x=delta_x,
        delta_d=delta_d,
        k=state.k + 1,
        u_prev=u,
        y_prev=y,
    )


def run_bank(members, model: SystemModel, xhat0, u: np.ndarray, y: np.ndarray, xhat: np.ndarray) -> None:
    """Step the corrected estimates of a bank of observers over the data
    rows ``u[0..N]``, ``y[0..N]``, with the recursion :func:`step` applies.

    ``members`` holds each observer's ``(dec, gains, errdyn)``, and
    ``xhat[:, i]`` of the ``(N+1, Q, n)`` array ``xhat`` receives member i's
    estimates, starting from ``xhat0``.  Each member's data drive ``s_k``
    takes one matrix product per stage for the whole horizon, written into
    its rows of ``xhat``; then ``xhat_k = Ae xhat_{k-1} + s_k`` steps every
    member at once, one stacked product per step.
    """
    data = (u[:-1], y[:-1], u[1:], y[1:])  # row k-1 holds the data of step k
    zero = np.zeros((y.shape[0] - 1, model.n))
    for i, (dec, gains, _) in enumerate(members):
        xhat[1:, i] = _stages(dec, gains, model, zero, *data)[3]
    del zero
    xhat[0] = np.asarray(xhat0, dtype=float).reshape(-1)
    Ae = np.stack([errdyn.Ae for _, _, errdyn in members])
    prev = xhat[:, :, :, None]  # prev[k] is the (Q, n, 1) stack of xhat[k]
    prod = np.empty(Ae.shape[:2] + (1,))
    matmul, add = np.matmul, np.add
    for k in range(1, xhat.shape[0]):
        matmul(Ae, prev[k - 1], out=prod)
        row = xhat[k]
        add(prod[:, :, 0], row, out=row)


def stage_rows(dec: ModeDecomposition, gains: ObserverGains, model: SystemModel, xhat, u, y):
    """``(xhat_pred, xhat_star, dhat_prev, residual)`` at steps 1..N of one
    observer whose corrected estimates at steps 0..N are ``xhat``, each
    stage one matrix product for the whole horizon; the residual is ``T2
    y_k - C2 xhat_star - D2 u_k``."""
    xpred, xstar, dhat, _, r = _stages(dec, gains, model, xhat[:-1], u[:-1], y[:-1], u[1:], y[1:])
    return xpred, xstar, dhat, r


def radius_sequence(
    errdyn: ErrorDynamics, model: SystemModel, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(delta_x, delta_d)`` at steps 0..steps from the recursion
    :func:`step` applies; ``delta_d[0]`` is NaN (no input estimate yet).

    Only ``delta_x`` is stepped, one scalar step at a time; ``delta_d[k]``
    is a function of ``delta_x[k-1]`` alone, so :func:`_radii` then forms
    it for all steps at once, applied to the whole array.  Once a step
    returns the ``delta_x`` it was given (a fixed point, or ``inf`` after an
    overflow), every later step returns what it returned, and the rest is
    filled with it."""
    ed, eta_w, eta_v = errdyn, model.eta_w, model.eta_v
    delta_x = np.empty(steps + 1)
    dx = delta_x[0] = float(model.delta_x0)
    theta, w_term, v_term = ed.theta, ed.w_gain * eta_w, ed.v_gain * eta_v
    for k in range(1, steps + 1):
        nx = (theta * dx if theta else 0.0) + w_term + v_term
        delta_x[k] = nx
        if nx == dx:  # never for NaN; +0.0 and -0.0 step alike (the coefficients are norms)
            delta_x[k + 1 :] = nx
            break
        dx = nx
    delta_d = np.empty(steps + 1)
    delta_d[0] = np.nan
    with np.errstate(over="ignore"):  # an overflow gives inf, as the scalar recursion does
        delta_d[1:] = _radii(ed, eta_w, eta_v, delta_x[:-1])[1]
    return delta_x, delta_d


# bench/layers.py hooks this; it can go only once the benchmark is mended (ROADMAP item 1).
def set_estimates(state: ObserverState) -> tuple[SetEstimate, SetEstimate]:
    """The state ball (xhat_kk, delta_x) and the input ball (dhat_prev, delta_d).

    The input estimate only exists after the first full step; before that a
    :class:`NotReadyError` is raised.
    """
    if state.dhat_prev is None or state.delta_d is None:
        raise NotReadyError(
            "unknown-input estimate requested before the observer processed a full step"
        )
    return (
        SetEstimate(center=state.xhat_kk, radius=state.delta_x),
        SetEstimate(center=state.dhat_prev, radius=state.delta_d),
    )
