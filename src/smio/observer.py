"""Three-step recursive observer for one mode: unknown-input estimation,
time update, measurement update, plus set radii for states and inputs.

At every step the observer (for hypothesis q): inverts the output-visible
attack component of the *previous* measurement, propagates the state one
step, inverts the state-side attack component using the *current*
measurement, and finally applies an innovation correction on the
attack-free residual channel.  Because the update mixes two adjacent time
indices, the observer caches the last (u, y) pair internally — callers
feed one pair per step, and the very first call only registers the time-0
pair without advancing the estimate.

Alongside the centroids, two set radii are propagated so that (when q is
the true mode and the noise respects its bounds) the true state lies in
``||x - xhat_kk|| <= delta_x`` and the previous unknown input in
``||d - dhat_prev|| <= delta_d`` at every step.  The radius recursion is
the norm-triangle bound driven by the closed error map: it contracts iff
``theta = ||Ae||_2 < 1`` (see ConservativeRadiusWarning in the
decomposition module for the expansive-but-stable case).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _times(coeff: float, radius: float) -> float:
    """``coeff * radius``, where an exactly-zero coefficient contributes 0
    even after the radius has overflowed to inf (``0 * inf`` is NaN)."""
    return coeff * radius if coeff else 0.0


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
        return ObserverState(
            xhat_kk=state.xhat_kk,
            xhat_pred=state.xhat_pred,
            xhat_star=state.xhat_star,
            dhat_prev=state.dhat_prev,
            delta_x=state.delta_x,
            delta_d=state.delta_d,
            k=state.k,
            u_prev=u,
            y_prev=y,
        )

    u_prev, y_prev = state.u_prev, state.y_prev

    # unknown-input estimation, output-visible part (previous step)
    z1_prev = dec.T1 @ y_prev
    d1 = gains.M1 @ (z1_prev - dec.C1 @ state.xhat_kk - dec.D1 @ u_prev)
    # time update
    xpred = model.A @ state.xhat_kk + model.B @ u_prev + dec.G1 @ d1
    # unknown-input estimation, state-side part (needs the current output)
    z2 = dec.T2 @ y
    d2 = gains.M2 @ (z2 - dec.C2 @ xpred - dec.D2 @ u)
    xstar = xpred + dec.G2 @ d2
    # measurement update on the attack-free residual channel
    xkk = xstar + gains.Ltilde @ (z2 - dec.C2 @ xstar - dec.D2 @ u)
    dhat = dec.V1 @ d1 + dec.V2 @ d2

    ed = errdyn
    eta_w, eta_v = model.eta_w, model.eta_v
    delta_prev = state.delta_x
    delta_pred = _times(ed.a_pred, delta_prev) + ed.v_pred * eta_v + eta_w
    delta_x = _times(ed.theta, delta_prev) + ed.w_gain * eta_w + ed.v_gain * eta_v
    delta_d = _times(ed.v1m1, _times(ed.c1, delta_prev) + eta_v) + _times(
        ed.v2m2, _times(ed.c2, delta_pred) + eta_v
    )

    return ObserverState(
        xhat_kk=xkk,
        xhat_pred=xpred,
        xhat_star=xstar,
        dhat_prev=dhat,
        delta_x=delta_x,
        delta_d=delta_d,
        k=state.k + 1,
        u_prev=u,
        y_prev=y,
    )


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
