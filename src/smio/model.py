"""Plant description, attack-hypothesis enumeration, and structural checks.

The plant is a discrete-time linear system

    x_{k+1} = A x_k + B u_k + Gq d_k + w_k
    y_k     = C x_k + D u_k + Hq d_k + v_k

whose actuator and sensor channels are partially vulnerable: an adversary
picks ``rho`` of the ``t_a + t_s`` vulnerable channels and injects an
arbitrary (unbounded) signal ``d_k`` there, while ``w_k`` and ``v_k`` are
norm-bounded disturbances.  Which channels are hit is unknown; every
size-``rho`` choice is one *mode hypothesis* with its own selection of
columns ``Gq = G @ IG`` and ``Hq = H @ IH``.  The estimator downstream runs
one observer per hypothesis and prunes hypotheses whose residuals become
impossible, so this module also provides the structural test (invariant
zeros of the plant/attack quadruple) that decides whether a hypothesis
admits a stable unknown-input observer in the first place.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemModel",
    "ModeHypothesis",
    "AttackSignal",
    "ModelError",
    "SparsityError",
    "DegenerateModeWarning",
    "enumerate_modes",
    "invariant_zeros",
    "check_strong_detectability",
    "validate",
]


class ModelError(ValueError):
    """Malformed plant, mode, or attack data."""


class SparsityError(ModelError):
    """Requested attack sparsity is impossible for the given channel counts."""


class DegenerateModeWarning(UserWarning):
    """A structural check degraded to a conservative answer; details in the message."""


def _frozen(x) -> np.ndarray:
    arr = np.array(x, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Time-invariant plant data with vulnerable channel directions.

    ``G`` (n x t_a) collects the state directions through which the
    vulnerable actuators act and ``H`` (l x t_s) the output directions of
    the vulnerable sensors; a mode hypothesis selects ``rho`` columns out
    of the stacked channel set.  ``eta_w`` / ``eta_v`` bound the 2-norm of
    the process / measurement noise at every step, and ``delta_x0`` bounds
    the initial state-estimate error.

    Instances are immutable (arrays are stored read-only) and safe to share
    across worker threads.  Construction is permissive; use :func:`validate`
    to obtain a report of dimension or sign violations.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    G: np.ndarray
    H: np.ndarray
    eta_w: float = 0.0
    eta_v: float = 0.0
    delta_x0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("A", "B", "C", "D", "G", "H"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        for name in ("eta_w", "eta_v", "delta_x0"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1] if self.B.ndim == 2 else 0

    @property
    def l(self) -> int:
        return self.C.shape[0]

    @property
    def t_a(self) -> int:
        return self.G.shape[1] if self.G.ndim == 2 else 0

    @property
    def t_s(self) -> int:
        return self.H.shape[1] if self.H.ndim == 2 else 0


@dataclass(frozen=True, eq=False)
class ModeHypothesis:
    """One hypothesis about which channels carry the attack.

    ``actuator_set`` / ``sensor_set`` are 1-based, ascending channel
    indices.  The attack vector convention is: attacked actuators first
    (ascending), then attacked sensors (ascending) — ``IG`` (t_a x rho) and
    ``IH`` (t_s x rho) are the 0/1 selections realizing that ordering, so
    ``Gq = G @ IG`` and ``Hq = H @ IH`` hold exactly.
    """

    id: int
    actuator_set: tuple[int, ...]
    sensor_set: tuple[int, ...]
    IG: np.ndarray = field(repr=False)
    IH: np.ndarray = field(repr=False)
    Gq: np.ndarray = field(repr=False)
    Hq: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "actuator_set", tuple(int(i) for i in self.actuator_set))
        object.__setattr__(self, "sensor_set", tuple(int(i) for i in self.sensor_set))
        for name in ("IG", "IH", "Gq", "Hq"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def rho(self) -> int:
        return self.IG.shape[1]

    def __str__(self) -> str:
        acts = ",".join(map(str, self.actuator_set)) or "-"
        sens = ",".join(map(str, self.sensor_set)) or "-"
        return f"mode {self.id} (actuators {{{acts}}}, sensors {{{sens}}})"


@dataclass(frozen=True, eq=False)
class AttackSignal:
    """Injected attack trajectory for a true mode.

    ``values[k]`` is the length-``rho`` attack vector at step ``k``, ordered
    like the mode's attack vector (attacked actuators first, then sensors).
    The row count must cover the simulation horizon; the simulator checks
    that when it consumes the signal.
    """

    mode: ModeHypothesis
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim == 1 and self.mode.rho == 1:
            vals = vals.reshape(len(vals), 1)
        if vals.ndim != 2 or vals.shape[1] != self.mode.rho:
            raise ModelError(
                f"attack values must have shape (steps, {self.mode.rho}); got {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, mode: ModeHypothesis, steps: int) -> "AttackSignal":
        return cls(mode=mode, values=np.zeros((steps, mode.rho)))


def enumerate_modes(t_a: int, t_s: int, rho: int, G, H) -> list[ModeHypothesis]:
    """All size-``rho`` attack hypotheses over ``t_a + t_s`` vulnerable channels.

    Modes are ordered lexicographically on the attacked channel indices with
    actuator channels before sensor channels, and ids are assigned 1-based in
    that order, so numbering is reproducible across runs.
    """
    t_a, t_s, rho = int(t_a), int(t_s), int(rho)
    if not 0 <= rho <= t_a + t_s:
        raise SparsityError(
            f"sparsity rho={rho} must lie in [0, {t_a + t_s}] for t_a={t_a}, t_s={t_s}"
        )
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    if G.ndim != 2 or G.shape[1] != t_a:
        raise ModelError(f"G must have {t_a} columns; got shape {G.shape}")
    if H.ndim != 2 or H.shape[1] != t_s:
        raise ModelError(f"H must have {t_s} columns; got shape {H.shape}")

    modes = []
    for mid, channels in enumerate(itertools.combinations(range(t_a + t_s), rho), start=1):
        acts = [c for c in channels if c < t_a]
        sens = [c - t_a for c in channels if c >= t_a]
        IG = np.zeros((t_a, rho))
        IH = np.zeros((t_s, rho))
        for col, a in enumerate(acts):
            IG[a, col] = 1.0
        for col, s in enumerate(sens, start=len(acts)):
            IH[s, col] = 1.0
        modes.append(
            ModeHypothesis(
                id=mid,
                actuator_set=tuple(a + 1 for a in acts),
                sensor_set=tuple(s + 1 for s in sens),
                IG=IG,
                IH=IH,
                Gq=G @ IG,
                Hq=H @ IH,
            )
        )
    return modes


def invariant_zeros(A, Gq, C, Hq, tol: float = 1e-8):
    """Invariant zeros of the quadruple (A, Gq, C, Hq), or None if untestable.

    Returns ``(zeros, note)``.  ``zeros`` is a list of complex numbers — the
    values ``z`` at which the system pencil ``[zI - A, -Gq; C, Hq]`` drops
    below its normal rank — or ``None`` when the structure defeats the
    reduction used here (the note says why; callers should treat that case
    conservatively).

    Instead of a staircase algorithm on the (generally non-square) pencil,
    the computation reduces it exactly.  Split the attack along the singular
    directions of ``Hq``: the part visible in the output is pinned by the
    measurement equation, which also forces the state direction ``x`` to
    satisfy ``C2 x = 0`` in the sensor directions ``T2`` that no attack can
    reach.  What remains of the attack acts on the state through ``G2``;
    directions in the null space of ``G2`` influence neither state nor
    output, lower the pencil's normal rank and its rank at every ``z``
    equally, and therefore never create a zero — they are quotiented out by
    replacing ``G2`` with an orthonormal basis of its range.  When ``C2``
    sees that range with full column rank, the remaining attack component is
    pinned too, and ``z`` is an invariant zero exactly when some ``x != 0``
    satisfies simultaneously

        (Abar - z I) x = 0,   C2 x = 0,   (I - C2 G2 M2) C2 At x = 0,

    with ``At`` the state map after absorbing the output-visible attack
    part, ``M2`` the pseudoinverse of ``C2 G2``, and ``Abar`` the state map
    after absorbing both parts.  The search therefore runs over the
    eigenvalues of ``Abar`` with a rank test on the stacked conditions.
    """
    A = np.asarray(A, dtype=float)
    Gq = np.asarray(Gq, dtype=float)
    C = np.asarray(C, dtype=float)
    Hq = np.asarray(Hq, dtype=float)
    n = A.shape[0]
    ell = C.shape[0]
    rho = Gq.shape[1]
    if A.shape != (n, n) or C.shape[1] != n or Gq.shape[0] != n or Hq.shape != (ell, rho):
        raise ModelError(
            f"inconsistent dimensions: A {A.shape}, Gq {Gq.shape}, C {C.shape}, Hq {Hq.shape}"
        )

    # Output split along the attacked-sensor directions.
    U, sv, Vt = np.linalg.svd(Hq, full_matrices=True)
    cutoff = max(ell, rho) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    p_H = int(np.sum(sv > cutoff))
    T1 = U[:, :p_H].T
    T2 = U[:, p_H:].T
    V1 = Vt[:p_H].T
    V2 = Vt[p_H:].T
    C1 = T1 @ C
    C2 = T2 @ C
    G1 = Gq @ V1
    G2 = Gq @ V2

    # State map after absorbing the output-visible attack component.
    At = A - G1 @ (C1 / sv[:p_H, None]) if p_H else A.copy()

    # Quotient away attack directions that touch neither state nor output.
    if G2.shape[1]:
        Ug, sg, _ = np.linalg.svd(G2, full_matrices=False)
        gcut = max(G2.shape) * np.finfo(float).eps * (sg[0] if sg.size else 0.0)
        r = int(np.sum(sg > gcut))
        Ghat = Ug[:, :r]
    else:
        r = 0
        Ghat = np.zeros((n, 0))

    C2G = C2 @ Ghat
    if r:
        sc = np.linalg.svd(C2G, compute_uv=False)
        ccut = max(C2G.shape) * np.finfo(float).eps * (sc[0] if sc.size else 0.0)
        if sc.size < r or sc[-1] <= ccut:
            return None, (
                "residual outputs do not see the state-side attack range "
                "(C2*G2 is column-rank deficient); one-step absorption fails "
                "and the zero computation is unavailable"
            )
    M2 = np.linalg.pinv(C2G)
    Abar = (np.eye(n) - Ghat @ M2 @ C2) @ At
    # Rank-test rows beyond the eigenvalue condition itself.
    extra = np.vstack([C2, (np.eye(C2.shape[0]) - C2G @ M2) @ C2 @ At])

    eigs = np.linalg.eigvals(Abar)
    zeros = []
    for z in eigs:
        stack = np.vstack([Abar - z * np.eye(n), extra])
        s_st = np.linalg.svd(stack, compute_uv=False)
        scale = max(1.0, float(s_st[0]) if s_st.size else 0.0)
        if s_st.size < n or s_st[-1] <= tol * scale:
            zeros.append(complex(z))
    note = (
        f"one-step reduction: rank {p_H} output-visible attack part, "
        f"{rho - p_H - r} slack input direction(s) quotiented, "
        f"{len(zeros)} invariant zero(s) among {n} candidate eigenvalue(s)"
    )
    return zeros, note


def check_strong_detectability(A, Gq, C, Hq, tol: float = 1e-8) -> bool:
    """True iff every invariant zero of (A, Gq, C, Hq) is strictly inside the unit circle.

    Degenerate structures that defeat the zero computation report False with
    a :class:`DegenerateModeWarning` — such hypotheses cannot support the
    observer construction downstream anyway.
    """
    zeros, note = invariant_zeros(A, Gq, C, Hq, tol=tol)
    if zeros is None:
        warnings.warn(
            "strong-detectability check degraded to conservative False: " + note,
            DegenerateModeWarning,
            stacklevel=2,
        )
        return False
    return all(abs(z) < 1.0 for z in zeros)


def validate(model: SystemModel) -> list[str]:
    """Report every dimension, sign or non-finite violation in the model;
    empty iff well-formed."""
    report = []
    mats = {name: getattr(model, name) for name in ("A", "B", "C", "D", "G", "H")}
    for name, arr in mats.items():
        if arr.ndim != 2:
            report.append(f"{name} must be a 2-D matrix; got array of shape {arr.shape}")
        elif not np.all(np.isfinite(arr)):
            report.append(f"{name} must hold finite numbers only (no NaN or Infinity)")
    if report:
        return report

    n = model.A.shape[0]
    ell = model.C.shape[0]
    m = model.B.shape[1]
    if model.A.shape != (n, n):
        report.append(f"A must be square; got shape {model.A.shape}")
    if model.B.shape[0] != n:
        report.append(f"B must have {n} rows to match A; got shape {model.B.shape}")
    if model.C.shape[1] != n:
        report.append(f"C must have {n} columns to match A; got shape {model.C.shape}")
    if model.D.shape != (ell, m):
        report.append(f"D must have shape ({ell}, {m}) to match C and B; got {model.D.shape}")
    if model.G.shape[0] != n:
        report.append(f"G must have {n} rows to match A; got shape {model.G.shape}")
    if model.H.shape[0] != ell:
        report.append(f"H must have {ell} rows to match C; got shape {model.H.shape}")
    for name in ("eta_w", "eta_v", "delta_x0"):
        val = getattr(model, name)
        if not np.isfinite(val) or val < 0:
            report.append(f"{name} must be a finite nonnegative number; got {val}")
    return report
