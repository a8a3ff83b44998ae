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
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MODES_MAX",
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

# Largest hypothesis bank enumerate_modes builds; sim.py says what it
# bounds, beside HORIZON_MAX.
MODES_MAX = 1024

# invariant_zeros' rank test: a zero where the smallest singular value is at most this relative
_ZERO_TOL = 1e-8

_EPS = np.finfo(float).eps


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
    that order, so numbering is reproducible across runs.  More than
    :data:`MODES_MAX` hypotheses raise :class:`SparsityError` before any is
    built.
    """
    t_a, t_s, rho = int(t_a), int(t_s), int(rho)
    for name, count in (("t_a", t_a), ("t_s", t_s)):
        if count < 0:
            raise SparsityError(f"{name}={count} must be a nonnegative channel count")
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
    count = math.comb(t_a + t_s, rho)
    if count > MODES_MAX:
        raise SparsityError(
            f"t_a={t_a}, t_s={t_s}, rho={rho} give {count} hypotheses, "
            f"more than the {MODES_MAX} a bank may hold"
        )

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


def _rank_cutoff(shape, sv):
    """The numerical-rank cutoff ``max(shape)·eps·σ_max`` of a matrix of
    this shape with singular values ``sv``, largest first: the singular
    values above it count toward the rank.  For a stack of matrices (the
    shape's last two entries) it is one cutoff per matrix."""
    top = sv[..., 0] if sv.shape[-1] else np.zeros(sv.shape[:-1])
    return max(shape[-2:]) * _EPS * top


def _column_rank_deficient(M: np.ndarray):
    """``(deficient, sv)``: whether ``M`` falls short of full numerical
    column rank, and its singular values (none for a matrix without
    columns, which is never deficient); for a stack, one flag and one row
    of singular values per matrix, from one LAPACK call."""
    if not M.shape[-1]:
        return np.zeros(M.shape[:-2], dtype=bool), np.zeros(M.shape[:-2] + (0,))
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.shape[-1] < M.shape[-1]:
        return np.ones(M.shape[:-2], dtype=bool), sv
    return sv[..., -1] <= _rank_cutoff(M.shape, sv), sv


def _hq_frame(U: np.ndarray, Vt: np.ndarray, p_H: int, C: np.ndarray, Gq: np.ndarray):
    """``(T1, T2, V1, V2, C1, C2, G1, G2)`` from the full SVD ``Hq = U Σ Vt``
    of numerical rank ``p_H``: the attacked output directions ``T1`` and the
    attack-free ones ``T2``, the output-visible attack directions ``V1`` and
    the state-only ones ``V2``, and ``C`` and ``Gq`` in that frame.  Stacks
    of hypotheses with one ``p_H`` give stacks, the views and products of
    each matrix laid out as a single hypothesis's are."""
    T1, T2 = U[..., :p_H].swapaxes(-1, -2), U[..., p_H:].swapaxes(-1, -2)
    V1, V2 = Vt[..., :p_H, :].swapaxes(-1, -2), Vt[..., p_H:, :].swapaxes(-1, -2)
    return T1, T2, V1, V2, T1 @ C, T2 @ C, Gq @ V1, Gq @ V2


def _hq_svd(Hq: np.ndarray):
    """``(U, sv, Vt, cutoff, ranks)``: the full SVD of each ``Hq`` of a
    stack in one LAPACK call, each one's rank cutoff, and the list of their
    numerical ranks ``p_H``.  Detectability and the decomposition both
    start from it."""
    U, sv, Vt = np.linalg.svd(Hq, full_matrices=True)
    cutoff = _rank_cutoff(Hq.shape, sv)[:, None]
    return U, sv, Vt, cutoff, (sv > cutoff).sum(axis=1).tolist()


def _some(M: np.ndarray, sel: list[int]) -> np.ndarray:
    """The matrices ``sel`` of a stack: the stack itself when that is all
    of them."""
    return M if len(sel) == len(M) else M[sel]


def _stacked_zeros(A, C, Gq, U, sv, Vt, p_H: int) -> list[tuple]:
    """:func:`invariant_zeros`' ``(zeros, note)`` for each hypothesis of a
    stack whose ``Hq`` share the rank ``p_H``, given their SVDs
    (:func:`_hq_svd`).  Every stage is one stacked call per group of
    hypotheses that share their matrix shapes, which split again at the
    rank of ``G2`` and at whether ``Abar``'s spectrum is real; LAPACK and
    ``matmul`` give each matrix of a stack the floats of a call of its own,
    so each hypothesis gets the result it would get alone."""
    k, n, rho = Gq.shape
    _, _, _, _, C1, C2, G1, G2 = _hq_frame(U, Vt, p_H, C, Gq)
    # State map after absorbing the output-visible attack component (A's
    # own floats when p_H is 0: the empty product is +0.0)
    At = A - G1 @ (C1 / sv[:, :p_H, None])

    # Quotient away attack directions that touch neither state nor output.
    if rho - p_H:
        Ug, sg, _ = np.linalg.svd(G2, full_matrices=False)
        ranks = (sg > _rank_cutoff(G2.shape, sg)[:, None]).sum(axis=1).tolist()
    else:
        Ug, ranks = np.zeros((k, n, 0)), [0] * k
    out: list = [None] * k
    for r in sorted(set(ranks)):
        sel = [i for i, ri in enumerate(ranks) if ri == r]
        C2s = _some(C2, sel)
        C2G = C2s @ _some(Ug, sel)[..., :r]
        deficient = _column_rank_deficient(C2G)[0].tolist()
        if any(deficient):
            for i in [i for i, d in zip(sel, deficient) if d]:
                out[i] = None, (
                    "residual outputs do not see the state-side attack range "
                    "(C2*G2 is column-rank deficient); one-step absorption fails "
                    "and the zero computation is unavailable"
                )
            keep = [j for j, d in enumerate(deficient) if not d]
            if not keep:
                continue
            sel, C2s, C2G = [sel[j] for j in keep], C2s[keep], C2G[keep]
        Ghat, Ats = _some(Ug, sel)[..., :r], _some(At, sel)
        M2 = np.linalg.pinv(C2G)
        Abar = (np.eye(n) - Ghat @ M2 @ C2s) @ Ats
        # Rank-test rows beyond the eigenvalue condition itself.
        extra = np.concatenate((C2s, (np.eye(C2s.shape[1]) - C2G @ M2) @ C2s @ Ats), axis=1)
        # One batched SVD over the candidates of every hypothesis whose
        # eigvals have one dtype: a hypothesis's own call returns a real
        # array exactly when all its eigenvalues are real, and each pencil
        # is complex exactly when its candidate z is.
        eigs = np.linalg.eigvals(Abar)
        real = [True] * len(sel)
        if np.iscomplexobj(eigs):
            real = (eigs.imag == 0.0).all(axis=1).tolist()
        for kind in sorted(set(real)):
            part = [j for j, rj in enumerate(real) if rj == kind]
            w = _some(eigs, part)
            w = w.real if kind and np.iscomplexobj(w) else w
            # Abar - z I formed in place, with no temporary of the pencils' size
            stacks = np.empty((len(part), n, n + extra.shape[1], n), dtype=w.dtype)
            pencil = stacks[:, :, :n]
            np.multiply(w[:, :, None, None], np.eye(n), out=pencil)
            np.subtract(_some(Abar, part)[:, None], pencil, out=pencil)
            stacks[:, :, n:] = _some(extra, part)[:, None]
            hits = np.zeros(w.shape, dtype=bool)
            if n:
                s = np.linalg.svd(stacks.reshape((-1,) + stacks.shape[2:]), compute_uv=False)
                # fmax, like max(1.0, s), takes 1.0 over a NaN
                hits = (s[:, -1] <= _ZERO_TOL * np.fmax(1.0, s[:, 0])).reshape(w.shape)
            for j, wj, hj in zip(part, w, hits):
                zeros = [complex(z) for z in wj[hj]]
                out[sel[j]] = zeros, (
                    f"one-step reduction: rank {p_H} output-visible attack part, "
                    f"{rho - p_H - r} slack input direction(s) quotiented, "
                    f"{len(zeros)} invariant zero(s) among {n} candidate eigenvalue(s)"
                )
    return out


def invariant_zeros(A, Gq, C, Hq):
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
    eigenvalues of ``Abar`` with a rank test on the stacked conditions,
    one batched SVD over the candidates (:func:`_stacked_zeros`, here for a
    stack of one hypothesis).
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
    U, sv, Vt, _, ranks = _hq_svd(Hq[None])
    return _stacked_zeros(A, C, Gq[None], U, sv, Vt, ranks[0])[0]


def _detectable(zeros, note) -> tuple[bool, str | None]:
    """:func:`check_strong_detectability`'s verdict from
    :func:`invariant_zeros`' result, and the message of the warning it
    emits (None if it emits none)."""
    if zeros is None:
        return False, "strong-detectability check degraded to conservative False: " + note
    return all(abs(z) < 1.0 for z in zeros), None


def check_strong_detectability(A, Gq, C, Hq) -> bool:
    """True iff every invariant zero of (A, Gq, C, Hq) is strictly inside the unit circle.

    Degenerate structures that defeat the zero computation report False with
    a :class:`DegenerateModeWarning` — such hypotheses cannot support the
    observer construction downstream anyway.
    """
    detectable, message = _detectable(*invariant_zeros(A, Gq, C, Hq))
    if message is not None:
        warnings.warn(message, DegenerateModeWarning, stacklevel=2)
    return detectable


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
