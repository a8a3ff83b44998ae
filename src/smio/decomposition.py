"""Per-mode output/input decomposition, observer gains, and error dynamics.

For a hypothesis with attack matrices ``(Gq, Hq)`` the estimator needs a
rotated coordinate frame: the output directions that carry direct sensor
attack (``T1``) get inverted away, the remaining directions (``T2``) carry
an attack-free residual, and the attack space splits accordingly into a
part visible in the output (``V1``) and a part acting only through the
state (``V2``).  The frame comes from the SVD of ``Hq`` with a fixed sign
convention so traces are reproducible across platforms.  On top of the
frame sit the observer gains (``M1``, ``M2``, ``Ltilde``) and the closed
matrices of the estimation-error recursion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import ModeHypothesis, SystemModel

__all__ = [
    "ModeDecomposition",
    "ObserverGains",
    "ErrorDynamics",
    "DecompositionError",
    "RankAmbiguityError",
    "InfeasibleModeError",
    "SynthesisError",
    "ConservativeRadiusWarning",
    "decompose_mode",
    "synthesize_gains",
    "error_dynamics",
]


class DecompositionError(ValueError):
    """Mode decomposition or gain synthesis failed."""


class RankAmbiguityError(DecompositionError):
    """The numerical rank of Hq is not decidable at working precision."""


class InfeasibleModeError(DecompositionError):
    """The mode violates the algebraic existence conditions for the observer."""


class SynthesisError(DecompositionError):
    """No stabilizing innovation gain was found (or an override was rejected)."""

    def __init__(self, message: str, radius: float | None = None):
        super().__init__(message)
        self.radius = radius


class ConservativeRadiusWarning(UserWarning):
    """The error map is stable but norm-expansive: ||Ae||_2 >= 1 > spectral radius.

    The per-step radius recursion contracts in norm, so its bounds grow
    transiently (possibly for a long time) even though the true estimation
    error stays bounded.
    """


def _norm2(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def _spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M)))) if M.size else 0.0


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ModeDecomposition:
    """Rotated output/input frame for one mode.

    Rows of ``[T1; T2]`` are an orthonormal output basis with ``T2 @ Hq = 0``;
    columns of ``[V1 V2]`` are an orthonormal attack basis with
    ``T1 @ Hq @ V1 = Sigma`` (invertible diagonal) and ``T1 @ Hq @ V2 = 0``.
    The derived products ``C1, C2, D1, D2, G1, G2`` are stored so downstream
    code never recomputes them inconsistently.
    """

    p_H: int
    T1: np.ndarray = field(repr=False)
    T2: np.ndarray = field(repr=False)
    Sigma: np.ndarray = field(repr=False)
    V1: np.ndarray = field(repr=False)
    V2: np.ndarray = field(repr=False)
    C1: np.ndarray = field(repr=False)
    C2: np.ndarray = field(repr=False)
    D1: np.ndarray = field(repr=False)
    D2: np.ndarray = field(repr=False)
    G1: np.ndarray = field(repr=False)
    G2: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("T1", "T2", "Sigma", "V1", "V2", "C1", "C2", "D1", "D2", "G1", "G2"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def residual_dim(self) -> int:
        """Number of attack-free output directions (rows of T2)."""
        return self.T2.shape[0]


@dataclass(frozen=True, eq=False)
class ObserverGains:
    """Inversion gains M1 (output-visible attack) and M2 (state-side attack),
    plus the innovation gain Ltilde of the final correction step."""

    M1: np.ndarray = field(repr=False)
    M2: np.ndarray = field(repr=False)
    Ltilde: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("M1", "M2", "Ltilde"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class ErrorDynamics:
    """Closed matrices of the estimation-error recursion.

    ``Abar`` propagates the pre-correction error, ``Ae`` the corrected one;
    the ``B``-matrices map process noise (w) and the two measurement-noise
    entry points (v at the previous and current step) into the error.
    Starred variants describe the pre-correction (measurement-updated but
    not innovation-corrected) error.  ``theta`` is the 2-norm of ``Ae``.

    The other floats are the 2-norms the observer's radius recursion uses:
    of ``A - G1 M1 C1`` (``a_pred``), ``G1 M1 T1``, ``Bew``, ``Bev1`` plus
    ``Bev2``, ``V1 M1``, ``V2 M2``, ``C1`` and ``C2``.
    """

    Abar: np.ndarray = field(repr=False)
    Ae: np.ndarray = field(repr=False)
    Bew_star: np.ndarray = field(repr=False)
    Bev1_star: np.ndarray = field(repr=False)
    Bev2_star: np.ndarray = field(repr=False)
    Bew: np.ndarray = field(repr=False)
    Bev1: np.ndarray = field(repr=False)
    Bev2: np.ndarray = field(repr=False)
    theta: float
    a_pred: float
    v_pred: float
    w_gain: float
    v_gain: float
    v1m1: float
    v2m2: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        for name in ("Abar", "Ae", "Bew_star", "Bev1_star", "Bev2_star", "Bew", "Bev1", "Bev2"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def spectral_radius(self) -> float:
        return _spectral_radius(self.Ae)


def decompose_mode(model: SystemModel, mode: ModeHypothesis) -> ModeDecomposition:
    """Build the rotated frame for one mode from the SVD of its Hq.

    Signs are normalized (largest-magnitude entry of every left singular
    vector made positive, with the paired right vector flipped along) so the
    frame is deterministic across BLAS implementations.  Raises
    :class:`RankAmbiguityError` when any singular value sits within a factor
    1e3 of the rank cutoff — a silently misidentified rank would corrupt
    every downstream matrix.
    """
    Hq = mode.Hq
    ell, rho = Hq.shape
    U, sv, Vt = np.linalg.svd(Hq, full_matrices=True)
    U = U.copy()
    Vt = Vt.copy()
    smax = float(sv[0]) if sv.size else 0.0
    cutoff = max(ell, rho) * np.finfo(float).eps * smax
    ambiguous = [s for s in sv if cutoff / 1e3 < s <= cutoff * 1e3]
    if ambiguous:
        raise RankAmbiguityError(
            "numerical rank of Hq is ambiguous: singular value(s) "
            + ", ".join(f"{s:.6e}" for s in ambiguous)
            + f" lie within a factor 1e3 of the cutoff {cutoff:.6e}"
        )
    p_H = int(np.sum(sv > cutoff))

    # deterministic signs: dominant entry of each output direction positive
    for i in range(U.shape[1]):
        col = U[:, i]
        if col[np.argmax(np.abs(col))] < 0:
            U[:, i] = -col
            if i < p_H:
                Vt[i, :] = -Vt[i, :]
    for i in range(p_H, Vt.shape[0]):
        row = Vt[i, :]
        if row.size and row[np.argmax(np.abs(row))] < 0:
            Vt[i, :] = -row

    T1 = U[:, :p_H].T
    T2 = U[:, p_H:].T
    V1 = Vt[:p_H].T
    V2 = Vt[p_H:].T
    return ModeDecomposition(
        p_H=p_H,
        T1=T1,
        T2=T2,
        Sigma=np.diag(sv[:p_H]),
        V1=V1,
        V2=V2,
        C1=T1 @ model.C,
        C2=T2 @ model.C,
        D1=T1 @ model.D,
        D2=T2 @ model.D,
        G1=mode.Gq @ V1,
        G2=mode.Gq @ V2,
    )


def _abar(
    dec: ModeDecomposition, M1: np.ndarray, M2: np.ndarray, model: SystemModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Phi, At, Abar)``: the state-side inversion ``Phi = I - G2 M2 C2``,
    the prediction map ``At = A - G1 M1 C1`` and the pre-correction error
    map ``Abar = Phi At``."""
    Phi = np.eye(model.n) - dec.G2 @ M2 @ dec.C2
    At = model.A - dec.G1 @ M1 @ dec.C1
    return Phi, At, Phi @ At


def _m1_m2(dec: ModeDecomposition) -> tuple[np.ndarray, np.ndarray]:
    diag = np.diag(dec.Sigma) if dec.p_H else np.zeros(0)
    M1 = np.diag(1.0 / diag) if dec.p_H else np.zeros((0, 0))
    C2G2 = dec.C2 @ dec.G2
    width = C2G2.shape[1]
    if width:
        sv = np.linalg.svd(C2G2, compute_uv=False)
        tol = max(C2G2.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
        if sv.size < width or sv[-1] <= tol:
            raise InfeasibleModeError(
                "C2*G2 is column-rank deficient "
                f"(shape {C2G2.shape}, singular values {np.array2string(sv, precision=3)}); "
                "the state-side attack component cannot be recovered from the residual outputs"
            )
    M2 = np.linalg.pinv(C2G2)
    return M1, M2


def _filter_dare(Abar: np.ndarray, C2: np.ndarray) -> np.ndarray:
    """Stabilizing solution of the filter Riccati equation with identity weights,
    ``X = Abar X Abar^T - Abar X C2^T (I + C2 X C2^T)^-1 C2 X Abar^T + I``,
    by the structure-preserving doubling algorithm (Anderson 1978; Chu, Fan
    & Lin 2005).  Each step squares the closed-loop map, so a detectable
    pair converges quadratically; one that is not makes ``H`` diverge,
    which raises :class:`SynthesisError`.
    """
    I = np.eye(Abar.shape[0])
    A, G, H = Abar.T, C2.T @ C2, I
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            try:
                WA, WG = np.hsplit(np.linalg.solve(I + G @ H, np.hstack([A, G])), 2)
            except np.linalg.LinAlgError as exc:
                raise SynthesisError(f"Riccati synthesis failed: {exc}") from exc
            H_next = H + A.T @ H @ WA
            H_next = 0.5 * (H_next + H_next.T)
            G = G + A @ WG @ A.T
            A = A @ WA
            if not np.isfinite(H_next).all():
                raise SynthesisError("Riccati synthesis failed: the doubling iteration diverged")
            change = np.max(np.abs(H_next - H))
            H = H_next
            if change <= 1e-15 * max(1.0, np.max(np.abs(H))):
                return H
    raise SynthesisError("Riccati synthesis failed: no convergence in 100 doubling steps")


def synthesize_gains(
    dec: ModeDecomposition,
    model: SystemModel,
    override: np.ndarray | None = None,
) -> ObserverGains:
    """Gains satisfying M1 Sigma = I and M2 C2 G2 = I, plus a stabilizing Ltilde.

    The default innovation gain solves the discrete algebraic Riccati
    equation for (Abar^T, C2^T) with identity weights by doubling — a standard
    stabilizing choice; everything downstream (thresholds, radii) is built
    from the actual closed-loop matrices, so any stable gain is sound.  An
    ``override`` gain is accepted only after its closed-loop spectral radius
    checks out, and rejected with the computed radius otherwise.
    """
    M1, M2 = _m1_m2(dec)
    Abar = _abar(dec, M1, M2, model)[2]
    n = model.n
    rdim = dec.C2.shape[0]

    if override is not None:
        Lt = np.asarray(override, dtype=float)
        if Lt.shape != (n, rdim):
            raise SynthesisError(
                f"override gain must have shape ({n}, {rdim}); got {Lt.shape}"
            )
        failure = "override gain rejected: closed-loop spectral radius {:.6f} >= 1"
    elif rdim == 0:
        # no residual outputs to correct with; the open map must already be stable
        Lt = np.zeros((n, 0))
        failure = (
            "mode has no attack-free output direction and its open error map "
            "is unstable (spectral radius {:.6f})"
        )
    else:
        P = _filter_dare(Abar, dec.C2)
        S = dec.C2 @ P @ dec.C2.T + np.eye(rdim)
        Lt = P @ dec.C2.T @ np.linalg.inv(S)
        failure = "Riccati gain failed to stabilize: spectral radius {:.6f} >= 1"
    radius = _spectral_radius((np.eye(n) - Lt @ dec.C2) @ Abar)
    if radius >= 1.0:
        raise SynthesisError(failure.format(radius), radius=radius)
    return ObserverGains(M1=M1, M2=M2, Ltilde=Lt)


def error_dynamics(
    dec: ModeDecomposition, gains: ObserverGains, model: SystemModel
) -> ErrorDynamics:
    """Assemble the closed error-recursion matrices for one mode.

    Emits :class:`ConservativeRadiusWarning` when the map is stable in
    spectral radius but expansive in 2-norm (theta >= 1), because the
    norm-based radius recursion then grows without reflecting the true
    error.
    """
    Phi, At, Abar = _abar(dec, gains.M1, gains.M2, model)
    IL = np.eye(model.n) - gains.Ltilde @ dec.C2
    Ae = IL @ Abar
    Bew_star = Phi
    G1M1T1 = dec.G1 @ gains.M1 @ dec.T1
    Bev1_star = -Phi @ G1M1T1
    Bev2_star = -dec.G2 @ gains.M2 @ dec.T2
    Bew = IL @ Bew_star
    Bev1 = IL @ Bev1_star
    Bev2 = IL @ Bev2_star - gains.Ltilde @ dec.T2
    dyn = ErrorDynamics(
        Abar=Abar,
        Ae=Ae,
        Bew_star=Bew_star,
        Bev1_star=Bev1_star,
        Bev2_star=Bev2_star,
        Bew=Bew,
        Bev1=Bev1,
        Bev2=Bev2,
        theta=_norm2(Ae),
        a_pred=_norm2(At),
        v_pred=_norm2(G1M1T1),
        w_gain=_norm2(Bew),
        v_gain=_norm2(Bev1) + _norm2(Bev2),
        v1m1=_norm2(dec.V1 @ gains.M1),
        v2m2=_norm2(dec.V2 @ gains.M2),
        c1=_norm2(dec.C1),
        c2=_norm2(dec.C2),
    )
    if dyn.theta >= 1.0 > dyn.spectral_radius:
        warnings.warn(
            f"error map is stable (spectral radius {dyn.spectral_radius:.4f}) but "
            f"norm-expansive (theta = {dyn.theta:.4f} >= 1): the per-step error "
            "radius will grow transiently and its recursion never contracts",
            ConservativeRadiusWarning,
            stacklevel=2,
        )
    return dyn
