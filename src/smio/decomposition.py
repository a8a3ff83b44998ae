"""Per-mode output/input decomposition, observer gains, and error dynamics.

For a hypothesis with attack matrices ``(Gq, Hq)`` the estimator needs a
rotated coordinate frame: the output directions that carry direct sensor
attack (``T1``) get inverted away, the remaining directions (``T2``) carry
an attack-free residual, and the attack space splits accordingly into a
part visible in the output (``V1``) and a part acting only through the
state (``V2``).  The frame comes from the SVD of ``Hq`` with a fixed sign
convention so traces are reproducible across platforms.  On top of the
frame sit the observer gains (``M1``, ``M2``, ``Ltilde``) and the closed
matrices of the estimation-error recursion.  :func:`build_bank` takes a
bank of hypotheses through these stages, the hypotheses that share their
matrix shapes together.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .model import (
    DegenerateModeWarning,
    ModeHypothesis,
    SystemModel,
    _column_rank_deficient,
    _detectable,
    _hq_frame,
    _hq_svd,
    _some,
    _stacked_zeros,
)

__all__ = [
    "ModeDecomposition",
    "ObserverGains",
    "ErrorDynamics",
    "DecompositionError",
    "RankAmbiguityError",
    "InfeasibleModeError",
    "SynthesisError",
    "ConservativeRadiusWarning",
    "GROUP_BYTES",
    "decompose_mode",
    "synthesize_gains",
    "error_dynamics",
    "build_bank",
]

# build_bank takes a group of same-shape hypotheses through each stage at
# once, at most about this many bytes of its largest stacks at a time:
# invariant_zeros' candidate pencils (n complex (n + 2 l)-by-n matrices per
# hypothesis) and the l-by-l frames of Hq.  A larger group is built in
# chunks, so no transient grows with the number of hypotheses.
GROUP_BYTES = 2**22


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
    """``np.linalg.norm(M, 2)``'s float: the largest singular value of the
    same LAPACK call, without ``norm``'s axis handling (0.0 when empty)."""
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


def _stacked_norm2(stack: np.ndarray) -> np.ndarray:
    """:func:`_norm2` of each matrix ``stack[i]`` of a 3-D block, in one
    LAPACK call.  A LAPACK gufunc gives a matrix the same singular values
    whichever matrices share its call, so the bank takes same-shape
    matrices together and the tracker each noise family's block of levels
    whole.  Only the matrices with a nonzero entry go to LAPACK: an
    all-zero matrix's 2-norm is +0.0 whatever the signs of its zeros."""
    nonzero = stack.any(axis=(1, 2))
    if nonzero.all():
        return np.linalg.svd(stack, compute_uv=False).max(axis=1)
    norms = np.zeros(stack.shape[0])
    if nonzero.any():
        norms[nonzero] = np.linalg.svd(stack[nonzero], compute_uv=False).max(axis=1)
    return norms


def _spectral_radii(stack: np.ndarray) -> list[float]:
    """The spectral radius of each matrix of a stack, from one LAPACK call
    (0.0 for an empty matrix).  A stacked call returns a complex array when
    any matrix has a complex pair; the modulus of a real eigenvalue held as
    complex is its absolute value exactly, so each radius is the float of
    the matrix's own call."""
    if not stack.shape[-1]:
        return [0.0] * len(stack)
    return np.abs(np.linalg.eigvals(stack)).max(axis=1).tolist()


def _readonly(arr: np.ndarray) -> np.ndarray:
    # a C-contiguous copy: a matrix of a group's stack would otherwise pin
    # the stack
    arr = np.array(arr, dtype=float, order="C")
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
        return _spectral_radii(self.Ae[None])[0]


# The stages below take a group of hypotheses that share their matrix
# shapes (and the rank p_H of Hq) through stacked LAPACK and matmul calls.  A
# gufunc gives each matrix of a stack the floats of a call of its own, and
# each stacked operand is laid out per matrix as the single hypothesis's
# array is (a fresh array, or the same view of one), so every hypothesis
# gets the floats it would get alone.  A group is a namespace of stacks
# whose first axis runs over its members, with ``idx``, each member's
# position in the caller's list; a stage returns each member's result or
# exception by position, and the group of the members that got through
# (:func:`_drop`).  The single-hypothesis functions are the group-of-one
# case.

_FRAME = ("T1", "T2", "V1", "V2", "C1", "C2", "D1", "D2", "G1", "G2")


def _drop(group: SimpleNamespace, failed: dict, out) -> SimpleNamespace:
    """Record each failed member's result, ``failed[i]`` for the member at
    position ``i`` of the group, in ``out`` at the member's ``idx``, and
    return the group of the others: the group itself when none failed."""
    for i, result in failed.items():
        out[int(group.idx[i])] = result
    if not failed:
        return group
    keep = np.ones(group.idx.size, dtype=bool)
    keep[list(failed)] = False
    return SimpleNamespace(
        **{name: v[keep] if isinstance(v, np.ndarray) else v for name, v in vars(group).items()}
    )


def _rank_groups(modes):
    """The hypotheses ``modes``, which share the shapes of ``Gq`` and
    ``Hq``, as groups of one rank p_H of ``Hq``, by increasing p_H, made
    one at a time.  A group holds its members' ``Gq`` and the full SVDs
    ``U, sv, Vt`` of their ``Hq`` with the rank cutoffs
    (:func:`~smio.model._hq_svd`): one SVD per ``Hq`` serves detectability
    and the decomposition."""
    U, sv, Vt, cutoff, ranks = _hq_svd(np.stack([mode.Hq for mode in modes]))
    stacks = dict(Gq=np.stack([mode.Gq for mode in modes]), U=U, sv=sv, Vt=Vt, cutoff=cutoff)
    for p_H in sorted(set(ranks)):
        sel = [i for i, r in enumerate(ranks) if r == p_H]
        yield SimpleNamespace(
            idx=np.array(sel), p_H=p_H, **{name: _some(M, sel) for name, M in stacks.items()}
        )


def _one(dec: ModeDecomposition, gains: ObserverGains | None = None) -> SimpleNamespace:
    """A group of one from a decomposition (and its gains)."""
    group = SimpleNamespace(idx=np.zeros(1, dtype=int), p_H=dec.p_H, sv=np.diag(dec.Sigma)[None])
    for name in _FRAME:
        setattr(group, name, getattr(dec, name)[None])
    if gains is not None:
        group.M1, group.M2, group.Lt = gains.M1[None], gains.M2[None], gains.Ltilde[None]
    return group


def _signs(M: np.ndarray, axis: int) -> np.ndarray:
    """-1.0 where the largest-magnitude entry (the first, on a tie) of a
    column (``axis`` 1) or row (``axis`` 2) of each matrix is negative,
    else 1.0; multiplying by it negates exactly as ``-x`` does."""
    k, rows, cols = M.shape
    top = np.abs(M).argmax(axis=axis)
    if axis == 1:
        entry = M[np.arange(k)[:, None], top, np.arange(cols)]
    else:
        entry = M[np.arange(k)[:, None], np.arange(rows), top]
    return np.where(entry < 0, -1.0, 1.0)


def _decompose(model: SystemModel, group: SimpleNamespace):
    """:func:`decompose_mode` for a group of :func:`_rank_groups`.
    Returns ``({position: decomposition or error}, frames)``, ``frames``
    the group of the decomposed members with the stacked fields of
    :class:`ModeDecomposition` (``sv`` for ``Sigma``'s diagonals)."""
    p_H, sv, cutoff = group.p_H, group.sv, group.cutoff
    out: dict[int, object] = {}
    near = (cutoff / 1e3 < sv) & (sv <= cutoff * 1e3)
    ambiguous = {
        i: RankAmbiguityError(
            "numerical rank of Hq is ambiguous: singular value(s) "
            + ", ".join(f"{s:.6e}" for s in sv[i][near[i]])
            + f" lie within a factor 1e3 of the cutoff {cutoff[i, 0]:.6e}"
        )
        for i in np.flatnonzero(near.any(axis=1)).tolist()
    }
    group = _drop(group, ambiguous, out)
    U, Vt = group.U, group.Vt

    # deterministic signs: dominant entry of each output direction positive
    # (its right singular vector flipped along), then of each state-only
    # attack direction
    vsign = np.ones(Vt.shape[:2])
    if U.shape[1]:
        usign = _signs(U, 1)
        U = U * usign[:, None, :]
        vsign[:, :p_H] = usign[:, :p_H]
    if Vt.shape[1] > p_H:
        vsign[:, p_H:] = _signs(Vt[:, p_H:], 2)
    Vt = Vt * vsign[:, :, None]

    T1, T2, V1, V2, C1, C2, G1, G2 = _hq_frame(U, Vt, p_H, model.C, group.Gq)
    # the frames stored C-contiguous, as ModeDecomposition stores them
    frames = SimpleNamespace(
        idx=group.idx, p_H=p_H, sv=np.ascontiguousarray(group.sv[:, :p_H]),
        T1=np.ascontiguousarray(T1), T2=np.ascontiguousarray(T2),
        V1=np.ascontiguousarray(V1), V2=np.ascontiguousarray(V2),
        C1=C1, C2=C2, D1=T1 @ model.D, D2=T2 @ model.D, G1=G1, G2=G2,
    )
    for i, q in enumerate(frames.idx.tolist()):
        out[q] = ModeDecomposition(
            p_H=p_H,
            Sigma=np.diag(frames.sv[i]),
            **{name: getattr(frames, name)[i] for name in _FRAME},
        )
    return out, frames


def decompose_mode(model: SystemModel, mode: ModeHypothesis) -> ModeDecomposition:
    """Build the rotated frame for one mode from the SVD of its Hq.

    Signs are normalized (largest-magnitude entry of every left singular
    vector made positive, with the paired right vector flipped along) so the
    frame is deterministic across BLAS implementations.  Raises
    :class:`RankAmbiguityError` when any singular value sits within a factor
    1e3 of the rank cutoff — a silently misidentified rank would corrupt
    every downstream matrix.
    """
    return _raise_or_return(_decompose(model, next(_rank_groups([mode])))[0][0])


def _raise_or_return(result):
    if isinstance(result, Exception):
        raise result
    return result


def _abar(
    dec, M1: np.ndarray, M2: np.ndarray, model: SystemModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Phi, At, Abar)``: the state-side inversion ``Phi = I - G2 M2 C2``,
    the prediction map ``At = A - G1 M1 C1`` and the pre-correction error
    map ``Abar = Phi At``, of a decomposition or of a group's stacks."""
    Phi = np.eye(model.n) - dec.G2 @ M2 @ dec.C2
    At = model.A - dec.G1 @ M1 @ dec.C1
    return Phi, At, Phi @ At


def _filter_dare(Abar: np.ndarray, C2: np.ndarray) -> list:
    """Stabilizing solution of the filter Riccati equation with identity weights,
    ``X = Abar X Abar^T - Abar X C2^T (I + C2 X C2^T)^-1 C2 X Abar^T + I``,
    for each pair of the stacks ``Abar``, ``C2``, by the structure-preserving
    doubling algorithm (Anderson 1978; Chu, Fan & Lin 2005).  Each step
    squares the closed-loop map, so a detectable pair converges
    quadratically; one that is not makes ``H`` diverge.  Returns each
    pair's solution or :class:`SynthesisError`.  A pair leaves the stack at
    the step that decides it; a singular solve in the stacked call is
    retaken pair by pair, so only the pairs it concerns fail.
    """
    k, n = Abar.shape[:2]
    I = np.eye(n)
    out: list = [None] * k
    live = np.arange(k)
    A, G, H = Abar.swapaxes(1, 2), C2.swapaxes(1, 2) @ C2, I
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            lhs, rhs = I + G @ H, np.concatenate((A, G), axis=2)
            try:
                W = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                W = np.empty_like(rhs)
                ok = np.ones(live.size, dtype=bool)
                for i in range(live.size):
                    try:
                        W[i] = np.linalg.solve(lhs[i], rhs[i])
                    except np.linalg.LinAlgError as exc:
                        error = SynthesisError(f"Riccati synthesis failed: {exc}")
                        error.__cause__ = exc
                        out[live[i]], ok[i] = error, False
                H = np.broadcast_to(H, G.shape)
                live, A, G, H, W = live[ok], A[ok], G[ok], H[ok], W[ok]
                if not live.size:
                    return out
            WA, WG = W[..., :n], W[..., n:]
            H_next = H + A.swapaxes(1, 2) @ H @ WA
            H_next = 0.5 * (H_next + H_next.swapaxes(1, 2))
            G = G + A @ WG @ A.swapaxes(1, 2)
            A = A @ WA
            change = np.abs(H_next - H).max(axis=(1, 2)).tolist()
            H = H_next
            # the largest magnitude is inf or NaN exactly when H is not finite
            top = np.abs(H).max(axis=(1, 2)).tolist()
            finite = [math.isfinite(h) for h in top]
            done = [not f or c <= 1e-15 * max(1.0, h) for f, c, h in zip(finite, change, top)]
            if any(done):
                for i in [i for i, d in enumerate(done) if d]:
                    out[live[i]] = H[i] if finite[i] else SynthesisError(
                        "Riccati synthesis failed: the doubling iteration diverged"
                    )
                if all(done):
                    return out
                keep = [i for i, d in enumerate(done) if not d]
                live, A, G, H = live[keep], A[keep], G[keep], H[keep]
    for i in live.tolist():
        out[i] = SynthesisError("Riccati synthesis failed: no convergence in 100 doubling steps")
    return out


def _gains(model: SystemModel, group: SimpleNamespace, override: np.ndarray | None = None):
    """:func:`synthesize_gains` for a group of decompositions (``override``
    a stack of one gain per member).  Returns ``({position: gains or
    error}, group)``, the group of the members that got gains extended by
    the stacks ``M1``, ``C2G2``, ``override``, ``M2``, ``Lt`` and
    :func:`_abar`'s ``Phi``, ``At``, ``Abar``."""
    out: dict[int, object] = {}
    k, p_H = group.sv.shape
    group.M1, diag = np.zeros((k, p_H, p_H)), np.arange(p_H)
    group.M1[:, diag, diag] = 1.0 / group.sv
    group.C2G2, group.override = group.C2 @ group.G2, override
    deficient, sv = _column_rank_deficient(group.C2G2)
    infeasible = {
        i: InfeasibleModeError(
            "C2*G2 is column-rank deficient "
            f"(shape {group.C2G2.shape[1:]}, singular values {np.array2string(sv[i], precision=3)}); "
            "the state-side attack component cannot be recovered from the residual outputs"
        )
        for i in np.flatnonzero(deficient).tolist()
    }
    group = _drop(group, infeasible, out)
    if not group.idx.size:
        return out, group
    group.M2 = np.linalg.pinv(group.C2G2)
    group.Phi, group.At, group.Abar = _abar(group, group.M1, group.M2, model)
    n, rdim = model.n, group.C2.shape[1]

    if group.override is not None:
        shape = group.override.shape[1:]
        if shape != (n, rdim):
            error = f"override gain must have shape ({n}, {rdim}); got {shape}"
            return out, _drop(group, {i: SynthesisError(error) for i in range(group.idx.size)}, out)
        group.Lt = group.override
        failure = "override gain rejected: closed-loop spectral radius {:.6f} >= 1"
    elif rdim == 0:
        # no residual outputs to correct with; the open map must already be stable
        group.Lt = np.zeros((group.idx.size, n, 0))
        failure = (
            "mode has no attack-free output direction and its open error map "
            "is unstable (spectral radius {:.6f})"
        )
    else:
        P = _filter_dare(group.Abar, group.C2)
        group = _drop(group, {i: Pi for i, Pi in enumerate(P) if isinstance(Pi, SynthesisError)}, out)
        if not group.idx.size:
            return out, group
        P = np.array([Pi for Pi in P if not isinstance(Pi, SynthesisError)])
        C2T = group.C2.swapaxes(1, 2)
        S = group.C2 @ P @ C2T + np.eye(rdim)
        group.Lt = P @ C2T @ np.linalg.inv(S)
        failure = "Riccati gain failed to stabilize: spectral radius {:.6f} >= 1"
    radius = _spectral_radii((np.eye(n) - group.Lt @ group.C2) @ group.Abar)
    unstable = {i: SynthesisError(failure.format(r), radius=r) for i, r in enumerate(radius) if r >= 1.0}
    group = _drop(group, unstable, out)
    for i, q in enumerate(group.idx.tolist()):
        out[q] = ObserverGains(M1=group.M1[i], M2=group.M2[i], Ltilde=group.Lt[i])
    return out, group


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
    if override is not None:
        override = np.asarray(override, dtype=float)[None]
    return _raise_or_return(_gains(model, _one(dec), override)[0][0])


def _dynamics(model: SystemModel, group: SimpleNamespace) -> dict[int, tuple]:
    """:func:`error_dynamics` for a group with gains (:func:`_gains`'s
    group): ``{position: (dynamics, warning message or None)}``."""
    IL = np.eye(model.n) - group.Lt @ group.C2
    Ae = IL @ group.Abar
    Phi = group.Phi
    G1M1T1 = group.G1 @ group.M1 @ group.T1
    Bev1_star = -Phi @ G1M1T1
    Bev2_star = -group.G2 @ group.M2 @ group.T2
    Bew = IL @ Phi
    Bev1 = IL @ Bev1_star
    Bev2 = IL @ Bev2_star - group.Lt @ group.T2
    # one LAPACK call per shape: the n-by-n maps, then the n-by-l ones, then
    # each of the four smaller norms (_norm2's call, for every member)
    k = group.idx.size
    nn = _stacked_norm2(np.concatenate((Ae, group.At, Bew))).reshape(3, k).tolist()
    nl = _stacked_norm2(np.concatenate((G1M1T1, Bev1, Bev2))).reshape(3, k).tolist()
    (theta, a_pred, w_gain), (v_pred, bev1, bev2) = nn, nl
    v1m1, v2m2, c1, c2 = (
        np.linalg.svd(M, compute_uv=False)[:, 0].tolist() if M.size else [0.0] * k
        for M in (group.V1 @ group.M1, group.V2 @ group.M2, group.C1, group.C2)
    )
    expansive = [i for i, t in enumerate(theta) if t >= 1.0]
    radii = dict(zip(expansive, _spectral_radii(Ae[expansive]))) if expansive else {}
    out = {}
    for i, q in enumerate(group.idx.tolist()):
        dyn = ErrorDynamics(
            Abar=group.Abar[i],
            Ae=Ae[i],
            Bew_star=Phi[i],
            Bev1_star=Bev1_star[i],
            Bev2_star=Bev2_star[i],
            Bew=Bew[i],
            Bev1=Bev1[i],
            Bev2=Bev2[i],
            theta=theta[i],
            a_pred=a_pred[i],
            v_pred=v_pred[i],
            w_gain=w_gain[i],
            v_gain=bev1[i] + bev2[i],
            v1m1=v1m1[i],
            v2m2=v2m2[i],
            c1=c1[i],
            c2=c2[i],
        )
        note = None
        if radii.get(i, 1.0) < 1.0:
            note = (
                f"error map is stable (spectral radius {radii[i]:.4f}) but "
                f"norm-expansive (theta = {dyn.theta:.4f} >= 1): the per-step error "
                "radius will grow transiently and its recursion never contracts"
            )
        out[q] = dyn, note
    return out


def error_dynamics(
    dec: ModeDecomposition, gains: ObserverGains, model: SystemModel
) -> ErrorDynamics:
    """Assemble the closed error-recursion matrices for one mode.

    Emits :class:`ConservativeRadiusWarning` when the map is stable in
    spectral radius but expansive in 2-norm (theta >= 1), because the
    norm-based radius recursion then grows without reflecting the true
    error.
    """
    group = _one(dec, gains)
    group.Phi, group.At, group.Abar = _abar(group, group.M1, group.M2, model)
    dyn, note = _dynamics(model, group)[0]
    if note is not None:
        warnings.warn(note, ConservativeRadiusWarning, stacklevel=2)
    return dyn


def build_bank(model: SystemModel, modes) -> tuple[dict[int, tuple], dict[int, str]]:
    """Build one observer per usable mode hypothesis.

    Runs strong detectability, decomposition, gain synthesis and error
    dynamics for each mode.  Returns ``(bank, excluded)``: ``bank`` maps a
    mode id to its ``(mode, decomposition, gains, error dynamics)`` tuple,
    ``excluded`` maps the id of every mode left out to the reason.

    The modes that share their matrix shapes go through each stage
    together, in chunks of at most about :data:`GROUP_BYTES`, with one
    stacked LAPACK or matmul call per stage where
    :func:`~smio.model.check_strong_detectability`,
    :func:`decompose_mode`, :func:`synthesize_gains` and
    :func:`error_dynamics` would make one per mode.  Each mode gets the
    matrices, floats, exclusion reason and warning those functions give
    it, and both dicts and the warnings follow the order of ``modes``.
    """
    groups: dict[tuple, list[int]] = {}
    for i, mode in enumerate(modes):
        groups.setdefault((mode.Gq.shape, mode.Hq.shape), []).append(i)
    n, ell = model.n, model.l
    size = max(1, GROUP_BYTES // max(1, 16 * n * n * (n + 2 * ell) + 8 * ell * ell))
    built: list = [None] * len(modes)
    for members in groups.values():
        for start in range(0, len(members), size):
            chunk = members[start : start + size]
            for i, result in zip(chunk, _build_group(model, [modes[i] for i in chunk])):
                built[i] = result
    bank: dict[int, tuple] = {}
    excluded: dict[int, str] = {}
    for mode, (entry, warning) in zip(modes, built):
        if warning is not None:
            warnings.warn(warning[1], warning[0], stacklevel=1)
        if isinstance(entry, str):
            excluded[mode.id] = entry
        else:
            bank[mode.id] = entry
    return bank, excluded


def _build_group(model: SystemModel, modes) -> list[tuple]:
    """Each mode's ``(bank entry or exclusion reason, (warning class,
    message) or None)``, for modes with one shape of ``Gq`` and ``Hq``, a
    group of one rank p_H at a time.  Detectability takes the frame of
    ``Hq``'s SVD as LAPACK returns it, as the single-hypothesis check
    does (the sign-fixed frame can move invariant zeros in their last
    bits); the decomposition fixes the signs."""
    out: list = [None] * len(modes)
    for group in _rank_groups(modes):
        undetectable = {}
        zeros = _stacked_zeros(model.A, model.C, group.Gq, group.U, group.sv, group.Vt, group.p_H)
        for i, result in enumerate(zeros):
            detectable, message = _detectable(*result)
            if not detectable:
                warning = None if message is None else (DegenerateModeWarning, message)
                undetectable[i] = "not strongly detectable", warning
        decs, group = _decompose(model, _drop(group, undetectable, out))
        gains, group = _gains(model, group)
        dyns = _dynamics(model, group) if group.idx.size else {}
        for i, dec in decs.items():
            failure = dec if isinstance(dec, Exception) else gains[i]
            if isinstance(failure, Exception):
                out[i] = f"{type(failure).__name__}: {failure}", None
            else:
                dyn, message = dyns[i]
                warning = None if message is None else (ConservativeRadiusWarning, message)
                out[i] = (modes[i], dec, gains[i], dyn), warning
    return out
