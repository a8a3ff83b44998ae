"""Residuals, residual-norm thresholds, mode elimination, fusion, and
offline mode-distinguishability certificates.

Each mode observer emits a residual on its attack-free output directions.
When the hypothesis is correct, that residual is a fixed linear map of the
initial estimation error and the noise history, so its norm can never
exceed a computable threshold; a measured residual above the threshold
eliminates the hypothesis outright.  Two thresholds are maintained — a
vertex bound over the noise hypercube, taken at the first
:data:`K_INF_CUTOFF_DEFAULT` steps only, and a closed-form triangle bound
driven by the error dynamics — and their minimum is the operative test.
:meth:`ThresholdTracker.walk` runs that test over a run's steps.  A
run's cutoff and vertex budget are the fixed constants
:data:`K_INF_CUTOFF_DEFAULT` and :data:`ENUM_BUDGET_DEFAULT`; the
tracker's ``k_inf_cutoff`` and ``enum_budget`` parameters serve the
stateless wrappers and offline checks.  All block matrices come from one
shared incremental generator (:class:`ThresholdTracker`) so the stacked
map, the triangle bound, and their asymptotics can never drift apart:
:func:`tri_limit` reads the tracker's first two levels and its boundary
norms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .decomposition import ErrorDynamics, ModeDecomposition, _norm2, _stacked_norm2
from .model import SystemModel
from .observer import SetEstimate

__all__ = [
    "K_INF_CUTOFF_DEFAULT",
    "ENUM_BUDGET_DEFAULT",
    "StackedResidualModel",
    "GlobalEstimate",
    "PairRecord",
    "DetectabilityReport",
    "ThresholdTracker",
    "DivergenceError",
    "AllModesEliminatedError",
    "UnsupportedPairError",
    "residual",
    "residual_scale",
    "build_stacked",
    "threshold_inf",
    "threshold_tri",
    "tri_limit",
    "eta_t",
    "eliminate",
    "fuse",
    "detectability_report",
    "stacked_residual_general",
]


class DivergenceError(ValueError):
    """The asymptotic threshold does not exist because the error map is expansive."""


class AllModesEliminatedError(RuntimeError):
    """Every hypothesis was eliminated.

    The true mode can never trip its own threshold, so an empty survivor
    set means the configuration violates an assumption (wrong mode family,
    understated noise bounds, or inconsistent data) — it is reported as a
    fault, not as a conclusion.
    """


class UnsupportedPairError(ValueError):
    """A cross-mode computation was requested for modes whose residual dimensions differ."""


# The run's fixed threshold tuning (README "Performance" says why it is not an
# option): the last level with the enumerated threshold, and the most
# stacked-map columns whose sign vertices are enumerated exactly.
K_INF_CUTOFF_DEFAULT = 25
ENUM_BUDGET_DEFAULT = 16

# Sign vertices evaluated per block in threshold_inf: bounds the temporaries
# (block * (2c + r) floats) whatever the column count c.
_ENUM_CHUNK = 2048

# threshold_inf screens the vertices of maps with at least this many
# columns, and only while T (its margin's scale) lies in this range.
_SCREEN_MIN_COLS = 10
_SCREEN_T_MIN = 2.0**-900
_SCREEN_T_MAX = 2.0**900
_UNIT_ROUNDOFF = 2.0**-53


# --------------------------------------------------------------------- types


@dataclass(frozen=True, eq=False)
class StackedResidualModel:
    """The residual at level k as one linear map of the stacked uncertainty.

    ``Aq_k`` multiplies the column ``[e0 | w_0..w_{k-1} | v_0..v_k]`` and
    ``bounds`` holds the per-coordinate box radii of the enclosing
    hypercube (initial-error radius for the first n coordinates, then the
    process-noise bound for n*k, then the measurement-noise bound for
    l*(k+1)).
    """

    k: int
    n: int
    l: int
    Aq_k: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class GlobalEstimate:
    """Survivor set with the explicit union of per-mode balls (no hull collapse)."""

    active: tuple[int, ...]
    state_balls: tuple[SetEstimate, ...]
    input_balls: tuple[SetEstimate, ...]


@dataclass(frozen=True, eq=False)
class PairRecord:
    """Distinguishability data for one ordered mode pair."""

    q: int
    q_prime: int
    dimension_matched: bool
    sigma_min: float | None
    threshold_ratio: float | None
    condition_i: bool | None
    condition_ii: bool


@dataclass(frozen=True, eq=False)
class DetectabilityReport:
    """All ordered-pair records plus the two overall certificates.

    ``overall_condition_i`` certifies via the separation inequality on
    every (dimension-matched) pair; ``overall_condition_ii`` via pairwise
    distinct residual subspaces.  Self-pairs are reported but excluded
    from both verdicts.  ``note`` records the bound substitution used on
    the right-hand side of condition (i).
    """

    pairs: tuple[PairRecord, ...]
    overall_condition_i: bool
    overall_condition_ii: bool
    certified: bool
    note: str

    def to_dict(self) -> dict:
        """The report as nested dicts, its pairs a tuple of dicts."""
        return asdict(self)


# ----------------------------------------------------------------- residuals


# bench/layers.py hooks this; it can go only once the benchmark is mended (ROADMAP item 1).
def residual(dec: ModeDecomposition, xhat_star, u_k, y_k) -> np.ndarray:
    """r_k = T2 y_k - C2 xhat_star - D2 u_k on the attack-free output directions."""
    xhat_star = np.asarray(xhat_star, dtype=float).reshape(-1)
    u_k = np.asarray(u_k, dtype=float).reshape(-1)
    y_k = np.asarray(y_k, dtype=float).reshape(-1)
    return dec.T2 @ y_k - dec.C2 @ xhat_star - dec.D2 @ u_k


def residual_scale(dec: ModeDecomposition, xhat_star, u_k, y_k) -> float:
    """||T2 y_k|| + ||C2 xhat_star|| + ||D2 u_k|| for 1-D arrays: the size of
    the terms :func:`residual` subtracts, which bounds its rounding error.
    A term whose squares overflow gets its norm from :func:`_row_norms`."""
    terms = (dec.T2 @ y_k, dec.C2 @ xhat_star, dec.D2 @ u_k)
    with np.errstate(over="ignore"):
        norms = [np.linalg.norm(t) for t in terms]
    return float(sum(_row_norms(t[None])[0] if x == np.inf else x for t, x in zip(terms, norms)))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(X, axis=1)`` without a false overflow: a row of
    finite entries whose squares overflow, so that ``norm`` gives inf,
    gets its largest magnitude times the norm of the row divided by it,
    which is inf only when the norm itself is out of range.  Every other
    row keeps ``norm``'s float."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=1)
        big = np.isinf(norms)
        if big.any():
            big &= np.isfinite(X).all(axis=1)
            rows = X[big]
            top = np.abs(rows).max(axis=1)
            norms[big] = top * np.linalg.norm(rows / top[:, None], axis=1)
    return norms


# ------------------------------------------------------- incremental tracker


class ThresholdTracker:
    """Incrementally maintained residual-threshold state for one mode.

    The tracker keeps the 2-norms of the rows C2*Abar*Ae^j and of their
    products with Bew, Bev1 and Mv = Bev1 + Ae*Bev2, running sums of the Bew
    and Mv product norms, and the rows themselves for j up to
    ``k_inf_cutoff``, in one array grown a block at a time, from which
    :meth:`stacked` forms the products it needs.  None of this depends on
    the measurements, so levels are
    computed ahead of the current level ``k`` in blocks whose size doubles
    up to a fixed cap.  Within a block only the powers are stepped one
    level at a time; each family's products are one stacked matmul over
    the block, and its running sums one ``cumsum`` seeded with the previous
    total; the norms take one stacked 2-norm call per shape, the rows with
    their Bew products and the Bev1 with the Mv products.  Each of these
    gives the very floats of the one-level-at-a-time loop, at a fraction of
    its per-call cost.  A stable error map drives the rows to exact zeros (on
    the built-in plant from level 248 on); once a block ends in an all-zero
    row, every later level is zero too, because ``0 @ Ae`` is exactly 0 for
    a finite ``Ae``, so later blocks only append zero norms and repeat the
    running totals (and zero rows up to the cutoff), with no product and no
    2-norm call.

    :meth:`advance` gives one step's thresholds, with the enumerated one
    up to ``k_inf_cutoff``.  :meth:`walk` runs a mode's whole residual
    test: step by step up to the cutoff, and past it the steps of one
    block of levels at a time, from the expression (:meth:`_tri`) that
    :meth:`threshold_tri` evaluates.  The
    :func:`build_stacked` / :func:`threshold_tri` functions are thin
    stateless wrappers over a throwaway tracker, and :func:`tri_limit`
    reads the first two levels and the boundary norms of one, so there is
    exactly one definition of the blocks in the package.
    """

    # Largest block of levels computed at once; bounds the temporary stacks.
    _BLOCK_CAP = 256

    def __init__(
        self,
        errdyn: ErrorDynamics,
        dec: ModeDecomposition,
        eta_w: float = 0.0,
        eta_v: float = 0.0,
        delta_x0: float = 0.0,
        k_inf_cutoff: int = K_INF_CUTOFF_DEFAULT,
        enum_budget: int = ENUM_BUDGET_DEFAULT,
    ):
        self.eta_w = float(eta_w)
        self.eta_v = float(eta_v)
        self.delta_x0 = float(delta_x0)
        self.k_inf_cutoff = int(k_inf_cutoff)
        self.enum_budget = int(enum_budget)
        self.k = 0

        C2 = dec.C2
        self._Ae = errdyn.Ae
        self._Bew = errdyn.Bew
        self._Bev1 = errdyn.Bev1
        self._Mv = errdyn.Bev1 + errdyn.Ae @ errdyn.Bev2
        self._C2A = C2 @ errdyn.Abar
        self._n = errdyn.Abar.shape[0]
        self._l = dec.T2.shape[1]
        # k-independent boundary blocks
        self._w_last = C2 @ errdyn.Bew_star
        self._v0_at_k1 = C2 @ errdyn.Bev1_star
        self._v_prev = C2 @ (errdyn.Bev1_star + errdyn.Abar @ errdyn.Bev2)
        self._v_last = C2 @ errdyn.Bev2_star + dec.T2
        self._nw_last = _norm2(self._w_last)
        self._nv0_at_k1, self._nv_prev, self._nv_last = _stacked_norm2(
            np.stack((self._v0_at_k1, self._v_prev, self._v_last))
        ).tolist()
        # per-power state, one entry per computed level j (rows[j] =
        # C2 Abar Ae^j), ahead of k; the sums start with their values before
        # level 0, so entry k-1 of each norm list is step k's term
        self._block = 1  # size of the next block of levels
        self._last_row: np.ndarray | None = None
        self._rows = np.empty((0,) + self._C2A.shape)  # levels j <= k_inf_cutoff
        self._row_norm: list[float] = []
        self._cum_w: list[float] = [0.0]
        self._cum_mv: list[float] = [0.0, 0.0]
        self._bev1_norm: list[float] = [self._nv0_at_k1]
        self._zero_tail = False  # every level from the next block on is zero

    def extend(self, levels: int = 1) -> None:
        """Move ``levels`` steps ahead, growing the row family C2*Abar*Ae^j
        and its norm sums a block at a time as far as the new level needs,
        without evaluating any threshold."""
        self.k += max(int(levels), 0)
        while len(self._row_norm) < self.k:
            self._compute_block()

    def _compute_block(self) -> None:
        j0 = len(self._row_norm)
        size = self._block
        self._block = min(2 * size, self._BLOCK_CAP)
        # the levels j <= k_inf_cutoff also feed stacked(), which forms their
        # products from the kept rows: one array, grown by a copy of the
        # block's first rows, so that no block stays pinned
        keep = min(max(self.k_inf_cutoff + 1 - j0, 0), size)
        if self._zero_tail:
            self._zero_block(size, keep)
            return
        # the powers are sequential; np.dot gives row @ Ae's floats (the
        # same BLAS call) with less call overhead
        dot, Ae = np.dot, self._Ae
        rows = np.empty((size,) + self._C2A.shape)
        row = rows[0] = self._C2A if j0 == 0 else dot(self._last_row, Ae)
        for i in range(1, size):
            row = rows[i] = dot(row, Ae)
        self._last_row = row
        # an all-zero row has all-zero successors and products only when
        # the matrices it meets are finite (0 * inf is NaN)
        self._zero_tail = not row.any() and all(
            np.isfinite(M).all() for M in (Ae, self._Bew, self._Bev1, self._Mv)
        )
        # one product per family: a stacked matmul multiplies level by
        # level, as row @ B does
        wprod, bprod, mvprod = rows @ self._Bew, rows @ self._Bev1, rows @ self._Mv
        # one 2-norm call per shape: the r-by-n rows with their Bew products,
        # then the r-by-l Bev1 and Mv products
        row_w = _stacked_norm2(np.concatenate((rows, wprod)))
        bev1_mv = _stacked_norm2(np.concatenate((bprod, mvprod)))
        self._row_norm += row_w[:size].tolist()
        self._bev1_norm += bev1_mv[:size].tolist()
        for cum, norms in ((self._cum_w, row_w[size:]), (self._cum_mv, bev1_mv[size:])):
            # seeded with the previous total, cumsum adds left to right,
            # so every running sum is the float a Python loop would give
            cum += np.cumsum(np.concatenate(([cum[-1]], norms)))[1:].tolist()
        if keep:
            self._rows = np.concatenate((self._rows, rows[:keep]))

    def _zero_block(self, size: int, keep: int) -> None:
        """The next ``size`` levels after an all-zero row: every row and
        product is zero, so each norm is 0.0 and each running sum keeps its
        total, the floats the stepped block would give; the first ``keep``
        levels add zero rows."""
        self._row_norm += [0.0] * size
        self._bev1_norm += [0.0] * size
        self._cum_w += [self._cum_w[-1]] * size
        self._cum_mv += [self._cum_mv[-1]] * size
        if keep:
            self._rows = np.concatenate((self._rows, np.zeros((keep,) + self._C2A.shape)))

    def advance(self) -> tuple[float | None, float, float]:
        """Move to the next step and return (delta_inf, delta_tri, delta_hat)."""
        self.extend()
        dtri = self.threshold_tri()
        if self.k <= self.k_inf_cutoff:
            dinf = threshold_inf(self.stacked(), enum_budget=self.enum_budget)
            return dinf, dtri, min(dinf, dtri)
        return None, dtri, dtri

    def walk(self, r_norm: np.ndarray, scale, out: np.ndarray) -> int | None:
        """Test step k's residual norm ``r_norm[k]`` from the next step to
        the last and return the first step that eliminates the mode, or
        None.  Each step k up to it gets :meth:`advance`'s floats in
        ``out[k]``; ``out`` comes NaN-filled, and later rows stay NaN.

        Up to the cutoff the steps are advanced one at a time; past it, one
        pass takes the steps of every level computed so far (computing the
        next block when none is left), as one array of thresholds and one
        vectorised test.  Flagged steps are confirmed in order by
        :func:`eliminate` with ``scale(k)`` (:func:`residual_scale`), so at
        most one block of levels is computed past the eliminating step.
        """
        steps = len(r_norm) - 1
        while self.k < steps:
            first = self.k + 1
            if first <= self.k_inf_cutoff:
                out[first] = self.advance()
                flagged = [first] if _exceeds(r_norm[first], out[first, 2]) else []
            else:
                if first > len(self._row_norm):
                    self._compute_block()
                self.k = min(len(self._row_norm), steps)
                dtri = self._tri(*map(np.array, self._terms(first, self.k)))
                out[first : self.k + 1, 1] = out[first : self.k + 1, 2] = dtri
                flagged = first + np.flatnonzero(_exceeds(r_norm[first : self.k + 1], dtri))
            # a scale can only clear a flag: price it only then
            for k in flagged:
                if eliminate(r_norm[k], out[k, 2], scale(k)):
                    out[k + 1 : self.k + 1] = np.nan
                    self.k = int(k)
                    return self.k
        return None

    def threshold_tri(self) -> float:
        """Triangle threshold at the current level (k >= 1)."""
        k = self.k
        if k < 1:
            raise ValueError("tracker must be advanced before reading thresholds")
        return self._tri(*[terms[0] for terms in self._terms(k, k)])

    def _terms(self, first: int, last: int) -> list[list[float]]:
        """The five terms of :meth:`_tri` at each step k of ``first..last``,
        one list per term: entry k-1 of ``_row_norm``, ``_cum_w``,
        ``_bev1_norm`` and ``_cum_mv`` (the last three start with their
        values before level 0), and the ``v_prev`` norm, 0.0 at k = 1."""
        s = slice(first - 1, last)
        v_prev = [self._nv_prev] * (last - first + 1)
        if first == 1:
            v_prev[0] = 0.0
        return [self._row_norm[s], self._cum_w[s], self._bev1_norm[s], self._cum_mv[s], v_prev]

    def _tri(self, state, w_sum, v_first, mv_sum, v_prev):
        """The triangle threshold from one step's terms (:meth:`_terms`),
        or elementwise from arrays of them, in one order of operations; a
        0.0 term leaves a nonnegative float as it is."""
        w_term = w_sum + self._nw_last
        v_term = v_first + mv_sum + v_prev + self._nv_last
        return self.delta_x0 * state + self.eta_w * w_term + self.eta_v * v_term

    def stacked(self) -> StackedResidualModel:
        """Assemble the stacked residual map at the current level (k <= cutoff)."""
        k = self.k
        if k < 1:
            raise ValueError("tracker must be advanced before assembling the stacked map")
        if k > self.k_inf_cutoff:
            raise ValueError(
                f"stacked map not retained past k_inf_cutoff={self.k_inf_cutoff} (k={k})"
            )
        if k == 1:
            blocks = (self._rows[0], self._w_last, self._v0_at_k1, self._v_last)
        else:
            # levels k-2 down to 0; one stacked matmul per family multiplies
            # level by level, the floats of row @ B
            older = self._rows[k - 2 :: -1]
            w, b, mv = older @ self._Bew, older[:1] @ self._Bev1, older[1:] @ self._Mv
            blocks = (self._rows[k - 1], *w, self._w_last, *b, *mv, self._v_prev, self._v_last)
        n, l = self._n, self._l
        A = np.concatenate(blocks, axis=1)
        bounds = np.repeat((self.delta_x0, self.eta_w, self.eta_v), (n, n * k, l * (k + 1)))
        return StackedResidualModel(k=k, n=n, l=l, Aq_k=A, bounds=bounds)


# ---------------------------------------------------------------- thresholds


def build_stacked(
    errdyn: ErrorDynamics,
    dec: ModeDecomposition,
    k: int,
    delta_x0: float = 0.0,
    eta_w: float = 0.0,
    eta_v: float = 0.0,
) -> StackedResidualModel:
    """Stacked residual map at level k >= 1 (stateless convenience wrapper)."""
    k = int(k)
    if k < 1:
        raise ValueError("stacked residual map starts at k = 1")
    tracker = ThresholdTracker(
        errdyn, dec, eta_w=eta_w, eta_v=eta_v, delta_x0=delta_x0, k_inf_cutoff=k
    )
    tracker.extend(k)
    return tracker.stacked()


def threshold_inf(sm: StackedResidualModel, enum_budget: int = ENUM_BUDGET_DEFAULT) -> float:
    """Upper bound on max ||Aq_k t||_2 over the bounding hypercube.

    Exact for a single-row map (weighted absolute sum) and under exact
    vertex enumeration when the column count fits the budget; otherwise the
    row-wise relaxation ||abs(A) @ bounds||_2, which over-approximates the
    vertex maximum and therefore stays a sound elimination threshold.

    Enumeration covers the 2^(c-1) sign vertices of the c columns (column
    0's sign fixed, by symmetry); bit c-1 of a vertex index set means
    column c is negative.  :func:`_vertex_screen` screens every vertex at
    once, and only the vertices whose screened value g is within a margin
    W of the largest are evaluated, with the arithmetic of the full walk:
    the sign row, ``signs * b``, ``einsum`` and the row sum of squares, in
    blocks of ``_ENUM_CHUNK``.  ``einsum`` gives a vertex the same floats
    whichever vertices share its call, and a maximum is exact, so the
    result is the full walk's float bit for bit as long as the vertex that
    holds the walk's maximum F* is a candidate.

    Margin.  Let f be a vertex's exact squared value, y_r its exact row
    values, a_r = sum_c |A_rc b_c|, T = sum_r a_r^2 (so f <= T), u = 2^-53
    and gamma_n = n u / (1 - n u).  A sum of n terms, each a product
    rounded once or an exact one, is within gamma_n times the sum of the
    terms' magnitudes, in any order of summation (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 3.1).

    * Evaluation: a row value F_r sums c rounded products, so
      |F_r - y_r| <= gamma_c a_r and |F_r| <= (1 + gamma_c) a_r; F sums
      r rounded squares, and F_r^2 - y_r^2 = (F_r - y_r)(F_r + y_r), so
      |F - f| <= [gamma_c (2 + gamma_c) + gamma_r (1 + gamma_c)^2] T,
      about (2c + r) u T.
    * Screen: with P = (A * b).T rounded once and exact signs, an entry
      of ``lo`` (h low columns) or ``hi`` sums at most m = max(h, c - h)
      terms, so lo_r + hi_r is within gamma_m a_r of y_r and
      |lo_r| + |hi_r| <= (1 + gamma_m) a_r.  g's three terms are sums of
      r products, joined by two additions, and their magnitudes add up to
      at most sum_r (|lo_r| + |hi_r|)^2, so
      |g - f| <= [gamma_m (2 + gamma_m) + gamma_{r+2} (1 + gamma_m)^2] T,
      about (2m + r + 2) u T.

    Both are at most half of e = 4 (c + r + 4) u T (:func:`_screen_error`).
    Then every vertex has g <= F* + e and the one that holds F* has
    g >= F* - e, so a margin of 2e would keep it; W = 2 (e + e) leaves
    the other 2e for the rounding of T itself (relative (c + r + 1) u)
    and of max g - W (at most u (T + W)).  Ties (zero or repeated
    columns, integer data) only add candidates, never more than the full
    walk.

    Fallback: every vertex is a candidate when T is not finite (a NaN or
    infinite entry); when T < 2^-900, a floor kept far above the point
    where the absolute error of underflowing products (up to 2^-1075
    each, outside the gamma bounds) could approach u T; when T > 2^900,
    where g's terms could overflow; and below ``_SCREEN_MIN_COLS``
    columns, where the screen costs more than the vertices it skips.
    """
    A = sm.Aq_k
    b = sm.bounds
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return 0.0
    if rows == 1:
        return float(np.abs(A[0]) @ b)
    if cols <= enum_budget:
        count = 1 << (cols - 1)
        cand = None
        if cols >= _SCREEN_MIN_COLS:
            with np.errstate(over="ignore", invalid="ignore"):  # T decides
                P = (A * b).T
                a = np.abs(P).sum(axis=0)
                T = float(a @ a)
            if _SCREEN_T_MIN <= T <= _SCREEN_T_MAX:
                g = _vertex_screen(P)
                cand = np.flatnonzero(g >= g.max() - 4.0 * _screen_error(rows, cols, T))
        if cand is None:
            idx_all = np.arange(count, dtype=np.uint64)[:, None]
        else:
            idx_all = cand.astype(np.uint64)[:, None]
        shifts = np.arange(cols - 1, dtype=np.uint64)[None, :]
        best = np.float64(0.0)
        for start in range(0, idx_all.shape[0], _ENUM_CHUNK):
            idx = idx_all[start : start + _ENUM_CHUNK]
            signs = np.ones((idx.shape[0], cols))
            signs[:, 1:] = 1.0 - 2.0 * ((idx >> shifts) & np.uint64(1))
            verts = signs * b
            vals = np.einsum("rc,vc->vr", A, verts)
            best = np.maximum(best, np.max(np.sum(vals * vals, axis=1)))
        return float(np.sqrt(best))
    return float(np.linalg.norm(np.abs(A) @ b))


def _vertex_screen(P: np.ndarray) -> np.ndarray:
    """Screened squared value g of every sign vertex of P = (A * b).T,
    indexed as in :func:`threshold_inf`.  The signed sums of P's low rows
    (row 0 kept +) and of its high rows are tabulated as ``lo`` and ``hi``
    by one product each with a table of exact signs, and
    g = ||lo||^2 + ||hi||^2 + 2 hi.lo for every pair at once through one
    product ``hi @ lo.T``: the expansion of ||lo + hi||^2, within the error
    that :func:`threshold_inf` bounds."""
    cols = P.shape[0]
    half = (cols + 1) // 2
    bits = cols - half  # hi's sign bits; lo has half - 1 <= bits of them
    idx = np.arange(1 << bits)[:, None]
    signs = 1.0 - 2.0 * ((idx >> np.arange(bits)) & 1)
    lo = P[0] + signs[: 1 << (half - 1), : half - 1] @ P[1:half]
    hi = signs @ P[half:]
    g = hi @ lo.T
    g *= 2.0
    g += np.einsum("jr,jr->j", lo, lo)
    g += np.einsum("jr,jr->j", hi, hi)[:, None]
    return g.ravel()


def _screen_error(rows: int, cols: int, T: float) -> float:
    """The bound e = 4 (cols + rows + 4) u T, u = 2^-53, on how far the
    screened value g and the evaluated value F of a vertex can each be from
    its exact squared value (derived in :func:`threshold_inf`)."""
    return 4.0 * (cols + rows + 4) * _UNIT_ROUNDOFF * T


def threshold_tri(
    errdyn: ErrorDynamics,
    dec: ModeDecomposition,
    k: int,
    eta_w: float,
    eta_v: float,
    delta_x0: float,
) -> float:
    """Triangle threshold at level k >= 1 (stateless convenience wrapper)."""
    k = int(k)
    if k < 1:
        raise ValueError("triangle threshold starts at k = 1")
    tracker = ThresholdTracker(
        errdyn, dec, eta_w=eta_w, eta_v=eta_v, delta_x0=delta_x0, k_inf_cutoff=0
    )
    tracker.extend(k)
    return tracker.threshold_tri()


def tri_limit(errdyn: ErrorDynamics, dec: ModeDecomposition, eta_w: float, eta_v: float) -> float:
    """Closed-form limit of the triangle threshold as k grows (needs theta < 1).

    Geometric-series bound on the two norm sums; for scalar systems every
    norm is multiplicative and the value is the exact series limit.  Every
    norm it needs is one a tracker holds after its levels 0 and 1.
    """
    theta = errdyn.theta
    if theta >= 1.0:
        raise DivergenceError(
            f"triangle threshold has no finite limit: theta = ||Ae||_2 = {theta:.6f} >= 1"
        )
    t = ThresholdTracker(errdyn, dec, k_inf_cutoff=0)
    t.extend(2)
    s_w = t._cum_w[1] + t._row_norm[1] * errdyn.w_gain / (1.0 - theta)
    s_v = t._cum_mv[2] + t._row_norm[1] * _norm2(t._Mv) / (1.0 - theta)
    return eta_w * (t._nw_last + s_w) + eta_v * (s_v + t._nv_prev + t._nv_last)


def eta_t(k: int, n: int, l: int, delta_x0: float, eta_w: float, eta_v: float) -> float:
    """2-norm of any vertex of the level-k bounding hypercube."""
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return math.sqrt(
        n * delta_x0 * delta_x0 + k * n * eta_w * eta_w + (k + 1) * l * eta_v * eta_v
    )


# --------------------------------------------------------------- elimination


def eliminate(r_norm: float, delta_hat: float, scale: float = 0.0) -> bool:
    """True iff the measured residual norm strictly exceeds the threshold.

    A machine-noise guard keeps rounding dust from deciding: a mode whose
    residual map is identically zero — full attack absorption makes every
    stacked block vanish, so both the residual and its threshold are
    exactly zero in exact arithmetic — must not be rejected over a
    floating-point leftover.  That leftover grows with the terms the
    residual is computed from, so the guard is 1e-14 relative to the
    threshold and to ``scale``, the size of those terms
    (:func:`residual_scale`).  Any genuine crossing clears the guard by
    many orders of magnitude.
    """
    r_norm = float(r_norm)
    delta_hat = float(delta_hat)
    scale = float(scale)
    if r_norm < 0 or delta_hat < 0 or scale < 0:
        raise ValueError("residual norm, threshold and scale must be nonnegative")
    return _exceeds(r_norm, delta_hat, scale)


def _exceeds(r_norm, delta_hat, scale=0.0):
    """:func:`eliminate`'s test without its checks, elementwise on arrays."""
    return r_norm > delta_hat + 1e-14 * (1.0 + delta_hat + scale)


# bench/layers.py hooks this; it can go only once the benchmark is mended (ROADMAP item 1).
def fuse(active, estimates) -> GlobalEstimate:
    """Combine the surviving modes' balls into the global set estimate.

    ``active`` is an iterable of surviving mode ids, ``estimates`` a mapping
    from mode id to its ``(state_ball, input_ball)`` pair.  The union is
    kept as the explicit list of balls — no convex hull, no deduplication.
    An empty survivor set raises :class:`AllModesEliminatedError`.
    """
    ids = tuple(int(q) for q in active)
    if not ids:
        raise AllModesEliminatedError(
            "every mode hypothesis was eliminated; since the true mode cannot "
            "trip its own threshold, the configuration violates an assumption "
            "(mode family, noise bounds, or data consistency)"
        )
    state_balls = []
    input_balls = []
    for q in ids:
        xb, db = estimates[q]
        state_balls.append(xb)
        input_balls.append(db)
    return GlobalEstimate(
        active=ids, state_balls=tuple(state_balls), input_balls=tuple(input_balls)
    )


# ------------------------------------------------------------- detectability


def detectability_report(
    model: SystemModel, entries, R_x: float | None = None, R_y: float | None = None
) -> DetectabilityReport:
    """Offline mode-distinguishability certificates over all ordered pairs.

    ``entries`` is a sequence of ``(mode, decomposition, errdyn)`` triples.
    Condition (i) compares sigma_min of the pair's difference matrix W
    against the ratio built from the asymptotic triangle thresholds, with
    the output-rotation bound ``R_z = R_y * ||T2_q - T2_q'||_2`` standing in
    for the otherwise-undefined numerator constant (noted in the report);
    pairs whose residual dimensions differ have no W and no condition (i).
    It needs the trajectory bounds ``R_x``/``R_y``; leave them None to skip
    condition (i) entirely (sigma_min is still reported).  Condition (ii)
    asks for pairwise distinct residual subspaces (projector distance above
    1e-8; dimension-mismatched pairs are distinct outright) and needs no
    bounds.  Self-pairs are listed for completeness and ignored by both
    verdicts.

    Only condition (i) is the sufficient condition for residual-based
    elimination of every false mode.  It cannot hold when some error map
    has ``theta = ||Ae||_2 >= 1``: the triangle limit is then infinite, and
    so is every ratio that involves that mode.  The built-in benchmark is
    such a bank, and no false mode is eliminated there.  Condition (ii)
    alone does not imply residual-based elimination; whether the paper
    means (ii) to guarantee it is not settled here.
    """
    have_bounds = R_x is not None and R_y is not None
    if have_bounds:
        R_x = float(R_x)
        R_y = float(R_y)
    limits = {}
    for mode, dec, dyn in entries:
        try:
            limits[mode.id] = tri_limit(dyn, dec, model.eta_w, model.eta_v)
        except DivergenceError:
            limits[mode.id] = math.inf
    denom = math.sqrt(R_x * R_x + model.eta_v**2) if have_bounds else None
    pairs = []
    for mode_q, dec_q, _dyn_q in entries:
        for mode_p, dec_p, _dyn_p in entries:
            matched = dec_q.residual_dim == dec_p.residual_dim
            sigma_min = None
            ratio = None
            cond_i = None
            if matched:
                r = dec_q.residual_dim
                W = np.concatenate(
                    (
                        dec_q.C2 - dec_p.C2,
                        dec_q.T2 - dec_p.T2,
                        -np.eye(r),
                        np.eye(r),
                        dec_q.D2,
                        -dec_p.D2,
                    ),
                    axis=1,
                )
                sv = np.linalg.svd(W, compute_uv=False)
                sigma_min = float(sv[-1]) if sv.size else 0.0
                if have_bounds:
                    R_z = R_y * _norm2(dec_q.T2 - dec_p.T2)
                    num = limits[mode_q.id] + limits[mode_p.id] + R_z
                    ratio = num / denom if denom > 0 else math.inf
                    cond_i = sigma_min > ratio
            if matched:
                proj_gap = _norm2(dec_q.T2.T @ dec_q.T2 - dec_p.T2.T @ dec_p.T2)
                cond_ii = proj_gap > 1e-8
            else:
                cond_ii = True
            pairs.append(
                PairRecord(
                    q=mode_q.id,
                    q_prime=mode_p.id,
                    dimension_matched=matched,
                    sigma_min=sigma_min,
                    threshold_ratio=ratio,
                    condition_i=cond_i,
                    condition_ii=cond_ii,
                )
            )
    off_diag = [p for p in pairs if p.q != p.q_prime]
    overall_i = (
        have_bounds
        and bool(off_diag)
        and all(p.condition_i is True for p in off_diag)
    )
    overall_ii = bool(off_diag) and all(p.condition_ii for p in off_diag)
    if have_bounds:
        note = (
            "condition (i) numerator uses the output-rotation bound "
            "R_z = R_y * ||T2_q - T2_q'||_2"
        )
    else:
        note = "condition (i) not evaluated (trajectory bounds R_x/R_y not supplied)"
    return DetectabilityReport(
        pairs=tuple(pairs),
        overall_condition_i=overall_i,
        overall_condition_ii=overall_ii,
        certified=overall_i or overall_ii,
        note=note,
    )


# ------------------------------------------------- general stacked residual


def stacked_residual_general(
    dec_q: ModeDecomposition,
    errdyn_q: ErrorDynamics,
    dec_qstar: ModeDecomposition,
    model: SystemModel,
    k: int,
):
    """Stacked maps describing mode q's residual when the true mode is q*.

    Returns ``(T, B, D)`` with the exact identity

        r_q(k) = T @ [e0; w_0..w_{k-1}; v_0..v_k]
               + B @ [du_0; ...; du_k]
               + D @ [d_0; ...; d_k]

    where ``e0`` is the mode-q observer's initial error, ``du_j`` is the
    difference between the input driving the plant (mode q*'s) and the one
    fed to the q observer, and ``d_j`` is the true attack in mode q*'s
    channel convention.  The construction substitutes the true plant into
    the mode-q error recursion: attack and input mismatch enter exactly
    like process noise (through G*, B) and measurement noise (through H*,
    D), so T is the ordinary stacked map of mode q and B/D reuse its noise
    blocks.  With q = q* the attack map D vanishes identically.
    """
    if dec_q.residual_dim != dec_qstar.residual_dim:
        raise UnsupportedPairError(
            f"residual dimensions differ ({dec_q.residual_dim} vs {dec_qstar.residual_dim})"
        )
    k = int(k)
    if k < 1:
        raise ValueError("stacked residual maps start at k = 1")
    sm = build_stacked(errdyn_q, dec_q, k)
    T = sm.Aq_k
    n, l = sm.n, sm.l
    # reconstruct the true mode's attack matrices from its frame
    Gstar = dec_qstar.G1 @ dec_qstar.V1.T + dec_qstar.G2 @ dec_qstar.V2.T
    Hstar = dec_qstar.T1.T @ dec_qstar.Sigma @ dec_qstar.V1.T
    wblk = [T[:, n + j * n : n + (j + 1) * n] for j in range(k)]
    voff = n * (k + 1)
    vblk = [T[:, voff + j * l : voff + (j + 1) * l] for j in range(k + 1)]
    dblocks = [wblk[j] @ Gstar + vblk[j] @ Hstar for j in range(k)]
    dblocks.append(vblk[k] @ Hstar)
    bblocks = [wblk[j] @ model.B + vblk[j] @ model.D for j in range(k)]
    bblocks.append(vblk[k] @ model.D)
    return T, np.hstack(bblocks), np.hstack(dblocks)
