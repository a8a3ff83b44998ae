"""Independent reference implementations used as test oracles.

Everything in this file is deliberately written the slow, obvious way:
brute-force vertex enumeration (in floats, and exactly in rationals), fixed-point Riccati iteration, symbolic
invariant zeros, invariant zeros with one SVD per candidate eigenvalue, a direct (matrix_power) assembly of the stacked residual
map, a one-level-at-a-time replay of the threshold power sequence, the
estimation pipeline stepped one observer update at a time with a record
of each residual test, the cross-mode
re-based residual, the trace CSV formatted one row at a time, the plant
simulated one step and one noise row at a time, one observer's state
recursion stepped on its own, the radius recursion taken at every
step, and the observer bank built one hypothesis at a time.  The pipeline, the residual, the CSV writer, the observer recursion
and the radius recursion use ``smio`` (imported where they run): the
pipeline only its one-step functions, the residual its error type, the CSV
writer its header and row formats, the observer recursion the observer's
stages, and the radius recursion its one-step function.  Each was frozen before the library code it
checks was written or last rewritten; library code must agree with them,
never the other way around.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import sympy


def brute_force_vertex_max(A, bounds):
    """Exact max of ||A @ t||_2 over all sign vertices t_j = ±bounds_j.

    Exponential in len(bounds); guarded to 2**22 evaluations.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(bounds, dtype=float)
    N = b.size
    if A.shape[1] != N:
        raise ValueError("column/bound mismatch")
    if N > 22:
        raise ValueError("too many columns for brute force")
    if A.shape[0] == 0 or N == 0:
        return 0.0
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=N):
        t = b * np.array(signs)
        best = max(best, float(np.linalg.norm(A @ t)))
    return best


def vertex_values_one_shot(A, bounds):
    """Squared value ||A @ t||^2 of every sign vertex t (the first sign
    fixed, bit c-1 of the index set when column c is negative), every
    vertex in one array: the same per-vertex arithmetic as
    ``threshold_inf``'s evaluation, with no blocking and no screen."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(bounds, dtype=float)
    cols = b.size
    count = 1 << (cols - 1)
    idx = np.arange(count, dtype=np.uint64)[:, None]
    shifts = np.arange(cols - 1, dtype=np.uint64)[None, :]
    signs = np.ones((count, cols))
    signs[:, 1:] = 1.0 - 2.0 * ((idx >> shifts) & np.uint64(1))
    verts = signs * b
    vals = np.einsum("rc,vc->vr", A, verts)
    return np.sum(vals * vals, axis=1)


def vertex_max_one_shot(A, bounds):
    """max ||A @ t||_2 over the sign vertices with the first sign fixed,
    from :func:`vertex_values_one_shot`: the walk over every vertex that
    ``threshold_inf`` replaced by a screen and an evaluation of the few
    candidates.  It is the reference the screened walk must match bit for
    bit, NaN and inf included."""
    return float(np.sqrt(np.max(vertex_values_one_shot(A, bounds))))


def vertex_values_exact(A, bounds):
    """Exact squared value of every sign vertex, as ``Fraction`` objects
    indexed as in :func:`vertex_values_one_shot`, from the floats' exact
    values with no rounding anywhere."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(bounds, dtype=float)
    rows, cols = A.shape
    terms = [[Fraction(A[r, c]) * Fraction(b[c]) for r in range(rows)] for c in range(cols)]
    sums = [terms[0]]
    for c in range(1, cols):
        sums = [[y + t for y, t in zip(ys, terms[c])] for ys in sums] + [
            [y - t for y, t in zip(ys, terms[c])] for ys in sums
        ]
    return [sum(y * y for y in ys) for ys in sums]


def riccati_difference_gain(Abar, C2, tol=1e-13, max_iter=200000):
    """Steady-state innovation gain by iterating the Riccati difference
    equation with identity weights (no algebraic solver involved).

    Returns (P, K) with K = P C2^T (C2 P C2^T + I)^{-1}.
    """
    Abar = np.asarray(Abar, dtype=float)
    C2 = np.asarray(C2, dtype=float)
    n = Abar.shape[0]
    r = C2.shape[0]
    P = np.eye(n)
    for _ in range(max_iter):
        S = C2 @ P @ C2.T + np.eye(r)
        Pn = Abar @ P @ Abar.T - Abar @ P @ C2.T @ np.linalg.solve(S, C2 @ P @ Abar.T) + np.eye(n)
        if np.max(np.abs(Pn - P)) < tol * max(1.0, np.max(np.abs(Pn))):
            P = Pn
            break
        P = Pn
    else:
        raise RuntimeError("Riccati iteration did not converge")
    K = P @ C2.T @ np.linalg.inv(C2 @ P @ C2.T + np.eye(r))
    return P, K


def _to_rational_matrix(M):
    M = np.asarray(M, dtype=float)
    return sympy.Matrix([[sympy.Rational(float(x)) for x in row] for row in M])


def invariant_zeros_symbolic(A, G, C, H):
    """Invariant zeros of the system pencil [zI-A, -G; C, H] by exact
    rational arithmetic: normal rank from generic evaluations, then the
    roots of the gcd of all maximal non-vanishing minors.

    Returns a sorted list of complex zeros (possibly empty).  Raises
    ValueError for a degenerate pencil whose rank is below normal rank at
    every z (cannot happen when the normal-rank minors are nonzero
    polynomials, by construction).
    """
    z = sympy.Symbol("z")
    A = _to_rational_matrix(A)
    G = _to_rational_matrix(G) if np.asarray(G).size else sympy.zeros(A.rows, 0)
    C = _to_rational_matrix(C)
    H = _to_rational_matrix(H) if np.asarray(H).size else sympy.zeros(C.rows, 0)
    n = A.rows
    P = sympy.Matrix(sympy.BlockMatrix([[z * sympy.eye(n) - A, -G], [C, H]]))
    rows, cols = P.rows, P.cols

    samples = [sympy.Rational(3, 7), sympy.Rational(-13, 5), sympy.Rational(29, 11)]
    r0 = max(P.subs(z, s).rank() for s in samples)
    if r0 == 0:
        raise ValueError("zero pencil")

    minors = []
    for rsel in itertools.combinations(range(rows), r0):
        for csel in itertools.combinations(range(cols), r0):
            m = P[list(rsel), list(csel)].det(method="berkowitz")
            if m != 0:
                minors.append(sympy.Poly(m, z))
    if not minors:
        raise ValueError("degenerate pencil: all normal-rank minors vanish")
    g = minors[0]
    for m in minors[1:]:
        g = g.gcd(m)
        if g.degree() == 0:
            return []
    if g.degree() == 0:
        return []
    roots = sympy.Poly(g, z).nroots(n=30, maxsteps=200)
    out = sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag))
    return out


def invariant_zeros_per_eigenvalue(A, Gq, C, Hq):
    """``smio.model.invariant_zeros`` with one SVD per candidate eigenvalue:
    the same reduction (through the model's frame and rank helpers), then
    a loop that stacks ``Abar - z I`` over the extra rank-test rows for
    each eigenvalue ``z`` and tests that stack's smallest singular value.
    Returns ``(zeros, note)`` in the library's form."""
    from smio.model import _ZERO_TOL, _column_rank_deficient, _hq_frame, _rank_cutoff

    A, Gq, C, Hq = (np.asarray(M, dtype=float) for M in (A, Gq, C, Hq))
    n, rho = A.shape[0], Gq.shape[1]
    U, sv, Vt = np.linalg.svd(Hq, full_matrices=True)
    p_H = int(np.sum(sv > _rank_cutoff(Hq.shape, sv)))
    _, _, _, _, C1, C2, G1, G2 = _hq_frame(U, Vt, p_H, C, Gq)
    At = A - G1 @ (C1 / sv[:p_H, None]) if p_H else A.copy()
    if G2.shape[1]:
        Ug, sg, _ = np.linalg.svd(G2, full_matrices=False)
        r = int(np.sum(sg > _rank_cutoff(G2.shape, sg)))
        Ghat = Ug[:, :r]
    else:
        r = 0
        Ghat = np.zeros((n, 0))
    C2G = C2 @ Ghat
    if _column_rank_deficient(C2G)[0]:
        return None, (
            "residual outputs do not see the state-side attack range "
            "(C2*G2 is column-rank deficient); one-step absorption fails "
            "and the zero computation is unavailable"
        )
    M2 = np.linalg.pinv(C2G)
    Abar = (np.eye(n) - Ghat @ M2 @ C2) @ At
    extra = np.vstack([C2, (np.eye(C2.shape[0]) - C2G @ M2) @ C2 @ At])
    zeros = []
    for z in np.linalg.eigvals(Abar):
        stack = np.vstack([Abar - z * np.eye(n), extra])
        s_st = np.linalg.svd(stack, compute_uv=False)
        scale = max(1.0, float(s_st[0]) if s_st.size else 0.0)
        if s_st.size < n or s_st[-1] <= _ZERO_TOL * scale:
            zeros.append(complex(z))
    note = (
        f"one-step reduction: rank {p_H} output-visible attack part, "
        f"{rho - p_H - r} slack input direction(s) quotiented, "
        f"{len(zeros)} invariant zero(s) among {n} candidate eigenvalue(s)"
    )
    return zeros, note


def stacked_blocks_direct(C2, T2, Abar, Ae, Bw_star, Bv1_star, Bv2_star,
                          Bew, Bev1, Bev2, k):
    """Direct assembly of the stacked residual map for level k >= 1 using
    numpy.linalg.matrix_power, block by block, following the unrolled error
    recursion.  Column layout: [e0 | w_0..w_{k-1} | v_0..v_k].
    """
    C2 = np.atleast_2d(np.asarray(C2, dtype=float))
    T2 = np.atleast_2d(np.asarray(T2, dtype=float))
    mp = np.linalg.matrix_power
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        blocks = [C2 @ Abar, C2 @ Bw_star, C2 @ Bv1_star, C2 @ Bv2_star + T2]
        return np.hstack(blocks)
    state = C2 @ Abar @ mp(Ae, k - 1)
    wblocks = [C2 @ Abar @ mp(Ae, k - 2 - i) @ Bew for i in range(k - 1)]
    wblocks.append(C2 @ Bw_star)
    vblocks = [C2 @ Abar @ mp(Ae, k - 2) @ Bev1]
    for i in range(1, k - 1):
        vblocks.append(C2 @ Abar @ mp(Ae, k - 2 - i) @ (Bev1 + Ae @ Bev2))
    vblocks.append(C2 @ (Bv1_star + Abar @ Bev2))
    vblocks.append(C2 @ Bv2_star + T2)
    return np.hstack([state] + wblocks + vblocks)


def scalar_tri_series_limit(C2, T2, Abar, Ae, Bw_star, Bv1_star, Bv2_star,
                            Bew, Bev1, Bev2, eta_w, eta_v, terms=20000):
    """Numeric limit of the per-step triangle bound for 1x1 systems,
    obtained by summing the block-norm series directly (no closed form).
    """
    c2, t2 = float(np.squeeze(C2)), float(np.squeeze(T2))
    ab, ae = float(np.squeeze(Abar)), float(np.squeeze(Ae))
    bws, bv1s, bv2s = (float(np.squeeze(x)) for x in (Bw_star, Bv1_star, Bv2_star))
    bew, bev1, bev2 = (float(np.squeeze(x)) for x in (Bew, Bev1, Bev2))
    if abs(ae) >= 1:
        raise ValueError("series diverges")
    s_w = sum(abs(c2 * ab * ae ** j * bew) for j in range(terms))
    mv = bev1 + ae * bev2
    s_v = sum(abs(c2 * ab * ae ** j * mv) for j in range(terms))
    return (eta_w * (abs(c2 * bws) + s_w)
            + eta_v * (s_v + abs(c2 * (bv1s + ab * bev2)) + abs(c2 * bv2s + t2)))


def hypercube_vertex_norm(n, l, k, delta_x0, eta_w, eta_v):
    """2-norm of an explicitly constructed per-coordinate-bound vertex."""
    v = ([delta_x0] * n) + ([eta_w] * (n * k)) + ([eta_v] * (l * (k + 1)))
    return math.sqrt(sum(x * x for x in v))


def weighted_abs_row_sum(row, bounds):
    """Exact box maximum of |a . t| for a single row: sum |a_j| b_j."""
    return float(np.sum(np.abs(np.asarray(row, dtype=float)) * np.asarray(bounds, dtype=float)))


class PerLevelThresholds:
    """Triangle thresholds and stacked maps, one level per call of
    :meth:`advance`, the slow way: ``row = row @ Ae`` for each power, one
    2-D ``np.linalg.norm(M, 2)`` per block, and Python running sums.

    :meth:`advance` returns ``(A_k, bounds, delta_tri)`` for the next level
    k; ``A_k`` and ``bounds`` are None past ``k_inf_cutoff``.  Every
    product, sum and block is taken in the order the threshold definitions
    give, so a library that computes the same quantities in batches must
    match these values exactly, not approximately.
    """

    def __init__(self, C2, T2, Abar, Ae, Bw_star, Bv1_star, Bv2_star,
                 Bew, Bev1, Bev2, delta_x0, eta_w, eta_v, k_inf_cutoff):
        self.Ae, self.Bew, self.Bev1 = Ae, Bew, Bev1
        self.Mv = Bev1 + Ae @ Bev2
        self.C2A = C2 @ Abar
        self.n, self.l = Abar.shape[0], T2.shape[1]
        self.delta_x0, self.eta_w, self.eta_v = delta_x0, eta_w, eta_v
        self.k_inf_cutoff = k_inf_cutoff
        self.w_last = C2 @ Bw_star
        self.v0_at_k1 = C2 @ Bv1_star
        self.v_prev = C2 @ (Bv1_star + Abar @ Bev2)
        self.v_last = C2 @ Bv2_star + T2
        self.k = 0
        self.row = None
        self.rows, self.wprod, self.bprod, self.mvprod = [], [], [], []
        self.row_norm, self.bev1_norm, self.cum_w, self.cum_mv = [], [], [], []

    @staticmethod
    def norm2(M):
        return float(np.linalg.norm(M, 2)) if M.size else 0.0

    def advance(self):
        j = self.k
        self.row = self.C2A if j == 0 else self.row @ self.Ae
        wp, bp, mp = self.row @ self.Bew, self.row @ self.Bev1, self.row @ self.Mv
        self.rows.append(self.row)
        self.wprod.append(wp)
        self.bprod.append(bp)
        self.mvprod.append(mp)
        self.row_norm.append(self.norm2(self.row))
        self.bev1_norm.append(self.norm2(bp))
        self.cum_w.append((self.cum_w[-1] if self.cum_w else 0.0) + self.norm2(wp))
        self.cum_mv.append((self.cum_mv[-1] if self.cum_mv else 0.0) + self.norm2(mp))
        self.k = k = j + 1

        state_term = self.row_norm[k - 1]
        w_term = (self.cum_w[k - 2] if k >= 2 else 0.0) + self.norm2(self.w_last)
        if k == 1:
            v_term = self.norm2(self.v0_at_k1) + self.norm2(self.v_last)
        else:
            v_term = (
                self.bev1_norm[k - 2]
                + (self.cum_mv[k - 3] if k >= 3 else 0.0)
                + self.norm2(self.v_prev)
                + self.norm2(self.v_last)
            )
        delta_tri = self.delta_x0 * state_term + self.eta_w * w_term + self.eta_v * v_term
        if k > self.k_inf_cutoff:
            return None, None, delta_tri

        if k == 1:
            blocks = [self.rows[0], self.w_last, self.v0_at_k1, self.v_last]
        else:
            blocks = [self.rows[k - 1]]
            blocks += [self.wprod[k - 2 - i] for i in range(k - 1)]
            blocks += [self.w_last, self.bprod[k - 2]]
            blocks += [self.mvprod[k - 2 - i] for i in range(1, k - 1)]
            blocks += [self.v_prev, self.v_last]
        bounds = np.array(
            [self.delta_x0] * self.n
            + [self.eta_w] * (self.n * k)
            + [self.eta_v] * (self.l * (k + 1))
        )
        return np.hstack(blocks), bounds, delta_tri


@dataclass(frozen=True, eq=False)
class ResidualRecord:
    """One mode's residual test at one step, as :func:`stepwise_pipeline`
    records it."""

    mode_id: int
    k: int
    r: np.ndarray = field(repr=False)
    r_norm: float
    delta_inf: float | None
    delta_tri: float
    delta_hat: float
    eliminated: bool

    @classmethod
    def evaluate(cls, mode_id, k, r, delta_inf, delta_tri, scale=0.0) -> "ResidualRecord":
        """Test residual ``r`` with ``smio.modeguard.eliminate``; ``scale``
        is its."""
        from smio.modeguard import eliminate

        r = np.asarray(r, dtype=float).reshape(-1)
        r_norm = float(np.linalg.norm(r))
        delta_tri = float(delta_tri)
        delta_hat = delta_tri if delta_inf is None else min(float(delta_inf), delta_tri)
        return cls(
            mode_id=int(mode_id),
            k=int(k),
            r=r,
            r_norm=r_norm,
            delta_inf=None if delta_inf is None else float(delta_inf),
            delta_tri=delta_tri,
            delta_hat=delta_hat,
            eliminated=eliminate(r_norm, delta_hat, scale),
        )


def stepwise_pipeline(cfg):
    """The estimation pipeline as one loop over steps and surviving modes.

    Each step feeds every surviving observer through ``observer.step``,
    advances its threshold tracker, tests ``residual`` with ``eliminate``
    (pricing ``residual_scale`` only for a residual that fails the unscaled
    test), checks the true mode's balls, and fuses the survivors.  Returns
    the fields of a ``RunTrace`` that this loop produces: ``active_sets``,
    ``records``, ``snapshots`` and ``fused`` (one entry per step),
    ``eliminated_at``, ``excluded``, ``fault``, ``fault_step`` and
    ``containment_violations``.  It has no guard against non-finite data.
    """
    from smio.modeguard import ThresholdTracker, fuse, residual, residual_scale
    from smio.observer import init_observer, set_estimates, step
    from smio.sim import SimulationError, build_bank, simulate_plant

    model = cfg.model
    bank, excluded = build_bank(model, cfg.modes)
    if cfg.true_mode in excluded:
        raise SimulationError(f"true mode {cfg.true_mode} unusable: {excluded[cfg.true_mode]}")
    xs, ys = simulate_plant(cfg)
    u = cfg.inputs
    N = cfg.horizon
    rho = cfg.mode_by_id(cfg.true_mode).rho
    d_true = cfg.attack.values if cfg.attack is not None else np.zeros((N + 1, rho))
    xhat0 = cfg.xhat0 if cfg.xhat0 is not None else np.zeros(model.n)
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
    active = sorted(bank)
    active_sets, records, snapshots, fused = [], [], [], []
    last_record = {}
    eliminated_at = {q: None for q in bank}
    fault = fault_step = None
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
            if rec.eliminated:
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
    return SimpleNamespace(
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


def residual_conditioned(dec_q, dec_qstar, xhat_star_q, u_k, y_k):
    """The mode-q residual re-based on the true mode's attack-free directions.

    Subtracting this from ``modeguard.residual`` isolates the cross-mode
    output rotation: ``residual(...) - residual_conditioned(...)`` equals
    ``(T2_q - T2_qstar) @ y_k`` exactly.  Only defined when both modes have
    the same residual dimension.
    """
    from smio.modeguard import UnsupportedPairError

    if dec_q.residual_dim != dec_qstar.residual_dim:
        raise UnsupportedPairError(
            f"residual dimensions differ ({dec_q.residual_dim} vs {dec_qstar.residual_dim})"
        )
    xhat_star_q = np.asarray(xhat_star_q, dtype=float).reshape(-1)
    u_k = np.asarray(u_k, dtype=float).reshape(-1)
    y_k = np.asarray(y_k, dtype=float).reshape(-1)
    return dec_qstar.T2 @ y_k - dec_q.C2 @ xhat_star_q - dec_q.D2 @ u_k


def _row_format(live: bool, has_inf: bool, has_dd: bool, n: int) -> str:
    """One %-format for a mode row of the trace CSV; an empty field consumes
    its value with ``%.0s``."""
    num, empty = "%.17g", "%.0s"
    fields = ["%d", "%d"]
    fields += [num if live else empty, num if has_inf else empty]
    fields += [num if live else empty] * 2
    fields += ["%d"] + [num] * (n + 1) + [num if has_dd else empty, "%d"]
    return ",".join(fields) + "\r\n"


def row_by_row_trace_csv(trace, path):
    """The trace CSV of ``cli.write_trace_csv``, the whole trace at once
    and one ``%`` per row: each mode row's fields from one float table, its
    format picked by which fields it fills, and a fused row per step."""
    from smio.cli import trace_header

    n = trace.config.model.n
    steps, modes = trace.live.shape
    active = [len(a) for a in trace.active_sets]
    elim_at = np.array([trace.eliminated_at[q] or steps for q in trace.mode_ids])
    formats = [_row_format(bool(c & 4), bool(c & 2), bool(c & 1), n) for c in range(8)]
    fused = "%d,fused" + "," * (n + 8) + "%d\r\n"
    k = np.arange(steps)

    def column(values):
        values = np.asarray(values, dtype=float)
        return np.broadcast_to(values, (steps, modes))[:, :, None]

    table = np.concatenate(
        [
            column(k[:, None]),
            column(trace.mode_ids),
            column(trace.r_norm),
            column(trace.delta_inf),
            column(trace.delta_tri),
            column(trace.delta_hat),
            column(k[:, None] >= elim_at),
            trace.xhat,
            column(trace.delta_x),
            column(trace.delta_d),
            column(np.array(active)[:, None]),
        ],
        axis=2,
    ).tolist()
    has_inf = trace.live & (k <= trace.config.k_inf_cutoff)[:, None]
    key = (trace.live * 4 + has_inf * 2 + (k >= 1)[:, None]).tolist()
    lines = [",".join(trace_header(n)) + "\r\n"]
    for step, rows, codes in zip(k.tolist(), table, key):
        lines += [formats[codes[i]] % tuple(rows[i]) for i in range(modes)]
        lines.append(fused % (step, active[step]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _ball_row(g, eta, r):
    """The standard normal direction ``g`` taken to a uniform point of the
    closed 2-norm ball of radius ``eta`` with the uniform radius draw ``r``;
    a zero bound or a zero direction gives +0.0 entries."""
    nrm = float(np.linalg.norm(g))
    if eta == 0.0 or nrm == 0.0:
        return np.zeros(len(g))
    return (eta * r ** (1.0 / len(g)) / nrm) * g


def _sample_bounded_stepwise(dim, eta, rng):
    """A uniform draw from the closed 2-norm ball of radius ``eta``, one
    ``standard_normal(dim)`` and one ``uniform()`` per call."""
    dim = int(dim)
    eta = float(eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if dim == 0:
        return np.zeros(0)
    g = rng.standard_normal(dim)
    return _ball_row(g, eta, rng.uniform())


def stepwise_noise(model, N, rng):
    """``(ws, vs)`` drawn one row at a time: every measurement direction
    (v_0 .. v_N, one ``standard_normal(l)`` each), then every process
    direction (w_0 .. w_{N-1}, one ``standard_normal(n)`` each), then one
    ``random()`` radius per row in the same order, v rows first.  A ball of
    dimension 0 draws neither."""
    n, l = model.n, model.l
    vs = np.zeros((N + 1, l))
    ws = np.zeros((N, n))
    v_dirs = [rng.standard_normal(l) for _ in range(N + 1)] if l else []
    w_dirs = [rng.standard_normal(n) for _ in range(N)] if n else []
    for k, g in enumerate(v_dirs):
        vs[k] = _ball_row(g, float(model.eta_v), rng.random())
    for k, g in enumerate(w_dirs):
        ws[k] = _ball_row(g, float(model.eta_w), rng.random())
    return ws, vs


def stepwise_simulate(cfg):
    """The plant of ``cfg`` under its true mode, one step at a time, with
    the noise of :func:`stepwise_noise`: x_{k+1} = A x_k + ((B u_k + Gq d_k)
    + w_k) and y_k = ((C x_k + D u_k) + Hq d_k) + v_k.  Returns
    ``(states, outputs)``; the rows after the first non-finite state or
    output are NaN."""
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
    x0 = cfg.x0 if cfg.x0 is not None else xhat0 + _sample_bounded_stepwise(n, model.delta_x0, rng_init)
    ws, vs = stepwise_noise(model, N, rng_noise)
    xy = np.full((N + 1, n + l), np.nan)
    xs, ys = xy[:, :n], xy[:, n:]
    xs[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N + 1):
            dk = d[k] if mode_star.rho else np.zeros(0)
            ys[k] = model.C @ xs[k] + model.D @ u[k] + mode_star.Hq @ dk + vs[k]
            if k == N or not np.isfinite(xy[k]).all():
                break
            xs[k + 1] = model.A @ xs[k] + ((model.B @ u[k] + mode_star.Gq @ dk) + ws[k])
    return np.ascontiguousarray(xs), np.ascontiguousarray(ys)


def per_mode_xhat(dec, gains, errdyn, model, xhat0, u, y):
    """One observer's corrected estimates at steps 0..N over the data rows
    ``u[0..N]``, ``y[0..N]``: the data drive of every step from the
    observer's stages with a zero previous estimate, then ``xhat_k = Ae
    xhat_{k-1} + s_k`` stepped for this observer alone."""
    from smio.observer import _stages

    steps = y.shape[0]
    data = (u[:-1], y[:-1], u[1:], y[1:])
    drive = _stages(dec, gains, model, np.zeros((steps - 1, model.n)), *data)[2]
    xkk = np.empty((steps, model.n))
    xkk[0] = np.asarray(xhat0, dtype=float).reshape(-1)
    Ae = errdyn.Ae
    for k in range(1, steps):
        xkk[k] = Ae @ xkk[k - 1] + drive[k - 1]
    return xkk


def radius_recursion(errdyn, model, steps):
    """``(delta_x, delta_d)`` at steps 0..steps, every step of the radius
    recursion taken; ``delta_d[0]`` is NaN."""
    from smio.observer import _radii

    delta_x = np.empty(steps + 1)
    delta_d = np.empty(steps + 1)
    dx = delta_x[0] = float(model.delta_x0)
    delta_d[0] = np.nan
    for k in range(1, steps + 1):
        dx, delta_d[k] = _radii(errdyn, model.eta_w, model.eta_v, dx)
        delta_x[k] = dx
    return delta_x, delta_d


# ------------------------------------------------- per-hypothesis bank build
#
# The observer bank built one hypothesis at a time, as smio built it before
# it took same-shape hypotheses through each stage in stacked calls:
# detectability, decomposition, gains and error dynamics, each with its own
# 2-D LAPACK calls.  Only smio's result types, exceptions and warning
# classes are used; every computation is a frozen copy.


def _ph_rank_cutoff(shape, sv):
    return max(shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)


def _ph_column_rank_deficient(M):
    if not M.shape[1]:
        return False, np.zeros(0)
    sv = np.linalg.svd(M, compute_uv=False)
    return bool(sv.size < M.shape[1] or sv[-1] <= _ph_rank_cutoff(M.shape, sv)), sv


def _ph_hq_frame(U, Vt, p_H, C, Gq):
    T1, T2 = U[:, :p_H].T, U[:, p_H:].T
    V1, V2 = Vt[:p_H].T, Vt[p_H:].T
    return T1, T2, V1, V2, T1 @ C, T2 @ C, Gq @ V1, Gq @ V2


def _ph_norm2(M):
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


def _ph_stacked_norm2(stack):
    nonzero = stack.any(axis=(1, 2))
    if nonzero.all():
        return np.linalg.svd(stack, compute_uv=False).max(axis=1)
    norms = np.zeros(stack.shape[0])
    if nonzero.any():
        norms[nonzero] = np.linalg.svd(stack[nonzero], compute_uv=False).max(axis=1)
    return norms


def _ph_spectral_radius(M):
    return float(np.max(np.abs(np.linalg.eigvals(M)))) if M.size else 0.0


def per_hypothesis_invariant_zeros(A, Gq, C, Hq):
    """``smio.model.invariant_zeros`` for one hypothesis with 2-D calls."""
    from smio.model import _ZERO_TOL

    A, Gq, C, Hq = (np.asarray(M, dtype=float) for M in (A, Gq, C, Hq))
    n = A.shape[0]
    rho = Gq.shape[1]
    U, sv, Vt = np.linalg.svd(Hq, full_matrices=True)
    p_H = int(np.sum(sv > _ph_rank_cutoff(Hq.shape, sv)))
    _, _, _, _, C1, C2, G1, G2 = _ph_hq_frame(U, Vt, p_H, C, Gq)
    At = A - G1 @ (C1 / sv[:p_H, None]) if p_H else A.copy()
    if G2.shape[1]:
        Ug, sg, _ = np.linalg.svd(G2, full_matrices=False)
        r = int(np.sum(sg > _ph_rank_cutoff(G2.shape, sg)))
        Ghat = Ug[:, :r]
    else:
        r = 0
        Ghat = np.zeros((n, 0))
    C2G = C2 @ Ghat
    if _ph_column_rank_deficient(C2G)[0]:
        return None, (
            "residual outputs do not see the state-side attack range "
            "(C2*G2 is column-rank deficient); one-step absorption fails "
            "and the zero computation is unavailable"
        )
    M2 = np.linalg.pinv(C2G)
    Abar = (np.eye(n) - Ghat @ M2 @ C2) @ At
    extra = np.vstack([C2, (np.eye(C2.shape[0]) - C2G @ M2) @ C2 @ At])
    eigs = np.linalg.eigvals(Abar)
    stacks = np.empty((eigs.size, n + extra.shape[0], n), dtype=eigs.dtype)
    stacks[:, :n] = Abar - eigs[:, None, None] * np.eye(n)
    stacks[:, n:] = extra
    zeros = []
    if eigs.size:
        s = np.linalg.svd(stacks, compute_uv=False)
        hits = s[:, -1] <= _ZERO_TOL * np.fmax(1.0, s[:, 0])
        zeros = [complex(z) for z in eigs[hits]]
    note = (
        f"one-step reduction: rank {p_H} output-visible attack part, "
        f"{rho - p_H - r} slack input direction(s) quotiented, "
        f"{len(zeros)} invariant zero(s) among {n} candidate eigenvalue(s)"
    )
    return zeros, note


def per_hypothesis_detectable(A, Gq, C, Hq):
    """``smio.model.check_strong_detectability`` for one hypothesis."""
    import warnings

    from smio.model import DegenerateModeWarning

    zeros, note = per_hypothesis_invariant_zeros(A, Gq, C, Hq)
    if zeros is None:
        warnings.warn(
            "strong-detectability check degraded to conservative False: " + note,
            DegenerateModeWarning,
            stacklevel=2,
        )
        return False
    return all(abs(z) < 1.0 for z in zeros)


def per_hypothesis_decompose(model, mode):
    """``smio.decomposition.decompose_mode`` for one hypothesis."""
    from smio.decomposition import ModeDecomposition, RankAmbiguityError

    U, sv, Vt = np.linalg.svd(mode.Hq, full_matrices=True)
    cutoff = _ph_rank_cutoff(mode.Hq.shape, sv)
    ambiguous = [s for s in sv if cutoff / 1e3 < s <= cutoff * 1e3]
    if ambiguous:
        raise RankAmbiguityError(
            "numerical rank of Hq is ambiguous: singular value(s) "
            + ", ".join(f"{s:.6e}" for s in ambiguous)
            + f" lie within a factor 1e3 of the cutoff {cutoff:.6e}"
        )
    p_H = int(np.sum(sv > cutoff))
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
    T1, T2, V1, V2, C1, C2, G1, G2 = _ph_hq_frame(U, Vt, p_H, model.C, mode.Gq)
    return ModeDecomposition(
        p_H=p_H, T1=T1, T2=T2, Sigma=np.diag(sv[:p_H]), V1=V1, V2=V2,
        C1=C1, C2=C2, D1=T1 @ model.D, D2=T2 @ model.D, G1=G1, G2=G2,
    )


def per_hypothesis_abar(dec, M1, M2, model):
    """``(Phi, At, Abar)`` of one hypothesis."""
    Phi = np.eye(model.n) - dec.G2 @ M2 @ dec.C2
    At = model.A - dec.G1 @ M1 @ dec.C1
    return Phi, At, Phi @ At


def per_hypothesis_m1_m2(dec):
    """The inversion gains ``(M1, M2)`` of one hypothesis."""
    from smio.decomposition import InfeasibleModeError

    diag = np.diag(dec.Sigma) if dec.p_H else np.zeros(0)
    M1 = np.diag(1.0 / diag) if dec.p_H else np.zeros((0, 0))
    C2G2 = dec.C2 @ dec.G2
    deficient, sv = _ph_column_rank_deficient(C2G2)
    if deficient:
        raise InfeasibleModeError(
            "C2*G2 is column-rank deficient "
            f"(shape {C2G2.shape}, singular values {np.array2string(sv, precision=3)}); "
            "the state-side attack component cannot be recovered from the residual outputs"
        )
    return M1, np.linalg.pinv(C2G2)


def per_hypothesis_filter_dare(Abar, C2):
    """The filter Riccati solution of one hypothesis by doubling."""
    from smio.decomposition import SynthesisError

    n = Abar.shape[0]
    I = np.eye(n)
    A, G, H = Abar.T, C2.T @ C2, I
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            try:
                W = np.linalg.solve(I + G @ H, np.concatenate((A, G), axis=1))
            except np.linalg.LinAlgError as exc:
                raise SynthesisError(f"Riccati synthesis failed: {exc}") from exc
            WA, WG = W[:, :n], W[:, n:]
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


def per_hypothesis_gains(dec, model, override=None):
    """``smio.decomposition.synthesize_gains`` for one hypothesis."""
    from smio.decomposition import ObserverGains, SynthesisError

    M1, M2 = per_hypothesis_m1_m2(dec)
    Abar = per_hypothesis_abar(dec, M1, M2, model)[2]
    n = model.n
    rdim = dec.C2.shape[0]
    if override is not None:
        Lt = np.asarray(override, dtype=float)
        if Lt.shape != (n, rdim):
            raise SynthesisError(f"override gain must have shape ({n}, {rdim}); got {Lt.shape}")
        failure = "override gain rejected: closed-loop spectral radius {:.6f} >= 1"
    elif rdim == 0:
        Lt = np.zeros((n, 0))
        failure = (
            "mode has no attack-free output direction and its open error map "
            "is unstable (spectral radius {:.6f})"
        )
    else:
        P = per_hypothesis_filter_dare(Abar, dec.C2)
        S = dec.C2 @ P @ dec.C2.T + np.eye(rdim)
        Lt = P @ dec.C2.T @ np.linalg.inv(S)
        failure = "Riccati gain failed to stabilize: spectral radius {:.6f} >= 1"
    radius = _ph_spectral_radius((np.eye(n) - Lt @ dec.C2) @ Abar)
    if radius >= 1.0:
        raise SynthesisError(failure.format(radius), radius=radius)
    return ObserverGains(M1=M1, M2=M2, Ltilde=Lt)


def per_hypothesis_error_dynamics(dec, gains, model):
    """``smio.decomposition.error_dynamics`` for one hypothesis."""
    import warnings

    from smio.decomposition import ConservativeRadiusWarning, ErrorDynamics

    Phi, At, Abar = per_hypothesis_abar(dec, gains.M1, gains.M2, model)
    IL = np.eye(model.n) - gains.Ltilde @ dec.C2
    Ae = IL @ Abar
    G1M1T1 = dec.G1 @ gains.M1 @ dec.T1
    Bev1_star = -Phi @ G1M1T1
    Bev2_star = -dec.G2 @ gains.M2 @ dec.T2
    Bew = IL @ Phi
    Bev1 = IL @ Bev1_star
    Bev2 = IL @ Bev2_star - gains.Ltilde @ dec.T2
    theta, a_pred, w_gain = _ph_stacked_norm2(np.stack((Ae, At, Bew))).tolist()
    v_pred, bev1, bev2 = _ph_stacked_norm2(np.stack((G1M1T1, Bev1, Bev2))).tolist()
    dyn = ErrorDynamics(
        Abar=Abar, Ae=Ae, Bew_star=Phi, Bev1_star=Bev1_star, Bev2_star=Bev2_star,
        Bew=Bew, Bev1=Bev1, Bev2=Bev2, theta=theta, a_pred=a_pred, v_pred=v_pred,
        w_gain=w_gain, v_gain=bev1 + bev2,
        v1m1=_ph_norm2(dec.V1 @ gains.M1), v2m2=_ph_norm2(dec.V2 @ gains.M2),
        c1=_ph_norm2(dec.C1), c2=_ph_norm2(dec.C2),
    )
    if dyn.theta >= 1.0:
        radius = _ph_spectral_radius(dyn.Ae)
        if radius < 1.0:
            warnings.warn(
                f"error map is stable (spectral radius {radius:.4f}) but "
                f"norm-expansive (theta = {dyn.theta:.4f} >= 1): the per-step error "
                "radius will grow transiently and its recursion never contracts",
                ConservativeRadiusWarning,
                stacklevel=2,
            )
    return dyn


def per_hypothesis_bank(model, modes):
    """``smio.decomposition.build_bank``'s ``(bank, excluded)``, one
    hypothesis at a time through the stages above."""
    from smio.decomposition import DecompositionError

    bank, excluded = {}, {}
    for mode in modes:
        if not per_hypothesis_detectable(model.A, mode.Gq, model.C, mode.Hq):
            excluded[mode.id] = "not strongly detectable"
            continue
        try:
            dec = per_hypothesis_decompose(model, mode)
            gains = per_hypothesis_gains(dec, model)
            dyn = per_hypothesis_error_dynamics(dec, gains, model)
        except DecompositionError as exc:
            excluded[mode.id] = f"{type(exc).__name__}: {exc}"
            continue
        bank[mode.id] = (mode, dec, gains, dyn)
    return bank, excluded
