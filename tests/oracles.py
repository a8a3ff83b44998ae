"""Independent reference implementations used as test oracles.

Everything in this file is deliberately written the slow, obvious way:
brute-force vertex enumeration, fixed-point Riccati iteration, symbolic
invariant zeros, a direct (matrix_power) assembly of the stacked residual
map, a one-level-at-a-time replay of the threshold power sequence, the
estimation pipeline stepped one observer update at a time with a record
of each residual test, the cross-mode
re-based residual, the trace CSV formatted one row at a time, the plant
simulated one step and one noise draw at a time, one observer's state
recursion stepped on its own, and the radius recursion taken at every
step.  The pipeline, the residual, the CSV writer, the observer recursion
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


def vertex_max_one_shot(A, bounds):
    """max ||A @ t||_2 over the sign vertices with the first sign fixed,
    every vertex in one array: the same per-vertex arithmetic as
    ``threshold_inf``'s enumeration branch, with no blocking."""
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
    return float(np.sqrt(np.max(np.sum(vals * vals, axis=1))))


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


def row_by_row_trace_csv(trace, path):
    """The trace CSV of ``cli.write_trace_csv``, the whole trace at once
    and one ``%`` per row: each mode row's fields from one float table, its
    format picked by which fields it fills, and a fused row per step."""
    from smio.cli import _row_format, trace_header

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
    nrm = float(np.linalg.norm(g))
    if eta == 0.0 or nrm == 0.0:
        rng.uniform()
        return np.zeros(dim)
    return (eta * rng.uniform() ** (1.0 / dim) / nrm) * g


def stepwise_simulate(cfg):
    """The plant of ``cfg`` under its true mode, one step at a time, with
    each noise row drawn as it is needed (v_0, w_0, v_1, ..., v_N).
    Returns ``(states, outputs)``; the rows after the first non-finite state
    or output are NaN."""
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
    ws = np.zeros((N, n))
    vs = np.zeros((N + 1, l))
    for k in range(N + 1):
        vs[k] = _sample_bounded_stepwise(l, model.eta_v, rng_noise)
        if k < N:
            ws[k] = _sample_bounded_stepwise(n, model.eta_w, rng_noise)
    xy = np.full((N + 1, n + l), np.nan)
    xs, ys = xy[:, :n], xy[:, n:]
    xs[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N + 1):
            dk = d[k] if mode_star.rho else np.zeros(0)
            ys[k] = model.C @ xs[k] + model.D @ u[k] + mode_star.Hq @ dk + vs[k]
            if k == N or not np.isfinite(xy[k]).all():
                break
            xs[k + 1] = model.A @ xs[k] + model.B @ u[k] + mode_star.Gq @ dk + ws[k]
    return np.ascontiguousarray(xs), np.ascontiguousarray(ys)


def per_mode_xhat(dec, gains, errdyn, model, xhat0, u, y):
    """One observer's corrected estimates at steps 0..N over the data rows
    ``u[0..N]``, ``y[0..N]``: the data drive of every step from the
    observer's stages with a zero previous estimate, then ``xhat_k = Ae
    xhat_{k-1} + s_k`` stepped for this observer alone."""
    from smio.observer import _stages

    steps = y.shape[0]
    data = (u[:-1], y[:-1], u[1:], y[1:])
    drive = _stages(dec, gains, model, np.zeros((steps - 1, model.n)), *data)[3]
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
