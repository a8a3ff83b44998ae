"""Checks of the program's outputs against computations made apart from it.

Every check returns a list of failure strings, each starting with the
check's name, so that a run can tell the one known fault from any other.
Nothing here compares against stored copies of earlier output: the
trajectory is checked against the model equations, the published balls
against the simulated truth, and the thresholds against bounds that every
box maximum must satisfy.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

REL = 1e-9
ABS = 1e-12


@dataclass
class ModeRows:
    """The CSV rows of one hypothesis, one entry per recorded step.

    Empty fields read as NaN; ``live`` marks the rows whose residual test
    ran at that step.
    """

    k: np.ndarray
    r_norm: np.ndarray
    delta_inf: np.ndarray
    delta_tri: np.ndarray
    delta_hat: np.ndarray
    eliminated: np.ndarray
    xhat: np.ndarray
    delta_x: np.ndarray
    delta_d: np.ndarray

    @property
    def live(self) -> np.ndarray:
        return ~np.isnan(self.delta_hat)


def _num(field: str) -> float:
    return float(field) if field else math.nan


def read_trace_csv(path) -> dict[int, ModeRows]:
    """Parse a trace CSV into per-hypothesis columns (fused rows skipped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = sum(1 for h in header if h.startswith("xhat_"))
        raw: dict[int, list[list[str]]] = {}
        for row in reader:
            if row[1] == "fused":
                continue
            raw.setdefault(int(row[1]), []).append(row)
    out = {}
    for q, rows in raw.items():
        cols = list(zip(*rows))
        num = [np.array([_num(v) for v in col]) for col in cols]
        out[q] = ModeRows(
            k=num[0].astype(int),
            r_norm=num[2],
            delta_inf=num[3],
            delta_tri=num[4],
            delta_hat=num[5],
            eliminated=num[6].astype(int),
            xhat=np.column_stack(num[7 : 7 + n]),
            delta_x=num[7 + n],
            delta_d=num[8 + n],
        )
    return out


# --------------------------------------------------------------- the plant


def attack_matrices(doc: dict):
    """(Gq, Hq) of the true hypothesis, selected from G and H by channel.

    Hypotheses are the size-rho channel subsets in lexicographic order,
    actuator channels before sensor channels, numbered from 1.
    """
    model, modes = doc["model"], doc["modes"]
    G = np.array(model["G"], dtype=float)
    H = np.array(model["H"], dtype=float)
    t_a, t_s, rho = modes["t_a"], modes["t_s"], modes["rho"]
    channels = list(itertools.combinations(range(t_a + t_s), rho))
    chosen = channels[doc["scenario"]["true_mode"] - 1]
    Gq = np.zeros((G.shape[0], rho))
    Hq = np.zeros((H.shape[0], rho))
    for col, c in enumerate(chosen):
        if c < t_a:
            Gq[:, col] = G[:, c]
        else:
            Hq[:, col] = H[:, c - t_a]
    return Gq, Hq


def attack_values(doc: dict) -> np.ndarray:
    """The true attack, (horizon+1, rho), from the documented formula.

    A sinusoid attack puts bias + amplitude*sin((0.28 + 0.06 j) k + 0.9 j)
    on channel j; no attack block or a ``zero`` one means no attack.
    """
    steps = doc["scenario"]["horizon"] + 1
    rho = doc["modes"]["rho"]
    attack = doc.get("attack") or {"kind": "zero"}
    if attack["kind"] == "zero" or rho == 0:
        return np.zeros((steps, rho))
    if attack["kind"] != "sinusoid":
        raise ValueError(f"unsupported attack kind {attack['kind']!r}")
    k = np.arange(steps)[:, None]
    j = np.arange(rho)[None, :]
    return attack["bias"] + attack["amplitude"] * np.sin((0.28 + 0.06 * j) * k + 0.9 * j)


def _within(value: float, bound: float, scale: float = 0.0) -> bool:
    return value <= bound * (1 + REL) + ABS * (1.0 + scale)


def check_trajectory(doc: dict, xs: np.ndarray, ys: np.ndarray) -> list[str]:
    """The simulated plant obeys its equations within the noise bounds."""
    m = doc["model"]
    A, B, C, D = (np.array(m[key], dtype=float) for key in "ABCD")
    Gq, Hq = attack_matrices(doc)
    d = attack_values(doc)
    steps = doc["scenario"]["horizon"] + 1
    n, ell = A.shape[0], C.shape[0]
    if xs.shape != (steps, n) or ys.shape != (steps, ell):
        return [f"trajectory: shapes {xs.shape} and {ys.shape}, expected ({steps}, {n}) and ({steps}, {ell})"]
    u = np.zeros(B.shape[1])
    fails = []
    x0_err = float(np.linalg.norm(xs[0]))
    if not _within(x0_err, m["delta_x0"]):
        fails.append(f"trajectory: ||x0 - xhat0|| = {x0_err:.6g} > delta_x0 = {m['delta_x0']}")
    for k in range(steps):
        pred_y = C @ xs[k] + D @ u + Hq @ d[k]
        v = float(np.linalg.norm(ys[k] - pred_y))
        if not _within(v, m["eta_v"], float(np.abs(ys[k]).max(initial=0.0))):
            fails.append(f"trajectory: ||v_{k}|| = {v:.6g} > eta_v = {m['eta_v']}")
            break
        if k + 1 < steps:
            pred_x = A @ xs[k] + B @ u + Gq @ d[k]
            w = float(np.linalg.norm(xs[k + 1] - pred_x))
            if not _within(w, m["eta_w"], float(np.abs(xs[k + 1]).max(initial=0.0))):
                fails.append(f"trajectory: ||w_{k}|| = {w:.6g} > eta_w = {m['eta_w']}")
                break
    return fails


# ------------------------------------------------------- true hypothesis


def check_true_mode(rows: dict[int, ModeRows], summary: dict, true_mode: int, horizon: int) -> list[str]:
    """The true hypothesis survives, passes its own test at every step, and
    the run ends without a fault."""
    fails = []
    if summary.get("fault") is not None:
        fails.append(f"summary_fault: {summary['fault']}")
    if summary.get("steps_recorded") != horizon:
        fails.append(f"summary_fault: {summary.get('steps_recorded')} of {horizon} steps recorded")
    if str(true_mode) in summary.get("excluded", {}):
        fails.append(f"true_mode_survives: excluded ({summary['excluded'][str(true_mode)]})")
    if summary.get("eliminated_at", {}).get(str(true_mode)) is not None:
        fails.append(f"true_mode_survives: eliminated at step {summary['eliminated_at'][str(true_mode)]}")
    if summary.get("containment_violations") != 0:
        fails.append(f"summary_containment: {summary.get('containment_violations')} violations reported")
    tm = rows.get(true_mode)
    if tm is None:
        return fails + ["true_mode_survives: no rows for the true hypothesis"]
    if tm.eliminated.any():
        fails.append(f"true_mode_survives: flagged eliminated at step {int(tm.k[tm.eliminated.argmax()])}")
    live = tm.live
    over = live & ~(tm.r_norm <= tm.delta_hat * (1 + REL) + ABS)
    if over.any():
        k = int(tm.k[over.argmax()])
        i = int(over.argmax())
        fails.append(f"residual_within_threshold: r_norm {tm.r_norm[i]:.6g} > delta_hat {tm.delta_hat[i]:.6g} at step {k}")
    return fails


def _ball_contains(point, center, radius) -> bool:
    dist = float(np.linalg.norm(np.asarray(point, dtype=float) - np.asarray(center, dtype=float)))
    return dist <= radius + 1e-9 * (1.0 + radius)


def check_balls(
    true_rows: ModeRows, xs: np.ndarray, d: np.ndarray, dhat: dict[int, np.ndarray]
) -> list[str]:
    """The true hypothesis's state ball (CSV centre and radius) holds x_k at
    every step; its input ball (radius from the CSV, centre ``dhat[k]``)
    holds the attack d_{k-1} at every step k >= 1.  A NaN radius holds
    nothing."""
    fails = []
    for i, k in enumerate(true_rows.k):
        if not _ball_contains(xs[k], true_rows.xhat[i], true_rows.delta_x[i]):
            fails.append(f"state_containment: x_{k} outside the ball of radius {true_rows.delta_x[i]:.6g}")
            break
    for i, k in enumerate(true_rows.k):
        if k == 0:
            continue
        if not _ball_contains(d[k - 1], dhat[k], true_rows.delta_d[i]):
            fails.append(f"input_containment: d_{k - 1} outside the ball of radius {true_rows.delta_d[i]:.6g}")
            break
    return fails


# -------------------------------------------------------------- thresholds


def box_bounds(n: int, ell: int, k: int, delta_x0: float, eta_w: float, eta_v: float) -> np.ndarray:
    """Per-coordinate radii of the level-k box [e0 | w_0..w_{k-1} | v_0..v_k]."""
    return np.concatenate([np.full(n, delta_x0), np.full(n * k, eta_w), np.full(ell * (k + 1), eta_v)])


def threshold_bracket(A: np.ndarray, b: np.ndarray):
    """(lower, upper, exact) for max ||A t|| over the box |t_i| <= b_i.

    The lower bound is the RMS of ||A t|| over the box vertices,
    ||A diag(b)||_F; the upper bound is ||b||_2 sigma_max(A), since every
    vertex has norm ||b||_2.  ``exact`` is the weighted absolute row sum
    for a one-row map and None otherwise.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.size == 0:
        return 0.0, 0.0, 0.0
    lower = float(np.linalg.norm(A * b[None, :]))
    upper = float(np.linalg.norm(b)) * float(np.linalg.svd(A, compute_uv=False)[0])
    exact = float(np.abs(A[0]) @ b) if A.shape[0] == 1 else None
    return lower, upper, exact


def check_thresholds(rows: ModeRows, brackets: dict[int, tuple], cutoff: int) -> list[str]:
    """Every enumerated threshold up to the cutoff lies in its bracket and
    is exact on one-row maps; past the cutoff there is none."""
    for i, k in enumerate(rows.k):
        if not rows.live[i]:
            continue
        dinf = rows.delta_inf[i]
        if k > cutoff:
            if not math.isnan(dinf):
                return [f"threshold_bracket: delta_inf present at step {k} past the cutoff {cutoff}"]
            continue
        lower, upper, exact = brackets[k]
        if not (lower * (1 - REL) - ABS <= dinf <= upper * (1 + REL) + ABS):
            return [f"threshold_bracket: delta_inf {dinf:.6g} outside [{lower:.6g}, {upper:.6g}] at step {k}"]
        if exact is not None and not abs(dinf - exact) <= 1e-10 * exact + ABS:
            return [f"threshold_bracket: delta_inf {dinf:.17g} != row sum {exact:.17g} at step {k}"]
    return []


# ------------------------------------------------------------------ others


def check_analyze(rc: int, report_text: str) -> list[str]:
    """``smio analyze`` exits 0 (certified) or 4 (not certified) and writes
    a parseable report that agrees with its exit code."""
    if rc not in (0, 4):
        return [f"analyze_exit: exit code {rc}"]
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"analyze_report: not JSON ({exc})"]
    if not isinstance(report.get("certified"), bool) or not isinstance(report.get("pairs"), list):
        return ["analyze_report: no boolean 'certified' or no 'pairs' list"]
    if report["certified"] != (rc == 0):
        return [f"analyze_report: certified={report['certified']} but exit code {rc}"]
    return []


def finite_log_radius(r: np.ndarray) -> np.ndarray:
    """log10(1 + r), with an overflowed or NaN radius read as +inf."""
    r = np.asarray(r, dtype=float)
    out = np.full(r.shape, math.inf)
    ok = np.isfinite(r)
    out[ok] = np.log10(1.0 + r[ok])
    return out


def classify(failures: list[str], allowed: frozenset) -> str:
    """``ok``, ``known`` (every failure is of an allowed check) or ``unexpected``."""
    if not failures:
        return "ok"
    names = {f.split(":", 1)[0] for f in failures}
    return "known" if names <= allowed else "unexpected"
