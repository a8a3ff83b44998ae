"""The benchmark's inputs: scenario configs and the operations of one pass.

Every workload is a list of scenario config files, written from the seed
into a work directory, and a fixed list of operations that one pass runs
through the ``smio`` command line.  A run repeats whole passes, so each
run attempts the same operations in the same proportions.

* ``builtin-h1000``: the built-in five-hypothesis plant under its sinusoid
  attack at H=1000, each hypothesis in turn the true mode.  The seed picks
  the five noise seeds.
* ``random-campaign``: forty small random plants from a generator with a
  fixed seed, so that every seed measures the same plants; the seed picks
  each plant's noise seed.  With plants drawn from the seed, the medians of
  thresholds and radii over forty plants move by tens of percent between
  seeds, which no useful bound could hold.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BUILTIN_HORIZON = 1000
CAMPAIGN_SEED = 20200118
CAMPAIGN_PLANTS = 40
CAMPAIGN_HORIZON = 100
# trajectory bounds for the condition (i) certificate of `smio analyze`
ANALYZE_RX = 10.0
ANALYZE_RY = 10.0


@dataclass(frozen=True)
class Scenario:
    """One config file: the document as written and where it lives."""

    name: str
    doc: dict
    config: Path

    @property
    def true_mode(self) -> int:
        return self.doc["scenario"]["true_mode"]

    @property
    def horizon(self) -> int:
        return self.doc["scenario"]["horizon"]

    @property
    def seed(self) -> int:
        return self.doc["scenario"]["seed"]


@dataclass(frozen=True)
class Op:
    """One ``smio`` invocation of a pass.

    ``kind`` is ``simulate``, ``benchmark`` or ``analyze``; ``out`` is the
    output file name inside the pass directory.
    """

    kind: str
    scenario: Scenario
    out: str

    def argv(self, pass_dir: Path, horizon: int | None = None) -> list[str]:
        """Arguments for ``smio``; ``horizon`` overrides the scenario's."""
        out = str(pass_dir / self.out)
        if self.kind == "analyze":
            return [
                "analyze",
                "--config",
                str(self.scenario.config),
                "--out",
                out,
                "--rx",
                repr(ANALYZE_RX),
                "--ry",
                repr(ANALYZE_RY),
            ]
        steps = ["--horizon", str(horizon)] if horizon is not None else []
        if self.kind == "simulate":
            return ["simulate", "--config", str(self.scenario.config), "--out", out] + steps
        steps = steps or ["--horizon", str(self.scenario.horizon)]
        return ["benchmark", "--seed", str(self.scenario.seed), "--out", out] + steps

    def outputs(self, pass_dir: Path) -> list[Path]:
        """The files this operation writes."""
        out = pass_dir / self.out
        if self.kind == "analyze":
            return [out]
        return [out, out.with_suffix(".summary.json")]

    @property
    def label(self) -> str:
        return f"{self.kind} {self.scenario.name}"


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[Scenario, ...]
    ops: tuple[Op, ...]


def noise_seeds(seed: int, count: int) -> list[int]:
    """``count`` noise seeds derived from the benchmark seed."""
    state = np.random.SeedSequence(int(seed)).generate_state(count)
    return [int(s) for s in state]


def _rows(M) -> list:
    M = np.asarray(M, dtype=float)
    return [[float(v) for v in row] for row in M]


def model_block(model) -> dict:
    return {
        "A": _rows(model.A),
        "B": _rows(model.B),
        "C": _rows(model.C),
        "D": _rows(model.D),
        "G": _rows(model.G),
        "H": _rows(model.H),
        "eta_w": float(model.eta_w),
        "eta_v": float(model.eta_v),
        "delta_x0": float(model.delta_x0),
    }


def _write(workdir: Path, name: str, doc: dict) -> Scenario:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return Scenario(name=name, doc=doc, config=path)


def _builtin(seed: int, workdir: Path) -> Workload:
    from smio.sim import benchmark_model

    model = model_block(benchmark_model())
    scenarios = []
    for q, s in zip(range(1, 6), noise_seeds(seed, 5)):
        doc = {
            "model": model,
            "modes": {"t_a": 1, "t_s": 4, "rho": 4},
            "scenario": {"true_mode": q, "horizon": BUILTIN_HORIZON, "seed": s},
            "attack": {"kind": "sinusoid", "amplitude": 5.0, "bias": 2.0},
        }
        scenarios.append(_write(workdir, f"builtin-m{q}", doc))
    ops = [Op("analyze", scenarios[0], "builtin-analyze.json")]
    ops += [Op("simulate", sc, f"{sc.name}.csv") for sc in scenarios]
    ops.append(Op("benchmark", scenarios[0], "builtin-benchmark.csv"))
    return Workload("builtin-h1000", tuple(scenarios), tuple(ops))


def build_hypothesis(model, mode):
    """(decomposition, error dynamics) of a hypothesis that ``smio`` can
    build an observer for, as ``sim.run_pipeline`` decides it; else None."""
    from smio.decomposition import (
        DecompositionError,
        decompose_mode,
        error_dynamics,
        synthesize_gains,
    )
    from smio.model import check_strong_detectability

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not check_strong_detectability(model.A, mode.Gq, model.C, mode.Hq):
            return None
        try:
            dec = decompose_mode(model, mode)
            return dec, error_dynamics(dec, synthesize_gains(dec, model), model)
        except DecompositionError:
            return None


def _true_mode_ok(block: dict, modes: dict, true_mode: int) -> bool:
    """Whether ``smio`` builds an observer for the true hypothesis and its
    residual is not identically zero.

    A hypothesis whose attack absorbs every output direction has a zero
    residual map, so its threshold is zero, and its rounding-level residual
    trips the elimination guard on some seeds but not on others.
    """
    from smio.model import SystemModel, enumerate_modes

    model = SystemModel(
        **{k: np.array(block[k], dtype=float) for k in ("A", "B", "C", "D", "G", "H")},
        eta_w=block["eta_w"],
        eta_v=block["eta_v"],
        delta_x0=block["delta_x0"],
    )
    mode = enumerate_modes(modes["t_a"], modes["t_s"], modes["rho"], model.G, model.H)[
        true_mode - 1
    ]
    built = build_hypothesis(model, mode)
    if built is None:
        return False
    dec, dyn = built
    if dec.residual_dim == 0:
        return True
    state_map = dec.C2 @ dyn.Abar
    noise_map = dec.C2 @ dyn.Bev2_star + dec.T2
    return max(np.abs(state_map).max(), np.abs(noise_map).max()) > 1e-9


def random_plants(count: int = CAMPAIGN_PLANTS, seed: int = CAMPAIGN_SEED):
    """``count`` small random plants, each with a usable true hypothesis.

    Returns ``(model_block, modes_block, true_mode)`` triples.  A draw is
    kept when :func:`_true_mode_ok` accepts its true hypothesis, picked at
    random among all hypotheses; otherwise the plant is drawn again.
    """
    rng = np.random.default_rng(seed)
    plants = []
    while len(plants) < count:
        n = int(rng.integers(2, 5))
        ell = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        t_a = int(rng.integers(0, 3))
        t_s = int(rng.integers(0, min(ell, 3) + 1))
        if t_a + t_s == 0:
            continue
        rho = int(rng.integers(0, t_a + t_s + 1))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.9) / max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-9)
        block = {
            "A": _rows(A),
            "B": _rows(rng.normal(size=(n, m))),
            "C": _rows(rng.normal(size=(ell, n))),
            "D": _rows(rng.normal(size=(ell, m))),
            "G": _rows(rng.normal(size=(n, t_a))),
            "H": _rows(rng.normal(size=(ell, t_s))),
            "eta_w": float(10.0 ** rng.uniform(-3, -1.5)),
            "eta_v": float(10.0 ** rng.uniform(-4, -2.5)),
            "delta_x0": float(10.0 ** rng.uniform(-1, 0)),
        }
        modes = {"t_a": t_a, "t_s": t_s, "rho": rho}
        n_modes = len(list(itertools.combinations(range(t_a + t_s), rho)))
        true_mode = int(rng.integers(1, n_modes + 1))
        if _true_mode_ok(block, modes, true_mode):
            plants.append((block, modes, true_mode))
    return plants


def _campaign(seed: int, workdir: Path) -> Workload:
    scenarios = []
    plants = random_plants()
    for i, ((block, modes, q), s) in enumerate(zip(plants, noise_seeds(seed, len(plants)))):
        doc = {
            "model": block,
            "modes": modes,
            "scenario": {"true_mode": q, "horizon": CAMPAIGN_HORIZON, "seed": s},
        }
        if modes["rho"]:
            doc["attack"] = {"kind": "sinusoid", "amplitude": 5.0, "bias": 2.0}
        scenarios.append(_write(workdir, f"plant{i:02d}", doc))
    ops = []
    for sc in scenarios:
        ops.append(Op("analyze", sc, f"{sc.name}-analyze.json"))
        ops.append(Op("simulate", sc, f"{sc.name}.csv"))
    return Workload("random-campaign", tuple(scenarios), tuple(ops))


_MAKERS = {
    "builtin-h1000": _builtin,
    "random-campaign": _campaign,
}
WORKLOADS = tuple(_MAKERS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's configs into ``workdir`` and list one pass."""
    return _MAKERS[name](int(seed), Path(workdir))
