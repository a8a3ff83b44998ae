"""Command-line front end: run scenarios from JSON configs, emit CSV traces.

Three subcommands:

``smio simulate --config cfg.json --out trace.csv``
    Run the full estimation pipeline on a configured scenario and write the
    trace as CSV plus a JSON summary next to it.

``smio analyze --config cfg.json [--rx X --ry Y]``
    Offline mode-distinguishability certificates for the configured mode
    family.  Condition (ii) needs no extra data; supplying both trajectory
    bounds also evaluates condition (i).

``smio benchmark``
    The built-in five-mode benchmark scenario with its persistent sparse
    attack, written to a default location.

Exit codes are stable: 0 ok; 1 usage (including an ``--out`` that cannot be
written; a missing directory or a directory is reported before the run or
the analysis); 2 bad config; 3 every mode hypothesis eliminated mid-run; 4
detectability not certified; 5 a measurement became non-finite mid-run
(the plant left the floating-point range).  Floats in the CSV are printed with 17 significant digits so a
parsed trace reproduces the recorded thresholds and elimination flags
bit-for-bit, and the same config and seed always produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .model import (
    AttackSignal,
    ModelError,
    ModeHypothesis,
    SystemModel,
    enumerate_modes,
    validate,
)
from .modeguard import detectability_report
from .sim import (
    FAULT_NONFINITE,
    HORIZON_MAX,
    RunTrace,
    ScenarioConfig,
    SimulationError,
    benchmark_scenario,
    build_bank,
    check_horizon,
    run_pipeline,
    sinusoid_attack,
)

__all__ = [
    "ConfigError",
    "load_scenario",
    "write_trace_csv",
    "write_summary",
    "cmd_simulate",
    "cmd_analyze",
    "cmd_benchmark",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_FAULT = 3
EXIT_NOT_CERTIFIED = 4
EXIT_NONFINITE = 5


class ConfigError(ValueError):
    """The scenario config file cannot be used as given."""


def _check_writable(path) -> None:
    """Raise the :class:`OSError` that opening ``path`` for writing would
    raise when it is a directory, or its directory is missing or not
    writable.  Only stat calls are made, so nothing is created."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.lexists(directory) else errno.ENOENT
    elif not path:
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


# --------------------------------------------------------------- config file

_TOP_KEYS = {"model", "modes", "scenario", "attack", "tuning"}
_MODEL_KEYS = {"A", "B", "C", "D", "G", "H", "eta_w", "eta_v", "delta_x0"}
_MODES_KEYS = {"t_a", "t_s", "rho"}
_SCENARIO_KEYS = {"true_mode", "horizon", "seed", "xhat0", "x0", "known_input"}
_ATTACK_KEYS = {"kind", "amplitude", "bias", "values"}
_TUNING_KEYS = {"R_x", "R_y"}


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        names = ", ".join(repr(k) for k in unknown)
        raise ConfigError(
            f"unknown key {names} in {where} (allowed: {', '.join(sorted(allowed))})"
        )


def _require_dict(doc: dict, key: str, required: bool) -> dict | None:
    block = doc.get(key)
    if block is None:
        if required:
            raise ConfigError(f"config is missing the required '{key}' block")
        return None
    if not isinstance(block, dict):
        raise ConfigError(f"'{key}' must be an object, got {type(block).__name__}")
    return block


def _matrix(block: dict, key: str, where: str) -> np.ndarray:
    if key not in block:
        raise ConfigError(f"{where} is missing required matrix '{key}'")
    try:
        arr = np.array(block[key], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.{key} is not a numeric matrix: {exc}") from exc
    if arr.ndim != 2:
        raise ConfigError(f"{where}.{key} must be a 2-D matrix, got shape {arr.shape}")
    return arr


def _number(block: dict, key: str, where: str, default=None):
    if key not in block or block[key] is None:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ConfigError(f"{where}.{key} must be a finite number ({exc})") from exc


def _integer(block: dict, key: str, where: str, default=None):
    if key not in block or block[key] is None:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _trajectory_bound(value: float | None, name: str) -> float | None:
    """``value`` as the trajectory bound ``name`` of condition (i): None
    (not given) or a finite number >= 0; raises :class:`ConfigError`
    otherwise."""
    if value is not None and not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def load_config_document(path) -> dict:
    """Parse the JSON config file, rejecting unknown top-level keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"config {path} is not usable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object at top level")
    _reject_unknown(doc, _TOP_KEYS, "the top-level config")
    return doc


def _build_model(doc: dict) -> SystemModel:
    block = _require_dict(doc, "model", required=True)
    _reject_unknown(block, _MODEL_KEYS, "the 'model' block")
    mats = {key: _matrix(block, key, "model") for key in ("A", "B", "C", "D", "G", "H")}
    model = SystemModel(
        **mats,
        eta_w=_number(block, "eta_w", "model", 0.0),
        eta_v=_number(block, "eta_v", "model", 0.0),
        delta_x0=_number(block, "delta_x0", "model", 0.0),
    )
    problems = validate(model)
    if problems:
        raise ConfigError("model block is ill-formed: " + "; ".join(problems))
    return model


def _build_modes(doc: dict, model: SystemModel) -> list[ModeHypothesis]:
    block = _require_dict(doc, "modes", required=True)
    _reject_unknown(block, _MODES_KEYS, "the 'modes' block")
    t_a = _integer(block, "t_a", "modes")
    t_s = _integer(block, "t_s", "modes")
    rho = _integer(block, "rho", "modes")
    for name, value in (("t_a", t_a), ("t_s", t_s), ("rho", rho)):
        if value is None:
            raise ConfigError(f"modes block is missing required key '{name}'")
    try:
        return enumerate_modes(t_a, t_s, rho, model.G, model.H)
    except ModelError as exc:
        raise ConfigError(f"modes block is unusable: {exc}") from exc


def _build_attack(
    doc: dict, modes: list[ModeHypothesis], true_mode: int, horizon: int
) -> AttackSignal | None:
    block = _require_dict(doc, "attack", required=False)
    if block is None:
        return None
    _reject_unknown(block, _ATTACK_KEYS, "the 'attack' block")
    kind = block.get("kind")
    if kind not in ("zero", "sinusoid", "explicit"):
        raise ConfigError(
            f"attack.kind must be 'zero', 'sinusoid' or 'explicit', got {kind!r}"
        )
    mode_star = next(m for m in modes if m.id == true_mode)
    if kind == "zero":
        _reject_unknown(block, {"kind"}, "a 'zero' attack block")
        return None
    if kind == "sinusoid":
        _reject_unknown(
            block, {"kind", "amplitude", "bias"}, "a 'sinusoid' attack block"
        )
        amplitude = _number(block, "amplitude", "attack", 5.0)
        bias = _number(block, "bias", "attack", 2.0)
        for key, value in (("amplitude", amplitude), ("bias", bias)):
            if not math.isfinite(value):
                raise ConfigError(f"attack.{key} must be a finite number, got {value!r}")
        return sinusoid_attack(mode_star, horizon + 1, amplitude, bias)
    _reject_unknown(block, {"kind", "values"}, "an 'explicit' attack block")
    if "values" not in block:
        raise ConfigError("an 'explicit' attack block needs a 'values' array")
    try:
        values = np.array(block["values"], dtype=float)
        return AttackSignal(mode=mode_star, values=values)
    except (TypeError, ValueError, OverflowError, ModelError) as exc:
        raise ConfigError(f"attack.values is unusable: {exc}") from exc


def _read_config(path) -> tuple[dict, SystemModel, list[ModeHypothesis], tuple]:
    """``(document, model, modes, (R_x, R_y))`` of a config file, each
    checked; a trajectory bound the ``tuning`` block leaves out is None."""
    doc = load_config_document(path)
    model = _build_model(doc)
    modes = _build_modes(doc, model)
    tuning = _require_dict(doc, "tuning", required=False) or {}
    _reject_unknown(tuning, _TUNING_KEYS, "the 'tuning' block")
    bounds = tuple(
        _trajectory_bound(_number(tuning, key, "tuning"), f"tuning.{key}")
        for key in ("R_x", "R_y")
    )
    return doc, model, modes, bounds


def load_scenario(path, seed: int | None = None, horizon: int | None = None) -> ScenarioConfig:
    """Build a runnable scenario from a JSON config file.

    The keyword arguments are command-line overrides and win over the
    corresponding config values when given.  The trajectory bounds of the
    ``tuning`` block serve ``smio analyze``; a scenario only checks them.
    """
    doc, model, modes, _bounds = _read_config(path)
    scen = _require_dict(doc, "scenario", required=True)
    _reject_unknown(scen, _SCENARIO_KEYS, "the 'scenario' block")
    true_mode = _integer(scen, "true_mode", "scenario")
    if true_mode is None:
        raise ConfigError("scenario block is missing required key 'true_mode'")
    if horizon is None:
        horizon = _integer(scen, "horizon", "scenario", 100)
    try:
        horizon = check_horizon(horizon)
    except SimulationError as exc:
        raise ConfigError(str(exc)) from exc
    if seed is None:
        seed = _integer(scen, "seed", "scenario", 0)

    if not any(m.id == true_mode for m in modes):
        raise ConfigError(
            f"scenario.true_mode {true_mode} is not one of the enumerated "
            f"mode ids 1..{len(modes)}"
        )
    attack = _build_attack(doc, modes, true_mode, horizon)

    try:
        return ScenarioConfig(
            model=model,
            modes=tuple(modes),
            true_mode=true_mode,
            horizon=horizon,
            attack=attack,
            known_input=scen.get("known_input"),
            noise_seed=seed,
            xhat0=scen.get("xhat0"),
            x0=scen.get("x0"),
        )
    except (SimulationError, ModelError) as exc:
        raise ConfigError(str(exc)) from exc


# ----------------------------------------------------------------- trace CSV


# Steps of the trace CSV formatted per write: bounds the tables and the text
# held at once (a peak of about 7 KB per step on the built-in plant).
_CSV_CHUNK = 1024


def trace_header(n: int) -> list[str]:
    return (
        ["k", "mode_id", "r_norm", "delta_inf", "delta_tri", "delta_hat", "eliminated"]
        + [f"xhat_{i + 1}" for i in range(n)]
        + ["delta_x", "delta_d", "active_count"]
    )


def write_trace_csv(trace: RunTrace, path) -> None:
    """Write one row per (step, mode) plus a fused row per step.

    Residual columns are filled only on rows where the observer actually ran
    that step; an eliminated mode keeps emitting rows (flag 1, frozen
    estimate columns) so every stream spans the recorded horizon.  The fused
    row carries only the surviving-mode count — the global estimate is the
    union of the per-mode balls already present in the same step's rows.
    Rows end in CRLF, as :mod:`csv` writes them, and floats are written as
    ``%.17g``.

    The text is built and written :data:`_CSV_CHUNK` steps at a time, as a
    sequence of tokens: a step number, a field with its leading comma (a
    lone comma for an empty field), a row's end.  A mode row is ``n+11``
    tokens and a fused row four.  The chunk's float fields are formatted
    once per distinct bit pattern (so ``-0.0`` stays apart from ``0.0``),
    and one index table of shape ``(steps, modes*(n+11)+4)`` picks every
    row's tokens, which one join turns into the chunk's text.
    """
    n = trace.config.model.n
    steps, modes = trace.live.shape
    width = n + 11
    active = np.array([len(a) for a in trace.active_sets])
    elim_at = np.array([trace.eliminated_at[q] or steps for q in trace.mode_ids])
    # the tokens every chunk shares; ",0" and ",1" also serve the eliminated flag
    empty, crlf, fused, mode0 = 0, 1, 2, 3
    fixed = [",", "\r\n", ",fused" + "," * (n + 7)] + [f",{q}" for q in trace.mode_ids]
    count0 = len(fixed)
    fixed += [f",{a}" for a in range(modes + 1)]
    step0 = len(fixed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(trace_header(n)) + "\r\n")
        for start in range(0, steps, _CSV_CHUNK):
            block = slice(start, min(start + _CSV_CHUNK, steps))
            k = np.arange(block.start, block.stop)
            # a mode row's float fields: r_norm, the three thresholds, xhat, delta_x, delta_d
            floats = np.empty((k.size, modes, n + 6))
            for j, column in enumerate((trace.r_norm, trace.delta_inf, trace.delta_tri, trace.delta_hat)):
                floats[:, :, j] = column[block]
            floats[:, :, 4 : n + 4] = trace.xhat[block]
            floats[:, :, n + 4] = trace.delta_x[block]
            floats[:, :, n + 5] = trace.delta_d[block]
            bits, float_token = np.unique(floats.view(np.uint64), return_inverse=True)
            text = ("\0,%.17g" * bits.size) % tuple(bits.view(float).tolist())
            tokens = np.array(fixed + list(map(str, k.tolist())) + text.split("\0")[1:], dtype=object)
            float_token = float_token.reshape(floats.shape) + (step0 + k.size)

            # which fields a row fills: the residual test ran, delta_inf exists, delta_d exists
            live = trace.live[block]
            has_inf = live & (k <= trace.config.k_inf_cutoff)[:, None]
            has_dd = np.broadcast_to((k >= 1)[:, None], live.shape)
            step = step0 + np.arange(k.size)[:, None]
            counts = count0 + active[block][:, None]
            index = np.empty((k.size, modes * width + 4), dtype=np.intp)
            rows = index[:, : modes * width].reshape(k.size, modes, width)
            rows[:, :, 0] = step
            rows[:, :, 1] = np.arange(mode0, mode0 + modes)
            filled = np.stack([live, has_inf, live, live], axis=2)
            rows[:, :, 2:6] = np.where(filled, float_token[:, :, :4], empty)
            rows[:, :, 6] = count0 + (k[:, None] >= elim_at)
            rows[:, :, 7 : n + 9] = float_token[:, :, 4:]
            rows[:, :, n + 8] = np.where(has_dd, rows[:, :, n + 8], empty)
            rows[:, :, n + 9] = counts
            rows[:, :, n + 10] = crlf
            index[:, -4:] = np.hstack([step, np.full_like(step, fused), counts, np.full_like(step, crlf)])
            fh.write("".join(tokens[index.ravel()].tolist()))


def summary_document(trace: RunTrace) -> dict:
    cfg = trace.config
    return {
        "true_mode": cfg.true_mode,
        "horizon": cfg.horizon,
        "seed": cfg.noise_seed,
        "steps_recorded": trace.steps_recorded,
        "final_active": list(trace.final_active),
        "eliminated_at": {str(q): k for q, k in sorted(trace.eliminated_at.items())},
        "excluded": {str(q): why for q, why in sorted(trace.excluded.items())},
        "containment_violations": trace.containment_violations,
        "fault": trace.fault,
        "fault_step": trace.fault_step,
    }


def _summary_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".summary.json")


def write_summary(trace: RunTrace, csv_path) -> Path:
    path = _summary_path(csv_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_document(trace), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------- subcommands


def _run_and_write(cfg: ScenarioConfig, out) -> int:
    # both outputs are checked before any work, so a run never leaves a CSV
    # without its summary
    _check_writable(out)
    _check_writable(_summary_path(out))
    trace = run_pipeline(cfg)
    write_trace_csv(trace, out)
    summary_path = write_summary(trace, out)
    msg = (
        f"wrote {out} and {summary_path}: "
        f"{trace.steps_recorded} steps, final active modes {list(trace.final_active)}, "
        f"{trace.containment_violations} containment violations"
    )
    print(msg)
    if trace.fault is not None:
        print(f"fault: {trace.fault}", file=sys.stderr)
        return EXIT_NONFINITE if trace.fault_kind == FAULT_NONFINITE else EXIT_FAULT
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.config, seed=args.seed, horizon=args.horizon)
    return _run_and_write(cfg, args.out)


def cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = benchmark_scenario(seed=args.seed, horizon=args.horizon)
    return _run_and_write(cfg, args.out)


def _json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.rx is None) != (args.ry is None):
        print(
            "smio analyze: error: --rx and --ry must be supplied together "
            "(condition (i) needs both trajectory bounds)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        _trajectory_bound(args.rx, "--rx")
        _trajectory_bound(args.ry, "--ry")
    except ConfigError as exc:
        print(f"smio analyze: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _doc, model, modes, (R_x, R_y) = _read_config(args.config)
    if args.rx is not None:
        R_x, R_y = args.rx, args.ry
    if (R_x is None) != (R_y is None):
        raise ConfigError(
            "tuning must supply both R_x and R_y (or neither) for condition (i)"
        )
    if args.out:
        _check_writable(args.out)

    bank, excluded = build_bank(model, modes)
    if not bank:
        raise ConfigError(
            "no usable mode hypothesis: "
            + "; ".join(f"mode {q}: {why}" for q, why in sorted(excluded.items()))
        )
    entries = [(mode, dec, dyn) for mode, dec, _gains, dyn in bank.values()]

    report = detectability_report(model, entries, R_x, R_y)
    doc_out = report.to_dict()
    doc_out["excluded"] = {str(q): why for q, why in sorted(excluded.items())}
    text = json.dumps(_json_safe(doc_out), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}: certified={report.certified}")
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.certified else EXIT_NOT_CERTIFIED


# ---------------------------------------------------------------- arg parser


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the documented usage code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message) from None


def _add_common(
    p: _Parser,
    *,
    out_default=None,
    out_required=False,
    seed_default=None,
    horizon_default=None,
) -> None:
    p.add_argument(
        "--out",
        default=out_default,
        required=out_required,
        help="output CSV path (a .summary.json lands next to it)",
    )
    p.add_argument(
        "--seed", type=int, default=seed_default, help="override the noise seed"
    )
    p.add_argument(
        "--horizon",
        type=int,
        default=horizon_default,
        help=f"override the horizon (max {HORIZON_MAX})",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="smio",
        description=(
            "Set-valued state and input estimation for switched systems under "
            "sparse data-injection attacks"
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_sim = sub.add_parser(
        "simulate", help="run a configured scenario and write its trace"
    )
    p_sim.add_argument("--config", required=True, help="JSON scenario config")
    _add_common(p_sim, out_required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser(
        "analyze", help="mode-distinguishability certificates for a config"
    )
    p_an.add_argument("--config", required=True, help="JSON scenario config")
    p_an.add_argument("--out", default=None, help="write the JSON report here")
    p_an.add_argument(
        "--rx", type=float, default=None, help="state trajectory bound for condition (i)"
    )
    p_an.add_argument(
        "--ry", type=float, default=None, help="output trajectory bound for condition (i)"
    )
    p_an.set_defaults(func=cmd_analyze)

    p_bm = sub.add_parser(
        "benchmark", help="run the built-in five-mode benchmark scenario"
    )
    _add_common(
        p_bm, out_default="smio_benchmark.csv", seed_default=0, horizon_default=200
    )
    p_bm.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("smio: error: a command is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:  # reading the config raises ConfigError, so an output failed
        print(f"smio {args.command}: error: cannot write '{exc.filename}': {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, SimulationError) as exc:
        print(f"smio {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
