"""Config loading, command dispatch, and report/trajectory export.

The config file is a single YAML document whose keys mirror the run config.
``simulate`` writes its flags into the file's settings under the same keys and
then validates the result once, so a flag is checked exactly as the file value
it replaces.  The fully resolved config is dumped next to the outputs so every
run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import yaml

from . import __version__
from .dynamics import simulate, write_trajectory_csv
from .equilibrium import check_obedience
from .errors import ConfigurationError, SignalRowError, SolverError
from .estimators import BetaSchedule, LuenbergerSpec, SmoothingSpec
from .model import (DisobedienceMatrix, GameConfig, LatencyModel, Prior, Scenario, Signal)

OUT_DIR_ENV = "ROUTEGAME_OUT"

# The optional numeric settings that GameConfig takes under their own names.
_NUMBER_KEYS = {"m_max": float, "m_init": float, "theta_hat_init": float, "beta_min": float,
                "beta_max": float, "solver_tol": float, "rounds": int, "seed": int}
_ARRAY_KEYS = ("coeffs", "prior", "signal", "disobedience", "beta_schedule")
_KNOWN_KEYS = {
    "links", "states", "degree", "coeffs", "prior", "nu", "signal", "disobedience",
    "allow_small_m_max", "beta", "beta_schedule", "scenario", "estimator", "strict_increase",
    *_NUMBER_KEYS,
}

# libyaml's loader and dumper when PyYAML was built with it; they read and
# write the same documents as the pure-Python classes, several times faster.
if yaml.__with_libyaml__:
    _Loader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _Loader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


def _parse_file(path) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: expected a mapping of config keys")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys {sorted(unknown)}")
    return raw


def _convert(kind, value, name: str):
    """``kind(value)``; a value that does not convert is a ConfigurationError naming ``name``.

    A YAML boolean is not a number here, though ``float(True)`` is 1.0.  A
    float is an integer only when it is integral: ``int(2.7)`` truncates to 2.
    """
    if not isinstance(value, bool):
        try:
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):  # int(inf) overflows
            pass
        else:
            if kind is not int or not isinstance(value, float) or value.is_integer():
                return converted
    noun = "an integer" if kind is int else "a number"
    raise ConfigurationError(f"{name} must be {noun}, got {value!r}")


def _holds_bool(value) -> bool:
    """Whether a YAML boolean is ``value`` or sits anywhere in its nested lists.

    numpy would read ``true`` in an array as 1.0.  Each list's element types
    are gathered in one pass in C, so the walk makes a Python call per nested
    list, not per entry.
    """
    if not isinstance(value, list):
        return isinstance(value, bool)
    kinds = set(map(type, value))
    return bool in kinds or list in kinds and any(map(_holds_bool, value))


def _parse_scenario(value) -> Scenario:
    if isinstance(value, str):
        name = value.replace("-", "_")
        if name == "baseline":
            return Scenario.baseline()
        if name == "dynamic_nu":
            return Scenario.dynamic_nu()
        if name.startswith("discounted="):
            return Scenario.discounted(_convert(float, name.split("=", 1)[1], "scenario discount"))
        raise ConfigurationError(f"unknown scenario {value!r}")
    if isinstance(value, dict) and list(value) == ["discounted"]:
        return Scenario.discounted(_convert(float, value["discounted"], "scenario discount"))
    raise ConfigurationError(f"unknown scenario {value!r}")


def _parse_estimator(value, n: int) -> SmoothingSpec | LuenbergerSpec:
    if value == "smoothing" or value is None:
        return SmoothingSpec()
    if isinstance(value, str) and value.startswith("luenberger"):
        _, _, gain = value.partition("=")
        return LuenbergerSpec.from_scalar(_convert(float, gain or 0.0, "estimator gain"), n)
    if isinstance(value, dict) and list(value) == ["luenberger"]:
        gain = value["luenberger"]
        if isinstance(gain, (int, float)) and not isinstance(gain, bool):
            return LuenbergerSpec.from_scalar(float(gain), n)
        if not isinstance(gain, (list, tuple)):
            raise ConfigurationError(f"estimator gain must be a number or a list, got {gain!r}")
        return LuenbergerSpec(gain=tuple(_convert(float, g, "estimator gain") for g in gain))
    raise ConfigurationError(f"unknown estimator {value!r}")


def _build_config(raw: dict, path: str = "<config>") -> GameConfig:
    """The config the file's keys give; an absent key takes the model's own default."""
    for key in ("states", "coeffs", "prior", "nu", "signal"):
        if key not in raw:
            raise ConfigurationError(f"{path}: missing required key {key!r}")
    for key in _ARRAY_KEYS:
        if key in raw and _holds_bool(raw[key]):
            raise ConfigurationError(f"{path}: {key} must hold numbers, got a boolean")

    def number(key: str, kind=float):
        return _convert(kind, raw[key], f"{path}: {key}")

    def flag(key: str, name: str) -> dict[str, bool]:
        """``{name: value}`` for a YAML boolean under ``key``; ``{}`` when the file lacks it."""
        if key not in raw:
            return {}
        if not isinstance(raw[key], bool):  # bool() would read "false" or [0] as true
            raise ConfigurationError(f"{path}: {key} must be true or false, got {raw[key]!r}")
        return {name: raw[key]}

    if not isinstance(raw["states"], (list, tuple)):
        raise ConfigurationError(f"{path}: states must be a list of labels, got {raw['states']!r}")
    latency = LatencyModel(states=tuple(raw["states"]), coeffs=raw["coeffs"],
                           **flag("strict_increase", "require_strict_increase"))
    if "links" in raw and number("links", int) != latency.n:
        raise ConfigurationError(
            f"{path}: links={raw['links']} but coeffs describe {latency.n} links")
    if "degree" in raw and number("degree", int) != latency.degree:
        raise ConfigurationError(
            f"{path}: degree={raw['degree']} but coeffs describe degree {latency.degree}")
    try:
        signal = Signal(pi=raw["signal"], nu=number("nu"))
    except SignalRowError as exc:  # name the row by its state
        label = latency.states[exc.row] if exc.row < latency.num_states else exc.row
        raise SignalRowError(label, exc.total, exc.nu) from None

    if "disobedience" in raw:
        disobedience = DisobedienceMatrix(raw["disobedience"])
    else:
        disobedience = DisobedienceMatrix.default(latency.n)

    if "beta_schedule" in raw:
        if "beta" in raw:
            raise ConfigurationError(f"{path}: give either beta or beta_schedule, not both")
        betas = raw["beta_schedule"]
        if not isinstance(betas, list):
            raise ConfigurationError(
                f"{path}: beta_schedule must be a list of numbers, got {betas!r}")
        schedule = {"schedule": BetaSchedule.from_sequence(
            [_convert(float, b, f"{path}: beta_schedule") for b in betas])}
    else:
        schedule = {"schedule": BetaSchedule.constant(number("beta"))} if "beta" in raw else {}
    estimator = _parse_estimator(raw.get("estimator", "smoothing"), latency.n)
    if isinstance(estimator, SmoothingSpec):
        estimator = SmoothingSpec(**schedule)

    return GameConfig(
        latency=latency,
        prior=Prior(raw["prior"]),
        signal=signal,
        disobedience=disobedience,
        scenario=_parse_scenario(raw.get("scenario", "baseline")),
        estimator=estimator,
        **{key: number(key, kind) for key, kind in _NUMBER_KEYS.items() if key in raw},
        **flag("allow_small_m_max", "allow_small_m_max"),
    )


def load_config(path) -> GameConfig:
    """Parse and fully validate a config file, applying documented defaults."""
    return _build_config(_parse_file(path), str(path))


def config_to_dict(config: GameConfig) -> dict:
    """Canonical resolved form: every field explicit, plain lists and scalars."""
    if config.scenario.kind == "discounted":
        scenario: object = {"discounted": config.scenario.discount}
    else:
        scenario = config.scenario.kind
    if isinstance(config.estimator, LuenbergerSpec):
        estimator: object = {"luenberger": list(config.estimator.gain)}
        beta_keys = {"beta": 0.5}
    else:
        estimator = "smoothing"
        schedule = config.estimator.schedule
        if schedule.values is not None:
            beta_keys = {"beta_schedule": list(schedule.values)}
        else:
            beta_keys = {"beta": schedule.value}
    return {
        "states": list(config.latency.states),
        "coeffs": config.latency.coeffs.tolist(),
        "prior": config.prior.mu0.tolist(),
        "nu": config.signal.nu,
        "signal": config.signal.pi.tolist(),
        "disobedience": config.disobedience.matrix.tolist(),
        "m_max": config.m_max,
        "allow_small_m_max": config.allow_small_m_max,
        "m_init": config.m_init,
        "theta_hat_init": config.theta_hat_init,
        **beta_keys,
        "beta_min": config.beta_min,
        "beta_max": config.beta_max,
        "scenario": scenario,
        "estimator": estimator,
        "solver_tol": config.solver_tol,
        "rounds": config.rounds,
        "seed": config.seed,
        "strict_increase": config.latency.require_strict_increase,
    }


def config_digest(config: GameConfig) -> str:
    """Platform-stable content hash of the resolved config."""
    text = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _out_dir(args) -> Path:
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path(args.out)


def cmd_simulate(args) -> int:
    raw = _parse_file(args.config)
    for key in ("rounds", "scenario", "estimator"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    config = _build_config(raw, str(args.config))
    seeds = args.seed if args.seed else [config.seed]
    # Every seed is validated before the first file is written.
    run_configs = [config if seed == config.seed else replace(config, seed=seed)
                   for seed in seeds]

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved_path = out_dir / "resolved_config.yaml"
    with open(resolved_path, "w") as fh:
        yaml.dump(config_to_dict(config), fh, Dumper=_Dumper, sort_keys=False)

    runs = []
    for idx, (seed, run_config) in enumerate(zip(seeds, run_configs)):
        started = time.perf_counter()
        trajectory = simulate(run_config)
        csv_path = out_dir / f"run{idx:03d}_seed{seed}.csv"
        write_trajectory_csv(csv_path, trajectory, run_config,
                             with_envelope=args.emit_envelope)
        elapsed = time.perf_counter() - started
        runs.append({"seed": seed, "path": csv_path.name, "wall_clock_s": elapsed})
        print(f"seed {seed}: {csv_path} ({elapsed:.2f}s)")

    manifest = {
        "artifact_version": __version__,
        "config_digest": config_digest(config),
        "seeds": seeds,
        "resolved_config": resolved_path.name,
        "runs": runs,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"manifest: {out_dir / 'manifest.json'}")
    return 0


def cmd_check_obedience(args) -> int:
    config = load_config(args.config)
    report = check_obedience(config, tol=args.tol)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        verdict = "obedient" if report.obedient else "NOT obedient"
        print(f"signal is {verdict} (tol={report.tol:g})")
        print(f"worst obedience slack: {report.worst_obedience_slack!r}")
        print(f"worst fixed-deviation slack at the witness: {report.worst_nash_slack!r}")
        y = ", ".join(repr(float(v)) for v in report.y0.y)
        print(f"witness response y(0) = [{y}]  (vi margin {report.y0.vi_margin!r})")
    return 0 if report.obedient else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routegame",
        description="Repeated routing game with partial route recommendations")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run seeded simulations and export trajectories")
    sim.add_argument("--config", required=True, help="path to the YAML config")
    sim.add_argument("--rounds", type=int, default=None, help="override the number of rounds")
    sim.add_argument("--seed", type=int, action="append", default=None,
                     help="seed to run (repeatable for sweeps)")
    sim.add_argument("--scenario", default=None,
                     help="baseline | discounted=LAMBDA | dynamic-nu")
    sim.add_argument("--estimator", default=None, help="smoothing | luenberger=GAIN")
    sim.add_argument("--out", default="runs",
                     help=f"output directory (env {OUT_DIR_ENV} overrides)")
    sim.add_argument("--emit-envelope", action="store_true",
                     help="append forecast-error envelope columns to the CSVs")
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check-obedience", help="test a signal's obedience condition")
    chk.add_argument("--config", required=True, help="path to the YAML config")
    chk.add_argument("--tol", type=float, default=None,
                     help="slack tolerance (default: the config's solver_tol)")
    chk.add_argument("--json", action="store_true", help="print the report as JSON")
    chk.set_defaults(func=cmd_check_obedience)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "rounds", None) is not None and args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    try:
        return args.func(args)
    except (ConfigurationError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
