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
from .model import (DisobedienceMatrix, GameConfig, LatencyModel, Prior, Scenario, Signal,
                    _integer)

OUT_DIR_ENV = "ROUTEGAME_OUT"

# Every config key: the kind of value it takes, and whether a file must give it.
# ``_convert`` reads YAML's spellings of ``int``, ``float`` and "numbers" (a
# list of numbers); "array" and "labels" go to their model type as they are,
# and "whole" is a scenario or estimator that its own parser reads whole.  The
# model types check every value.
_KEYS = {
    "states": ("labels", True), "coeffs": ("array", True), "prior": ("array", True),
    "nu": (float, True), "signal": ("array", True), "disobedience": ("array", False),
    "links": (int, False), "degree": (int, False),
    "beta": (float, False), "beta_schedule": ("numbers", False),
    "scenario": ("whole", False), "estimator": ("whole", False),
    "m_max": (float, False), "m_init": (float, False),
    "theta_hat_init": (float, False), "beta_min": (float, False), "beta_max": (float, False),
    "solver_tol": (float, False), "rounds": (int, False), "seed": (int, False),
}
# The keys that GameConfig takes under their own names, read and written as they are.
_OWN_FIELDS = ("m_max", "m_init", "theta_hat_init", "beta_min", "beta_max", "solver_tol",
               "rounds", "seed")

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
    unknown = [key for key in raw if key not in _KEYS]
    if unknown:  # sorted as text: YAML keys may be numbers or null too
        raise ConfigurationError(f"{path}: unknown config keys {sorted(map(str, unknown))}")
    return raw


def _convert(kind, value):
    """``value`` under a key of ``kind`` (see ``_KEYS``), with YAML's spellings read.

    A string that spells a number is that number under a number key and in
    a list of numbers, since YAML 1.1 reads ``1e-9``, written without a dot,
    as a string.  An integral float is an integer under an integer key:
    ``rounds: 3.0`` is 3 rounds.  Every other value, ``rounds: 2.7``
    included, goes to the model types as it is, and they check it.
    """
    if kind == "numbers" and isinstance(value, list):
        return [_convert(float, v) for v in value]
    if kind in (int, float) and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return value
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _parse_scenario(value) -> Scenario:
    """``baseline``, ``dynamic_nu``, ``discounted=LAMBDA`` or ``{discounted: LAMBDA}``.

    A dash in the name reads as an underscore (``dynamic-nu``); the discount
    after ``=`` is read as it is, so that ``1e-3`` and ``-0.5`` keep their dashes.
    """
    if isinstance(value, str):
        name, eq, discount = value.partition("=")
        name = name.replace("-", "_")
        if not eq and name in ("baseline", "dynamic_nu"):
            return Scenario(kind=name)
        if eq and name == "discounted":
            return Scenario.discounted(_convert(float, discount))
    elif isinstance(value, dict) and list(value) == ["discounted"]:
        return Scenario.discounted(_convert(float, value["discounted"]))
    raise ConfigurationError(f"unknown scenario {value!r}")


def _parse_estimator(value, n: int) -> SmoothingSpec | LuenbergerSpec:
    """``smoothing``, ``luenberger[=GAIN]`` or ``{luenberger: GAIN}``, GAIN a number or a list."""
    if value == "smoothing":
        return SmoothingSpec()
    if isinstance(value, str):
        name, eq, gain = value.partition("=")
        if name == "luenberger":
            return LuenbergerSpec.from_scalar(_convert(float, gain) if eq else 0.0, n)
    elif isinstance(value, dict) and list(value) == ["luenberger"]:
        gain = value["luenberger"]
        if isinstance(gain, list):
            return LuenbergerSpec(gain=_convert("numbers", gain))
        return LuenbergerSpec.from_scalar(_convert(float, gain), n)
    raise ConfigurationError(f"unknown estimator {value!r}")


def _build_config(raw: dict, path: str = "<config>") -> GameConfig:
    """The config the file's keys give; an absent key takes the model's own default.

    Any error names the file once, ahead of its message, and keeps its type.
    """
    try:
        for key, (_, required) in _KEYS.items():
            if required and key not in raw:
                raise ConfigurationError(f"missing required key {key!r}")
        if raw.get("m_max", 0.0) is None:  # GameConfig reads m_max=None as its default
            raise ConfigurationError("m_max must be a number, got None")
        values = {key: _convert(_KEYS[key][0], value) for key, value in raw.items()}

        latency = LatencyModel(states=values["states"], coeffs=values["coeffs"])
        for key, described in (("links", latency.n), ("degree", latency.degree)):
            if key in values and _integer(values[key], key) != described:
                raise ConfigurationError(
                    f"{key}={values[key]} but coeffs describe {key}={described}")
        try:
            signal = Signal(pi=values["signal"], nu=values["nu"])
        except SignalRowError as exc:  # name the row by its state
            label = latency.states[exc.row] if exc.row < latency.num_states else exc.row
            raise SignalRowError(label, exc.total, exc.nu) from None
        if "disobedience" in values:
            disobedience = DisobedienceMatrix(values["disobedience"])
        else:
            disobedience = DisobedienceMatrix.default(latency.n)

        if "beta" in values and "beta_schedule" in values:
            raise ConfigurationError("give either beta or beta_schedule, not both")
        # the weights are checked under the observer too: --estimator smoothing reads them
        schedule = SmoothingSpec().schedule
        if "beta_schedule" in values:
            schedule = BetaSchedule.from_sequence(values["beta_schedule"])
        elif "beta" in values:
            schedule = BetaSchedule.constant(values["beta"])
        estimator = _parse_estimator(values.get("estimator", "smoothing"), latency.n)
        if isinstance(estimator, SmoothingSpec):
            estimator = SmoothingSpec(schedule)

        return GameConfig(
            latency=latency,
            prior=Prior(values["prior"]),
            signal=signal,
            disobedience=disobedience,
            scenario=_parse_scenario(values.get("scenario", "baseline")),
            estimator=estimator,
            **{key: values[key] for key in _OWN_FIELDS if key in values},
        )
    except ConfigurationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


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
        **beta_keys,
        "scenario": scenario,
        "estimator": estimator,
        **{key: getattr(config, key) for key in _OWN_FIELDS},
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
    # A flag named after a config key replaces the file's value, before the one validation.
    raw.update((key, value) for key, value in vars(args).items()
               if key in _KEYS and value is not None)
    config = _build_config(raw, str(args.config))
    seeds = args.seeds or [config.seed]
    # Every seed is validated before the first file is written.
    run_configs = [config if seed == config.seed else replace(config, seed=seed)
                   for seed in seeds]

    out_dir = _out_dir(args)
    resolved_path = out_dir / "resolved_config.yaml"
    runs = []
    for idx, (seed, run_config) in enumerate(zip(seeds, run_configs)):
        started = time.perf_counter()
        trajectory = simulate(run_config)
        if idx == 0:  # the first run's columns are allocated, so the run can start writing
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(resolved_path, "w") as fh:
                yaml.dump(config_to_dict(config), fh, Dumper=_Dumper, sort_keys=False)
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
    sim.add_argument("--seed", type=int, action="append", default=None, dest="seeds",
                     metavar="SEED", help="seed to run (repeatable for sweeps)")
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
