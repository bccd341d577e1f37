"""The three benchmark workloads and the seeded generator behind them.

Every workload offers the same three operations besides its set-up, so every
end-to-end metric has a value on every workload:

* ``sim_configs``: library ``simulate`` on each (``rounds_per_s``);
* ``cli_argvs``: in-process CLI calls (``cli_wall_s``);
* ``obedience_configs``: ``check_obedience`` on each (``obedience_ms``,
  ``obedience_ms_p90``).

Timed simulate and CLI calls run the first ``timed_rounds`` rounds of each
config.  Short calls let a run collect many samples, and the fastest of them
is steady on a shared host; the per-round work is the same as in the full
run, which the reference check and the memory pass still use.

The package receives only the generated inputs: config objects and YAML files
written under the run's work directory.  The same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from routegame import (DisobedienceMatrix, GameConfig, LatencyModel, LuenbergerSpec, Prior,
                       Scenario, Signal, initial_state)
from routegame.cli import load_config

PAPER_TIMED_ROUNDS = 50

COLD_LINKS = 32        # solver work is Python-bound here; at n = 128 numpy made it host-sensitive
COLD_DEGREE = 3
COLD_CONFIGS = 256     # leaves 25 configs beyond the p90
COLD_SIM_CONFIGS = 8   # short simulations: round 1 is a cold solve, the rest warm
COLD_SIM_ROUNDS = 20
COLD_CLI_CONFIGS = 8   # each gets several CLI samples per run

WHY = {
    "paper-affine": "shipped config as users run it: n = 2, fixed per-call cost, "
                    "warm solves, envelope CSV of many narrow rows",
    "nu1-dynamic-observer": "nu = 1 so the best response is empty; dynamic nu rebuilds "
                            "GameConfig each round; observer adds a latency evaluation",
    "cold-solve": "256 fresh n = 32 cubic configs through check_obedience: the only "
                  "workload where the iterative solver does the work",
}
NAMES = tuple(WHY)


@dataclass
class Workload:
    name: str
    seed: int
    setup: Callable[[int], object]     # set-up of item i, timed by setup_s
    setup_items: int
    sim_configs: list[GameConfig]
    timed_rounds: int                  # rounds of each timed simulate and CLI call
    cli_argvs: list[list[str]]
    obedience_configs: list[GameConfig]
    envelope: bool = False             # the simulate CLI call appends envelope columns
    # Share of a run's time for each operation; the CLI calls are the longest.
    shares: dict = field(default_factory=lambda: {
        "setup": 0.1, "simulate": 0.3, "cli": 0.4, "check_obedience": 0.2})

    @property
    def cli_simulates(self) -> bool:
        return self.cli_argvs[0][0] == "simulate"


def random_network(rng: np.random.Generator, n: int, degree: int, states: int = 2) -> dict:
    """Raw arrays of a strictly increasing polynomial network.

    Follows ``random_affine_config`` in ``tests/conftest.py`` and adds
    nonnegative terms up to ``degree``, so latencies stay monotone on [0, 1].
    """
    coeffs = [rng.uniform(0.0, 10.0, size=(states, n)), rng.uniform(1.0, 4.0, size=(states, n))]
    coeffs += [rng.uniform(0.0, 2.0, size=(states, n)) for _ in range(degree - 1)]
    mu0 = rng.dirichlet(np.ones(states))
    mu0 = mu0 / mu0.sum()
    nu = float(rng.uniform(0.2, 0.8))
    pi = rng.dirichlet(np.ones(n), size=states) * nu
    pi = pi * (nu / pi.sum(axis=1, keepdims=True))
    return {"states": [f"s{w}" for w in range(states)], "coeffs": np.stack(coeffs),
            "prior": mu0, "nu": nu, "signal": pi}


def build_config(raw: dict, **fields) -> GameConfig:
    """A fresh GameConfig from raw arrays, with the default uniform rerouting."""
    coeffs = np.asarray(raw["coeffs"])
    return GameConfig(
        latency=LatencyModel(states=tuple(raw["states"]), coeffs=coeffs),
        prior=Prior(raw["prior"]),
        signal=Signal(pi=raw["signal"], nu=raw["nu"]),
        disobedience=DisobedienceMatrix.default(coeffs.shape[2]),
        **fields)


def write_yaml(path: Path, raw: dict, **fields) -> Path:
    """Config file without a ``disobedience`` key, so the small uniform default is used."""
    doc = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in {**raw, **fields}.items()}
    path.write_text(yaml.safe_dump(doc, default_flow_style=None, sort_keys=False))
    return path


def _rng(name: str, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name), *stream])


def _simulate_argv(config_path: Path, out: Path, rounds: int, *extra: str) -> list[str]:
    return ["simulate", "--config", str(config_path), "--out", str(out),
            "--rounds", str(rounds), *extra]


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Inputs of workload ``name`` for ``seed``; generated files go under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "cli"
    if name in ("paper-affine", "nu1-dynamic-observer"):
        paper = name == "paper-affine"
        path = root / "configs" / ("paper_affine.yaml" if paper else "paper_affine_nu1.yaml")
        extra = (["--emit-envelope"] if paper else
                 ["--scenario", "dynamic-nu", "--estimator", "luenberger=0.0"])

        def setup(_i):
            cfg = load_config(path)
            variant = {} if paper else {"scenario": Scenario.dynamic_nu(),
                                        "estimator": LuenbergerSpec.from_scalar(0.0, cfg.latency.n)}
            cfg = replace(cfg, seed=seed, **variant)
            return cfg, initial_state(cfg)

        config = setup(0)[0]
        argv = _simulate_argv(path, out, PAPER_TIMED_ROUNDS, "--seed", str(seed), *extra)
        return Workload(name, seed, setup, 1, [config], PAPER_TIMED_ROUNDS, [argv], [config],
                        envelope=paper)

    if name == "cold-solve":
        rng = _rng(name, seed)
        raws = [random_network(rng, COLD_LINKS, COLD_DEGREE) for _ in range(COLD_CONFIGS)]
        fields = {"theta_hat_init": 0.25, "rounds": COLD_SIM_ROUNDS, "seed": seed}

        def setup(i):
            return build_config(raws[i % len(raws)], **fields)

        configs = [setup(i) for i in range(COLD_CONFIGS)]
        # The short simulations use the networks of seed 0 for every seed, so
        # that the warm-start solver work per round does not change with it.
        sim_rng = _rng(name, 0)
        sims = [build_config(random_network(sim_rng, COLD_LINKS, COLD_DEGREE), **fields)
                for _ in range(COLD_SIM_CONFIGS)]
        argvs = [["check-obedience", "--config", str(write_yaml(work / f"cold_{i:03d}.yaml", raw))]
                 for i, raw in enumerate(raws[:COLD_CLI_CONFIGS])]
        shares = {"setup": 0.1, "simulate": 0.2, "cli": 0.2, "check_obedience": 0.5}
        return Workload(name, seed, setup, COLD_CONFIGS, sims, COLD_SIM_ROUNDS, argvs, configs,
                        shares=shares)

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
