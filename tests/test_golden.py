"""Byte identity of exported trajectories against digests recorded before the compiled hot path.

Each case writes a trajectory CSV and compares its sha256 with a digest taken
from the round loop as it was when every round revalidated its inputs and
rebuilt the response coefficients from scratch.  Any change in rounding on the
hot path changes a digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from routegame import (DisobedienceMatrix, GameConfig, LatencyModel, LuenbergerSpec, Prior,
                       Scenario, Signal, simulate, write_trajectory_csv)
from routegame.cli import load_config

REPO = Path(__file__).resolve().parent.parent
ROUNDS = 300

SCENARIOS = {"baseline": Scenario.baseline(), "discounted": Scenario.discounted(0.9),
             "dynamic_nu": Scenario.dynamic_nu()}

DIGESTS = {
    "paper_affine-baseline-smoothing":
        "bc1fff308ab08f32d5eb16814653787786fb15cd6b53689f54cc23953d3e5818",
    "paper_affine-baseline-luenberger":
        "d6204de8d20c8bdfae6cbf34e1bec49d9e34475fc4fa2b1af86e08e00a35fb1f",
    "paper_affine-discounted-smoothing":
        "1be6caa3193276c97e589ffec6347376b316fc7210456762c99596d6dae92855",
    "paper_affine-discounted-luenberger":
        "050d452d168a03476dfe96ca89c1518cb4548eb9ce9673d31f3a41914e912317",
    "paper_affine-dynamic_nu-smoothing":
        "a7f382ceb9eba4de8713f9275915e21e0bea46660089845360710619f48aefcf",
    "paper_affine-dynamic_nu-luenberger":
        "7126481f2699304af88ba2973ae649ea875352fe04c0880c8c22943a097bc9ed",
    "paper_affine_nu1-baseline-smoothing":
        "12a5a9cbcd2cbe34aca18bd4453e9371377e95de378f7e2106b5cb628018ff87",
    "paper_affine_nu1-baseline-luenberger":
        "7569383391440c791d9889afb627099ae0da7f857e90f136aab0dfafe9f79ceb",
    "paper_affine_nu1-discounted-smoothing":
        "97549c32c2235e18254820f9742f171b64f34f614ad6d7be60b5ca0fe2cf2b7d",
    "paper_affine_nu1-discounted-luenberger":
        "6b23b3b547c7e02e4fc730df4d7c32c6abc51cf961acfac817b08495bf9ddf35",
    "paper_affine_nu1-dynamic_nu-smoothing":
        "f9851e50feaa3f5718b64b4c5647b61bde821de6101c6f0e487deeb4b549d481",
    "paper_affine_nu1-dynamic_nu-luenberger":
        "a2679b6d9888f797cacb175ba4a9ad36773abdd793ae64827a0652cab4673f4d",
    "paper_affine-dynamic_nu-luenberger_0.01":
        "ed293f31781811736c20c624921954771387ef498dd5b90843fd70a2ea1a6806",
    "cubic_n8-baseline-smoothing":
        "d52002a3bd48cb84b14dc16623d497e4e1ee30a0e61b2dea0b0e63d1142f36e4",
    "paper_affine-baseline-smoothing-envelope":
        "a313d2df79841a8b7cc176a39007949a4ce5f3bc9c54a01f89e14bb51ea8e594",
}


def cubic_config(seed: int = 8, n: int = 8, s: int = 2) -> GameConfig:
    """Seeded cubic instance on the ``random_affine_config`` pattern; its warm solves iterate."""
    rng = np.random.default_rng(seed)
    coeffs = np.stack([rng.uniform(0.0, 10.0, size=(s, n)), rng.uniform(1.0, 4.0, size=(s, n)),
                       rng.uniform(0.0, 2.0, size=(s, n)), rng.uniform(0.0, 2.0, size=(s, n))])
    mu0 = rng.dirichlet(np.ones(s))
    mu0 = mu0 / mu0.sum()
    nu = float(rng.uniform(0.2, 0.8))
    pi = rng.dirichlet(np.ones(n), size=s) * nu
    pi = pi * (nu / pi.sum(axis=1, keepdims=True))
    P = np.zeros((n, n))
    for i in range(n):
        row = rng.dirichlet(np.ones(n - 1))
        P[i, [j for j in range(n) if j != i]] = row / row.sum()
    latency = LatencyModel(states=tuple(f"s{w}" for w in range(s)), coeffs=coeffs)
    return GameConfig(latency=latency, prior=Prior(mu0), signal=Signal(pi=pi, nu=nu),
                      disobedience=DisobedienceMatrix(P), m_init=0.3 * float(coeffs.max(axis=1).sum()),
                      theta_hat_init=0.25, rounds=ROUNDS, seed=seed)


def case(name: str) -> tuple[GameConfig, bool]:
    """Config and envelope flag of a named case."""
    if name.startswith("cubic_n8"):
        return cubic_config(), False
    parts = name.split("-")
    config = load_config(REPO / "configs" / f"{parts[0]}.yaml")
    estimator = config.estimator
    if parts[2].startswith("luenberger"):
        gain = float(parts[2].partition("_")[2] or 0.0)
        estimator = LuenbergerSpec.from_scalar(gain, config.latency.n)
    config = replace(config, scenario=SCENARIOS[parts[1]], estimator=estimator, rounds=ROUNDS)
    return config, parts[-1] == "envelope"


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_trajectory_csv_bytes(name, tmp_path):
    config, envelope = case(name)
    path = tmp_path / "run.csv"
    write_trajectory_csv(path, simulate(config), config, with_envelope=envelope)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
