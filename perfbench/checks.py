"""Output checks that decide whether a benchmark operation failed.

An operation fails when it raises, when its output differs between repeats of
the same inputs, when a reference instance's CSV columns move from the
recorded values by more than ``AGREEMENT``, when an obedience verdict or its
slacks differ from the recorded ones, or when an independent check of its
numbers fails.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from routegame import verify_vi

AGREEMENT = 1e-9  # per-column agreement bound for recorded references


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def column_stats(path: Path) -> dict[str, list[float]]:
    """``[min, max, mean]`` of every numeric CSV column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    stats = {}
    for j, name in enumerate(header):
        if name == "omega":  # state labels; the CSV digest covers them
            continue
        col = np.array([float(r[j]) for r in body])
        stats[name] = [float(col.min()), float(col.max()), float(col.mean())]
    return stats


def compare_columns(actual: dict, reference: dict) -> list[str]:
    """Columns missing, added, or off the reference by more than AGREEMENT."""
    errors = [f"column {c} missing" for c in reference if c not in actual]
    errors += [f"column {c} not in the reference" for c in actual if c not in reference]
    for c in reference.keys() & actual.keys():
        off = max(abs(a - r) for a, r in zip(actual[c], reference[c]))
        if off > AGREEMENT:
            errors.append(f"column {c} off the reference by {off:.3g}")
    return errors


def fingerprint(trajectory) -> str:
    """Digest of every number a trajectory holds."""
    h = hashlib.sha256()
    for r in trajectory:
        h.update(np.array([r.k, r.omega, r.theta, r.theta_hat, r.u, r.m_next, r.e_theta,
                           r.flow_gap], dtype=float).tobytes())
        for vec in (r.x, r.x_hat, r.y, r.ell):
            h.update(np.ascontiguousarray(vec, dtype=float).tobytes())
    return h.hexdigest()


def check_trajectory(config, trajectory, samples: int = 25) -> list[str]:
    """Recompute identities of sampled rounds with plain numpy."""
    errors = []
    if len(trajectory) != config.rounds:
        return [f"{len(trajectory)} rounds for {config.rounds} configured"]
    coeffs = config.latency.coeffs
    mass = 1.0 - config.signal.nu
    dynamic = config.scenario.kind == "dynamic_nu"
    picks = sorted(set(np.linspace(0, len(trajectory) - 1, samples).astype(int)))
    for i in picks:
        r = trajectory[i]
        nu_now = trajectory[i - 1].theta if dynamic and i > 0 else config.signal.nu
        f = r.x + r.y
        ell = sum(coeffs[d, r.omega] * f ** d for d in range(coeffs.shape[0]))
        problems = [
            (not 0.0 <= r.theta <= 1.0 or not 0.0 <= r.theta_hat <= 1.0, "theta outside [0, 1]"),
            (r.e_theta != r.theta - r.theta_hat, "e_theta is not theta - theta_hat"),
            (np.any(r.x < -1e-12) or abs(r.x.sum() - nu_now) > 1e-9, "x off its simplex"),
            (np.any(r.y < -1e-12) or abs(r.y.sum() - mass) > 1e-9, "y off its simplex"),
            (np.max(np.abs(ell - r.ell) / np.maximum(1.0, np.abs(ell))) > 1e-12,
             "ell is not the latency of x + y"),
        ]
        if mass > 0 and not dynamic:
            margin = verify_vi(config, r.theta_hat, r.y)
            problems.append((margin < -config.solver_tol, f"VI margin {margin:.3g} of y"))
        errors += [f"round {r.k}: {msg}" for bad, msg in problems if bad]
    return errors


def slack_stats(report) -> list[float]:
    """Worst slacks and ``[min, mean]`` of both slack matrices of an obedience report."""
    obedience, nash = report.obedience_slacks, report.nash_slacks
    return [report.worst_obedience_slack, report.worst_nash_slack,
            float(obedience.min()), float(obedience.mean()),
            float(nash.min()), float(nash.mean())]


def check_report(config, report) -> list[str]:
    """Recompute the slack matrices with plain numpy, and check the witness independently.

    The witness ``y0`` must pass ``verify_vi`` at the config's tolerance.
    """
    mass = 1.0 - config.signal.nu
    y = report.y0.y
    if mass == 0.0:
        errors = [] if not np.any(y) else ["nonzero witness for zero mass"]
    else:
        margin = verify_vi(config, 0.0, y)
        errors = [] if margin >= -config.solver_tol else [f"witness VI margin {margin:.3g}"]
    coeffs, mu0, pi = config.latency.coeffs, config.prior.mu0, config.signal.pi
    full = np.array([sum(coeffs[d, w] * (pi[w] + y) ** d for d in range(coeffs.shape[0]))
                     for w in range(len(mu0))])
    obedience = sum(mu0[w] * pi[w][:, None] * (full[w][:, None] - full[w][None, :])
                    for w in range(len(mu0)))
    expected = mu0 @ full
    nash = y[:, None] * (expected[:, None] - expected[None, :])
    scale = max(1.0, float(np.abs(full).max()))
    for name, mine, theirs in (("obedience", obedience, report.obedience_slacks),
                               ("nash", nash, report.nash_slacks)):
        off = float(np.abs(mine - theirs).max()) / scale
        if off > AGREEMENT:
            errors.append(f"{name} slacks off a plain recomputation by {off:.3g}")
    worst = (float(obedience.max()), float(nash.max()))
    if max(abs(worst[0] - report.worst_obedience_slack),
           abs(worst[1] - report.worst_nash_slack)) / scale > AGREEMENT:
        errors.append("worst slacks are not the maxima of the slack matrices")
    if report.obedient != (report.worst_obedience_slack <= report.tol
                           and report.worst_nash_slack <= report.tol):
        errors.append("verdict disagrees with the worst slacks")
    return errors
