"""Per-layer metrics from traced passes over a workload's three operations.

The layers are the package modules.  Each traced name is wrapped in every
module namespace that calls it, because ``dynamics``, ``equilibrium`` and
``cli`` bind their collaborators at import.  End-to-end timings never come
from here: they come from separate untraced runs.
"""

from __future__ import annotations

import time

from tracer import Tracer, span_cost_ns

MIN_STEP_SHARE = 0.9  # step spans must cover this share of traced simulate time
TRACE_SECONDS = 1.0   # least traced time per operation, so one-call passes repeat


def sites():
    from routegame import cli, dynamics, equilibrium, model
    return [
        ("dynamics.simulate", dynamics, "simulate"),
        ("dynamics.simulate", cli, "simulate"),
        ("dynamics.step", dynamics, "step"),
        ("model.eval_latency", dynamics, "eval_latency"),
        ("model.eval_latency", equilibrium, "eval_latency"),
        ("model.p_flows", dynamics, "p_flows"),
        ("model.forecast_flows", dynamics, "forecast_flows"),
        ("model.forecast_flows", equilibrium, "forecast_flows"),
        ("model.GameConfig", model.GameConfig, "__post_init__"),
        ("equilibrium.solve_bwe", dynamics, "solve_bwe"),
        ("equilibrium.solve_bwe", equilibrium, "solve_bwe"),
        ("equilibrium.project_simplex", equilibrium, "project_simplex"),
        ("equilibrium.check_obedience", equilibrium, "check_obedience"),
        ("equilibrium.check_obedience", cli, "check_obedience"),
        ("estimators.smoothing_update", dynamics, "smoothing_update"),
        ("estimators.luenberger_update", dynamics, "luenberger_update"),
        ("estimators.envelope_series", dynamics, "envelope_series"),
        ("dynamics.instantaneous_regret", dynamics, "instantaneous_regret"),
        ("dynamics.regret_update", dynamics, "regret_update"),
        ("dynamics.write_trajectory_csv", cli, "write_trajectory_csv"),
        ("cli.load_config", cli, "load_config"),
        ("cli.cmd_simulate", cli, "cmd_simulate"),
    ]


class SolveCounts:
    """Iterations read off each ``solve_bwe`` result."""

    def __init__(self):
        self.iterations = 0

    def __call__(self, args, kwargs, result) -> None:
        self.iterations += result.iterations


def _untraced_pass_seconds(bench, seconds: float = TRACE_SECONDS) -> float:
    """Mean untraced time of a simulate pass, over passes that fill ``seconds``."""
    total, passes = 0.0, 0
    while not passes or total < seconds:
        total += sum(bench.sim_call(i) or 0.0 for i in range(len(bench.timed)))
        passes += 1
    return total / passes


def _traced(pass_fn, seconds: float = TRACE_SECONDS):
    """Traced passes until ``seconds`` have passed; returns the pass count too."""
    counts = SolveCounts()
    tracer = Tracer(sites(), observers={"equilibrium.solve_bwe": counts})
    passes, deadline = 0, time.perf_counter() + seconds
    with tracer:
        while not passes or time.perf_counter() < deadline:
            pass_fn()
            passes += 1
    return tracer, counts, passes


def layer_metrics(bench) -> dict:
    """Every per-layer metric of the workload as ``name -> (value, unit)``."""
    wl, led = bench.wl, bench.ledger
    cost = span_cost_ns()
    untraced = _untraced_pass_seconds(bench)
    sim, sim_counts, sim_passes = _traced(lambda: bench.run_pass("simulate"))
    obe, obe_counts, obe_passes = _traced(lambda: bench.run_pass("check_obedience"))
    bench.run_pass("cli")  # untraced warm-up of the CLI's own code paths
    cli, _, _ = _traced(lambda: bench.run_pass("cli"), 0.0)
    for label, tracer in (("simulate", sim), ("obedience", obe), ("cli", cli)):
        led.op(f"trace accounting {label}",
               [] if tracer.consistent() else ["a span's children exceed its total"])

    rounds, checks = bench.rounds * sim_passes, len(wl.obedience_configs) * obe_passes
    span = sim.span
    steps, simulate = span("dynamics.step"), span("dynamics.simulate")
    step_share = steps.total_ns / simulate.total_ns if simulate.total_ns else 0.0
    led.op("step coverage", [] if step_share >= MIN_STEP_SHARE else
           [f"step spans cover {step_share:.3f} of traced simulate time"])
    traced = simulate.total_ns / 1e9 / sim_passes

    m = {"dynamics.step.self_us": (steps.per_call_us(self_only=True), "us"),
         "dynamics.step.simulate_share": (step_share, "ratio")}
    for name in ("model.eval_latency", "model.p_flows", "model.forecast_flows"):
        m[f"{name}.us"] = (span(name).per_call_us(), "us")
        m[f"{name}.calls_per_round"] = (span(name).calls / rounds, "1/round")
    validate = span("model.GameConfig")
    m["model.GameConfig.validate_us"] = (validate.per_call_us(), "us")
    m["model.GameConfig.calls_per_round"] = (validate.calls / rounds, "1/round")
    solves = span("equilibrium.solve_bwe")
    m["equilibrium.solve_bwe.self_us"] = (solves.per_call_us(self_only=True), "us")
    m["equilibrium.solve_bwe.iterations_per_call"] = (
        sim_counts.iterations / solves.calls if solves.calls else 0.0, "count")

    # check_obedience solves from the uniform point, the cold path, so every
    # projection there is an Armijo trial step.
    cold, proj = obe.span("equilibrium.solve_bwe"), obe.span("equilibrium.project_simplex")
    m["equilibrium.solve_bwe.cold_ms"] = (cold.per_call_us() / 1e3, "ms")
    m["equilibrium.solve_bwe.cold_iterations"] = (
        obe_counts.iterations / cold.calls if cold.calls else 0.0, "count")
    m["equilibrium.project_simplex.us"] = (proj.per_call_us(), "us")
    m["equilibrium.project_simplex.calls_per_round"] = (proj.calls / checks, "1/check")
    m["equilibrium.armijo_accept_ratio"] = (
        obe_counts.iterations / proj.calls if proj.calls else 0.0, "ratio")
    m["equilibrium.check_obedience.self_ms"] = (
        obe.span("equilibrium.check_obedience").per_call_us(self_only=True) / 1e3, "ms")

    for name in ("estimators.smoothing_update", "estimators.luenberger_update",
                 "dynamics.instantaneous_regret", "dynamics.regret_update"):
        m[f"{name}.us"] = (span(name).per_call_us(), "us")
    m["estimators.envelope_series.ms"] = (
        cli.span("estimators.envelope_series").per_call_us() / 1e3, "ms")

    export = cli.span("dynamics.write_trajectory_csv")
    rows = bench.rounds * export.calls / len(wl.sim_configs)
    m["dynamics.write_trajectory_csv.us_per_row"] = (export.total_ns / 1e3 / rows if rows else 0.0,
                                                     "us")
    m["dynamics.write_trajectory_csv.bytes_per_row"] = (
        bench.csv_bytes / bench.rounds if export.calls else 0.0, "B")
    m["cli.load_config.ms"] = (cli.span("cli.load_config").per_call_us() / 1e3, "ms")
    m["cli.cmd_simulate.self_s"] = (
        cli.span("cli.cmd_simulate").per_call_us(self_only=True) / 1e6, "s")
    m["trace.span_cost_ns"] = (cost, "ns")
    m["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return m
