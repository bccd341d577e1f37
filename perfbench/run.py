"""routegame benchmark: one workload per run, end-to-end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-affine --seed 0 --seconds 15 --trace 0

``--trace 0`` times the end-to-end metrics with tracing off, in sampling
processes (``--worker``) that it starts one after another and waits for;
``--trace 1`` makes a separate traced run for the per-layer metrics.  Both
check every output.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 perfbench/run.py --record`` rewrites ``perfbench/reference.json``
from the seed-0 instance of every workload.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
REFERENCE_VERDICTS = 64  # recorded obedience verdicts per workload
PEAK_CONFIGS = 16        # simulate and check_obedience calls in the memory pass
WORKERS = 3              # sampling processes per end-to-end run
WORKERS_DONE = 160       # seconds into a run by which the last worker must end; a run
                         # must end within 180
GC_EVERY = 0.25          # seconds between garbage collections while sampling
# The host has two shared cores, and numpy's OpenBLAS would start one thread
# per core for every mat-vec.  Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_package():
    src = ROOT / "src"
    if not (src / "routegame" / "__init__.py").is_file():
        sys.exit(f"error: no routegame package at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import routegame
    if Path(routegame.__file__).resolve().parent != (src / "routegame").resolve():
        sys.exit(f"error: imported routegame from {routegame.__file__}, not from {src}")


@dataclass
class Ledger:
    """Operations attempted and the first error of each one that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def op(self, label: str, errors) -> bool:
        self.attempted += 1
        if errors:
            self.failures.append(f"{label}: {errors[0]}")
        return not errors

    def guard(self, label: str, fn):
        """Run fn; an exception fails the operation and yields None."""
        try:
            return fn()
        except Exception as exc:  # any error of the package is a failed operation
            self.op(label, [f"raised {exc!r}"])
            return None


@dataclass
class Expected:
    """Outputs of one untimed pass, which every later repeat must reproduce."""

    fingerprints: list
    csv_sha: list
    verdicts: list
    witnesses: list
    slacks: list


def _slack_bytes(report) -> bytes:
    return (report.obedience_slacks.tobytes() + report.nash_slacks.tobytes()
            + repr((report.worst_obedience_slack, report.worst_nash_slack)).encode())


def _count(samples: dict) -> str:
    counts = sorted(n for _, n in samples.values())
    return f"{counts[0]}-{counts[-1]} of {len(counts)} items" if counts else "none"


class Bench:
    """One workload's operations, their output checks, and the timed and memory passes."""

    def __init__(self, wl, work: Path, ledger: Ledger):
        from routegame import cli, dynamics, equilibrium
        self.wl, self.work, self.ledger = wl, work, ledger
        self.cli, self.dynamics, self.equilibrium = cli, dynamics, equilibrium
        self.timed = [replace(c, rounds=min(c.rounds, wl.timed_rounds)) for c in wl.sim_configs]
        self.rounds = sum(c.rounds for c in self.timed)
        self.exp: Expected | None = None
        self.csv_bytes = 0
        self.operations = {  # name -> (call on item i, number of items)
            "setup": (self.setup_call, wl.setup_items),
            "simulate": (self.sim_call, len(self.timed)),
            "cli": (self.cli_call, len(wl.cli_argvs)),
            "check_obedience": (self.obedience_call, len(wl.obedience_configs)),
        }

    def write_csv(self, path: Path, trajectory, config) -> Path:
        self.dynamics.write_trajectory_csv(path, trajectory, config,
                                           with_envelope=self.wl.envelope)
        return path

    def prepare(self) -> None:
        """Untimed warm-up pass of the library operations.

        It runs the independent checks and records the outputs that every
        timed repeat must reproduce.  CLI calls are checked against these
        outputs as they run.
        """
        from checks import check_report, check_trajectory, fingerprint, sha256
        led = self.ledger
        exp = Expected([], [], [], [], [])
        for i, cfg in enumerate(self.timed):
            traj = led.guard(f"simulate {i}", lambda: self.dynamics.simulate(cfg))
            if traj is None:
                raise RuntimeError(f"simulate {i} failed: {led.failures[-1]}")
            led.op(f"simulate {i}", check_trajectory(cfg, traj))
            exp.fingerprints.append(fingerprint(traj))
            path = self.write_csv(self.work / f"lib{i}.csv", traj, cfg)
            exp.csv_sha.append(sha256(path))
            self.csv_bytes += path.stat().st_size
        for i, cfg in enumerate(self.wl.obedience_configs):
            rep = led.guard(f"check_obedience {i}", lambda: self.equilibrium.check_obedience(cfg))
            if rep is None:
                raise RuntimeError(f"check_obedience {i} failed: {led.failures[-1]}")
            led.op(f"check_obedience {i}", check_report(cfg, rep))
            exp.verdicts.append(rep.obedient)
            exp.witnesses.append(rep.y0.y.tobytes())
            exp.slacks.append(_slack_bytes(rep))
        self.exp = exp

    def sim_call(self, i: int) -> float | None:
        """Library simulate of timed config i; its time, or None if it failed."""
        from checks import fingerprint
        cfg = self.timed[i]
        start = time.perf_counter()
        traj = self.ledger.guard(f"simulate {i}", lambda: self.dynamics.simulate(cfg))
        elapsed = time.perf_counter() - start
        if traj is None:
            return None
        same = fingerprint(traj) == self.exp.fingerprints[i]
        ok = self.ledger.op(f"simulate {i}", [] if same else ["trajectory differs between repeats"])
        return elapsed if ok else None

    def cli_call(self, i: int) -> float | None:
        """CLI call i with stdout captured; its wall time, or None if it failed."""
        from checks import sha256
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.ledger.guard(f"cli {i}", lambda: self.cli.main(self.wl.cli_argvs[i]))
        elapsed = time.perf_counter() - start
        if code is None:
            return None
        if self.wl.cli_simulates:
            out_dir = Path(os.environ["ROUTEGAME_OUT"])
            csvs = list(out_dir.glob("*.csv"))
            errors = ([f"exit code {code}"] if code != 0 else
                      ["no manifest.json"] if not (out_dir / "manifest.json").is_file() else
                      [f"{len(csvs)} CSV files for one seed"] if len(csvs) != 1 else
                      [] if sha256(csvs[0]) == self.exp.csv_sha[i] else
                      ["CSV bytes differ from the library run"])
        else:
            want = 0 if self.exp.verdicts[i] else 2
            errors = [] if code == want else [f"exit code {code}, verdict says {want}"]
        return elapsed if self.ledger.op(f"cli {i}", errors) else None

    def obedience_call(self, i: int) -> float | None:
        """check_obedience on config i; its time, or None if it failed."""
        cfg = self.wl.obedience_configs[i]
        start = time.perf_counter()
        rep = self.ledger.guard(f"check_obedience {i}",
                                lambda: self.equilibrium.check_obedience(cfg))
        elapsed = time.perf_counter() - start
        if rep is None:
            return None
        same = (rep.obedient == self.exp.verdicts[i]
                and rep.y0.y.tobytes() == self.exp.witnesses[i]
                and _slack_bytes(rep) == self.exp.slacks[i])
        ok = self.ledger.op(f"check_obedience {i}",
                            [] if same else ["report differs between repeats"])
        return elapsed if ok else None

    def setup_call(self, i: int) -> float | None:
        start = time.perf_counter()
        done = self.ledger.guard(f"setup {i}", lambda: self.wl.setup(i))
        elapsed = time.perf_counter() - start
        return elapsed if done is not None and self.ledger.op(f"setup {i}", []) else None

    def run_pass(self, name: str) -> None:
        """One call on every item of an operation."""
        call, items = self.operations[name]
        for i in range(items):
            call(i)

    def peak_mem_mib(self) -> float:
        """Traced-allocation peak of full-length simulate, CSV export and check_obedience."""
        tracemalloc.start()
        try:
            for cfg in self.wl.sim_configs[:PEAK_CONFIGS]:
                traj = self.dynamics.simulate(cfg)
                self.write_csv(self.work / "peak.csv", traj, cfg)
                del traj
            for cfg in self.wl.obedience_configs[:PEAK_CONFIGS]:
                self.equilibrium.check_obedience(cfg)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def sample(self, seconds: float) -> dict:
        """Interleaved calls of every operation until ``seconds`` have passed.

        Each step runs one call of the operation that is furthest below its
        share of the run's time, cycling through that operation's items, so
        the samples of every item spread over the whole pass.  As in
        ``timeit``, the garbage collector is paused during the calls and run
        between them: otherwise a collection lands in whichever call crosses
        its threshold, and that moved one item's fastest time by up to 50%
        between seeds and processes.  Returns
        ``operation -> item -> [fastest time, samples]``.
        """
        shares = self.wl.shares
        fastest = {name: {} for name in shares}
        spent = dict.fromkeys(shares, 0.0)
        calls = dict.fromkeys(shares, 0)
        gc.collect()
        gc.disable()
        try:
            now = time.perf_counter()
            deadline, next_collect = now + seconds, now + GC_EVERY
            while now < deadline:
                name = min(shares, key=lambda k: spent[k] / shares[k])
                call, items = self.operations[name]
                i = calls[name] % items
                calls[name] += 1
                elapsed = call(i)
                spent[name] += time.perf_counter() - now
                if elapsed is not None:
                    best = fastest[name].setdefault(i, [elapsed, 0])
                    best[0] = min(best[0], elapsed)
                    best[1] += 1
                now = time.perf_counter()
                if now >= next_collect:
                    gc.collect()
                    now = time.perf_counter()
                    next_collect = now + GC_EVERY
        finally:
            gc.enable()
        return fastest


def end_to_end(bench: Bench, seconds: float, started: float) -> dict:
    """End-to-end metrics from ``WORKERS`` sampling processes run one after another.

    Other tenants of the host slow it by up to 2x, in bursts from under a
    millisecond to minutes, and a process can run 1.4x slower than the next
    one for its whole life.  Each worker samples for an equal part of
    ``seconds``; an item (a config, a CLI call or the set-up) is scored by
    its fastest sample across the workers, its cost with the least
    interference, which also discards warm-up repeats.  Items are combined by
    their median, and for ``check_obedience`` also by their 90th percentile.
    Each worker may use an equal part of the time left until ``WORKERS_DONE``
    seconds after ``started``, so a hung worker cannot keep the run past its
    time limit.  Returns ``name -> (value, unit)``.
    """
    ledger, wl = bench.ledger, bench.wl
    fastest = {}
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", wl.name,
            "--seed", str(wl.seed), "--seconds", repr(seconds / WORKERS)]
    for k in range(WORKERS):
        timeout = max((started + WORKERS_DONE - time.perf_counter()) / (WORKERS - k), 1.0)
        try:
            out = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            ledger.op(f"worker {k}", [f"timed out after {timeout:.0f} s"])
            continue
        if out.returncode != 0:
            ledger.op(f"worker {k}", [f"exit code {out.returncode}: {out.stderr.strip()[-300:]}"])
            continue
        res = json.loads(out.stdout.strip().splitlines()[-1])
        ledger.attempted += res["attempted"]
        ledger.failures += res["failures"]
        for name, items in res["fastest"].items():
            merged = fastest.setdefault(name, {})
            for i, (t, n) in items.items():
                best = merged.setdefault(int(i), [t, 0])
                best[0] = min(best[0], t)
                best[1] += n
    print("samples per item: " + ", ".join(f"{k} {_count(v)}" for k, v in fastest.items()))

    def times(name):
        return [t for t, _ in fastest.get(name, {}).values()]

    m = {}
    if times("setup"):
        m["setup_s"] = (statistics.median(times("setup")), "s")
    if times("simulate"):
        m["rounds_per_s"] = (statistics.median(bench.timed[i].rounds / t
                                               for i, (t, _) in fastest["simulate"].items()),
                             "1/s")
    if times("cli"):
        m["cli_wall_s"] = (statistics.median(times("cli")), "s")
    if times("check_obedience"):
        fastest_ms = [t * 1e3 for t in times("check_obedience")]
        m["obedience_ms"] = (statistics.median(fastest_ms), "ms")
        m["obedience_ms_p90"] = (statistics.quantiles(fastest_ms, n=10)[-1]
                                 if len(fastest_ms) > 1 else fastest_ms[0], "ms")
    m["peak_mem_mib"] = (bench.peak_mem_mib(), "MiB")
    return m


def _host() -> dict:
    import numpy as np
    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "pinning": "unpinned"}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3") and (idx / "type").read_text().strip() != "Instruction":
                info[f"l{level}"] = (idx / "size").read_text().strip()
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    return info


def reference_data(name: str, work: Path) -> dict:
    """CSV digest, column statistics, verdicts and slacks of the workload's seed-0 instance."""
    import workloads
    from checks import column_stats, sha256, slack_stats
    wl = workloads.build(name, 0, ROOT, work)
    bench = Bench(wl, work, Ledger())
    cfg = wl.sim_configs[0]
    path = bench.write_csv(work / "reference.csv", bench.dynamics.simulate(cfg), cfg)
    reports = [bench.equilibrium.check_obedience(c)
               for c in wl.obedience_configs[:REFERENCE_VERDICTS]]
    return {"seed": 0, "csv_sha256": sha256(path), "columns": column_stats(path),
            "verdicts": [r.obedient for r in reports], "slacks": [slack_stats(r) for r in reports]}


def check_reference(name: str, work: Path, ledger: Ledger) -> None:
    from checks import AGREEMENT, compare_columns
    recorded = json.loads(REFERENCE.read_text())[name]
    actual = ledger.guard("reference", lambda: reference_data(name, work))
    if actual is None:
        return
    errors = compare_columns(actual["columns"], recorded["columns"])
    if actual["verdicts"] != recorded["verdicts"]:
        errors.append("obedience verdicts differ from the recorded ones")
    off = max(abs(a - r) for mine, theirs in zip(actual["slacks"], recorded["slacks"])
              for a, r in zip(mine, theirs))
    if off > AGREEMENT:
        errors.append(f"obedience slacks off the recorded ones by {off:.3g}")
    ledger.op("reference", errors)
    bytes_match = actual["csv_sha256"] == recorded["csv_sha256"]
    print(f"reference seed 0: csv sha256 {actual['csv_sha256']} "
          f"(bytes match recorded: {'yes' if bytes_match else 'NO'}; "
          f"columns and slacks within {AGREEMENT:g}: {'no' if errors else 'yes'})")


def record() -> int:
    import workloads
    work = WORK / f"record-{os.getpid()}"
    try:
        data = {name: reference_data(name, work / name) for name in workloads.NAMES}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from every workload's seed-0 instance")
    parser.add_argument("--worker", action="store_true",
                        help="sample for --seconds and print the fastest samples (used by the run)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    _import_package()
    if args.record:
        return record()
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    work = WORK / f"{args.workload}-{os.getpid()}"
    os.environ["ROUTEGAME_OUT"] = str(work / "cli")
    try:
        ledger = Ledger()
        wl = workloads.build(args.workload, args.seed, ROOT, work)
        bench = Bench(wl, work, ledger)
        if args.worker:
            bench.prepare()
            fastest = bench.sample(args.seconds)
            print(json.dumps({"attempted": ledger.attempted, "failures": ledger.failures,
                              "fastest": fastest}))
            return 0
        print("host: " + json.dumps(_host()))
        print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
        check_reference(args.workload, work / "reference", ledger)
        bench.prepare()
        print(f"csv sha256 of seed {args.seed}: {bench.exp.csv_sha[0]}")
        if args.trace:
            from layers import layer_metrics
            metrics = layer_metrics(bench)
        else:
            metrics = end_to_end(bench, args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for msg in ledger.failures[:20]:
        print(f"FAILED {msg}")
    print(f"failed_frac: {len(ledger.failures) / ledger.attempted:.6g} "
          f"({len(ledger.failures)} of {ledger.attempted} operations)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value!r} {unit}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
