#!/usr/bin/env python3
"""Scenario-level benchmark of the StopWatch simulator (stdlib only).

Each workload is a pinned invocation of the `stopwatch_bench` experiment
CLI: a scenario name plus `--param` values. The CLI is the surface users
run, so the benchmark does not freeze any internal C++ API.

Timed runs (`--trace 0`, the default) spawn fresh processes with tracing
off through a small launcher (spawn.c) that times fork -> wait4 and reads
CPU time and peak RSS from the child's rusage; correctness comes from the
scenario's `--json` output. Each workload has a fixed-cost twin (the same invocation
with almost no simulated traffic) whose wall time is `setup_s`.

Traced runs (`--trace 1`) give the per-layer split: one run with the
in-program wall-clock profiler (`--profile`) and one run of a `-pg` build
in build-gprof/, whose flat profile is grouped by C++ namespace (module).

    python3 benchmark/run.py                            # 4 workloads x 5 rounds
    python3 benchmark/run.py --workload nfs_rpc --seconds 20 --seed 3
    python3 benchmark/run.py --trace 1                  # per-layer split
    python3 benchmark/run.py --compare OLD.json NEW.json

Run it from anywhere inside a source checkout; it builds build/ with the
tier-1 configure command when needed and refuses to time a build that is
not Release or carries sanitizer/profiling flags. Results go to
build/benchmark/results.json (timed) and build/benchmark/trace.json
(traced); the last stdout line is a one-line JSON summary.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build"
GPROF_BUILD = ROOT / "build-gprof"
OUT = BUILD / "benchmark"
SPAWN = OUT / "spawn"
BINARY = Path("bench") / "stopwatch_bench"
GPROF_CONFIGURE = ("-DCMAKE_BUILD_TYPE=Release", "-DSTOPWATCH_BUILD_TESTS=OFF",
                   "-DSTOPWATCH_BUILD_EXAMPLES=OFF", "-DCMAKE_CXX_FLAGS=-pg",
                   "-DCMAKE_EXE_LINKER_FLAGS=-pg")

INVOCATION_TIMEOUT_S = 150
DEFAULT_ROUNDS = 5      # rounds when no --seconds budget is given
MIN_TIMED_ROUNDS = 3    # floor under a --seconds budget: a median needs 3
# Twins of the small clouds finish in a few ms, where spawn jitter is large,
# so each round repeats the twin until this much wall is spent (capped).
TWIN_BATCH_S = 0.05
TWIN_BATCH_MAX = 10
# setup_s may also worsen by this many seconds before it is a regression:
# the small-cloud twins take 1-10 ms, where a share bound is all noise.
SETUP_FLOOR_S = 0.05
# gprof samples only in-program time at 100 Hz, about 20 samples per second
# of a -pg run; the traced run repeats the -pg invocation until this much
# wall is spent so that module shares rest on a few hundred samples.
GPROF_MIN_S = 20.0


class BenchError(Exception):
    """A condition that makes the benchmark's numbers meaningless."""


# ---------------------------------------------------------------------------
# Correctness checks on one scenario result (the `results[0]` object).
# ---------------------------------------------------------------------------

def _metrics(result: dict) -> dict:
    return {m["name"]: m["value"] for m in result.get("metrics", [])}


def _series(result: dict) -> dict:
    return {s["name"]: s["values"] for s in result.get("series", [])}


def _counters(result: dict) -> dict:
    return result.get("observability", {}).get("counters", {})


def _require(values: dict, key: str, expected: float, errors: list) -> None:
    if key not in values:
        errors.append(f"{key} missing")
    elif values[key] != expected:
        errors.append(f"{key} = {values[key]!r}, expected {expected}")


def check_cloud_scale(result: dict) -> list[str]:
    errors: list[str] = []
    m = _metrics(result)
    for key in ("placement_valid", "agrees_with_placement_utilization",
                "coresidence_within_tolerance", "lazy_materialized_only_driven"):
        _require(m, key, 1, errors)
    for key in ("driven_replica_placement_errors", "nondeterministic_vms",
                "divergences"):
        _require(m, key, 0, errors)
    _require(_counters(result), "net.frames_dropped", 0, errors)
    flow = [m.get(k) for k in
            ("requests_sent", "replies_received", "egress_packets_released")]
    if None in flow or len(set(flow)) != 1 or flow[0] <= 0:
        errors.append("requests_sent, replies_received and "
                      f"egress_packets_released must be equal and > 0: {flow}")
    return errors


def check_nfs_rpc(result: dict) -> list[str]:
    errors: list[str] = []
    ops = _series(result).get("ops_completed")
    if not ops or any(v <= 0 for v in ops):
        errors.append(f"ops_completed must be non-empty and all > 0: {ops}")
    _require(_counters(result), "net.frames_dropped", 0, errors)
    return errors


def check_file_bulk(result: dict) -> list[str]:
    latencies = {k: v for k, v in _series(result).items()
                 if k.endswith("_latency")}
    if not latencies:
        return ["no *_latency series"]
    return [f"{name} has a non-finite or non-positive entry: {values}"
            for name, values in latencies.items()
            if not values or not all(math.isfinite(v) and v > 0
                                     for v in values)]


def check_timing_channel(result: dict) -> list[str]:
    value = _metrics(result).get("min_safe_delta_n")
    if value is None or not value > 0:
        return [f"min_safe_delta_n must be > 0, got {value!r}"]
    return []


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

Params = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Workload:
    scenario: str
    params: Params
    twin: Params            # overrides giving the fixed-cost twin
    check: Callable[[dict], list[str]]
    why: str
    gprof_params: Params = ()   # overrides for the -pg run only

    def argv(self, binary: Path, seed: int, json_path: Path,
             overrides: Params = ()) -> list[str]:
        params = dict(self.params)
        params.update(overrides)
        argv = [str(binary), "--quiet", "--seed", str(seed),
                "--json", str(json_path), "--scenario", self.scenario]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        return argv


WORKLOADS: dict[str, Workload] = {
    "cloud_scale": Workload(
        scenario="placement_e2e",
        params=(("machines", "1503"), ("driven_vms", "32"),
                ("run_time_s", "1"), ("sim_shards", "4")),
        twin=(("driven_vms", "1"), ("run_time_s", "0.05")),
        check=check_cloud_scale,
        # -pg under 4 sim threads runs ~5x slower; the profile run keeps
        # the sharded split.
        gprof_params=(("sim_shards", "1"),),
        why="Theorem-2 placement of 376,251 VMs on 1503 machines, lazy "
            "registration and the only sharded (4 sim threads) run; 32 "
            "open-loop VMs at 40 req/s"),
    "nfs_rpc": Workload(
        scenario="fig6_nfs",
        params=(("run_time_s", "5"),),
        twin=(("run_time_s", "0.01"),),
        check=check_nfs_rpc,
        why="small TCP RPCs through ingress replication and median egress, "
            "5 open-loop loads (25-400 ops/s) x baseline/StopWatch, lazy "
            "wiring"),
    "file_bulk": Workload(
        scenario="fig5_file_download",
        params=(("runs_per_size", "2"),),
        twin=(("size_count", "1"), ("runs_per_size", "1")),
        check=check_file_bulk,
        why="closed-loop 1 KiB-10 MiB HTTP/UDP bulk flows: thousands of MTU "
            "frames and per-packet egress releases on eager wiring"),
    "timing_channel": Workload(
        scenario="delta_calibration",
        params=(("run_time_s", "3"),),
        twin=(("run_time_s", "0.01"),),
        check=check_timing_channel,
        why="the run_timing_scenario path (attacker triple, bursting victim, "
            "broadcast) behind fig4, the ablations and collab_attackers"),
}


def validate(workload: Workload, output: bytes) -> list[str]:
    """Errors in one `--json` report of `workload`'s main invocation."""
    try:
        report = json.loads(output)
        results = report["results"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable JSON report: {e}"]
    if len(results) != 1 or results[0].get("scenario") != workload.scenario:
        return [f"expected one {workload.scenario} result"]
    return workload.check(results[0])


# ---------------------------------------------------------------------------
# Metric definitions. BENCHMARK.json lists the same names (test_run.py
# checks), so this table is the single definition of what a run reports.
# ---------------------------------------------------------------------------

# (name, unit, better, bound as a share of the parent's value)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)
# Recorded and compared but not listed in BENCHMARK.json: fail_ratio is 0
# on a good run, and CPU time is not gated because parallel speed-ups
# legitimately spend more of it.
EXTRA_TIMED = (("fail_ratio", "fraction", "lower", 0.0),
               ("cpu_s", "s", "lower", None))
# The statistic of a run's samples each metric reports (default: median).
# Other tenants of a shared host only ever add wall time, so the lower
# quartile of a run's invocations tracks the code's own cost with about
# two thirds of the run-to-run spread of the median (see README.md).
STAT = {"wall_s": "q1"}

# Profile phase -> layer metric stem (src/ module names; `cloud.run` self
# time is the event-callback bucket of core::Cloud).
PHASES = {
    "cloud.run": "core.run",
    "sim.harvest": "sim.harvest",
    "sim.due_fallback": "sim.due_fallback",
    "policy.release": "hypervisor.policy_release",
    "placement.theorem2": "placement.theorem2",
    "scenario.setup": "experiment.setup",
    "scenario.placement": "experiment.placement",
    "scenario.drive": "experiment.drive",
    "scenario.analysis": "experiment.analysis",
    "sharded.barrier_wait": "sharded.barrier_wait",
    "sharded.merge": "sharded.merge",
}
MODULES = ("common", "core", "experiment", "hypervisor", "leakage", "net",
           "obs", "placement", "sim", "stats", "topology", "transport", "vm",
           "workload", "bench")
EXECUTE_TOP = "stopwatch::sim::Simulator::execute_top()"

PER_LAYER = tuple(
    [spec for stem in PHASES.values()
     for spec in ((f"{stem}.self_share", "fraction", "lower"),
                  (f"{stem}.calls", "count", "lower"))]
    + [spec for module in MODULES + ("other",)
       for spec in ((f"{module}.self_share", "fraction", "lower"),
                    (f"{module}.calls", "count", "lower"))]
    + [("sim.execute_top.calls", "count", "lower"),
       ("sim.events_per_s", "1/s", "higher"),
       ("process.cpu_per_wall", "x", "higher"),
       ("trace.attributed_share", "fraction", "higher"),
       ("trace.overhead_x", "x", "lower"),
       ("gprof.coverage", "fraction", "higher")])


# ---------------------------------------------------------------------------
# Statistics and comparison.
# ---------------------------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median and quartiles, as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def headline(name: str, summary: dict) -> float:
    """The value a metric reports from a run's summary (see STAT)."""
    return summary[STAT.get(name, "median")]


def compare_metric(name: str, bound: float, old: dict, new: dict) -> str:
    """Verdict on `new` against `old` (summaries), lower being better.

    A metric regresses when its headline value worsens by more than `bound`
    of the old one (for setup_s, by more than SETUP_FLOOR_S if that is
    larger). When the old samples spread wider than the allowance and the
    worsening is within that spread, the comparison cannot tell:
    "unresolved".
    """
    before = headline(name, old)
    allowed = bound * before
    if name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    delta = headline(name, new) - before
    spread = old["q3"] - old["q1"]
    if delta <= 0:
        return "ok"
    if spread > allowed and delta <= spread:
        return "unresolved"
    return "ok" if delta <= allowed else "regressed"


def compare_files(old_path: Path, new_path: Path) -> int:
    old = json.loads(old_path.read_text())["workloads"]
    new = json.loads(new_path.read_text())["workloads"]
    bounds = {name: bound for name, _, _, bound in END_TO_END + EXTRA_TIMED
              if bound is not None}
    regressions = 0
    print(f"{'workload':16} {'metric':12} {'old':>12} {'new':>12} "
          f"{'change':>8}  verdict")
    for wl in (w for w in old if w in new):
        for name, bound in bounds.items():
            o, n = old[wl]["metrics"][name], new[wl]["metrics"][name]
            verdict = compare_metric(name, bound, o, n)
            regressions += verdict == "regressed"
            before, after = headline(name, o), headline(name, n)
            change = (after / before - 1) * 100 if before else 0.0
            print(f"{wl:16} {name:12} {before:12.6g} {after:12.6g} "
                  f"{change:+7.1f}%  {verdict}")
        same = old[wl]["sim_digest"] == new[wl]["sim_digest"]
        print(f"{wl:16} sim_digest   {'identical' if same else 'DIFFERENT'}")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# gprof flat profile grouping.
# ---------------------------------------------------------------------------

_FLAT_LINE = re.compile(
    r"^\s*[\d.]+\s+[\d.]+\s+(?P<self>[\d.]+)\s+"
    r"(?:(?P<calls>\d+)\s+[\d.]+\s+[\d.]+\s+)?(?P<name>\S.*?)\s*$")
_MODULE_SCOPE = re.compile(r"stopwatch::(\w+)::")


def module_of(name: str) -> str:
    """The src/ module (C++ namespace) a demangled function belongs to.

    A function's own scope decides when its name starts in `stopwatch::`
    (classes directly in `stopwatch::`, like Rng, are `common`). A template
    or std:: wrapper (std::function handlers, container methods) goes to
    the first stopwatch module among its arguments. Anything else, such as
    libstdc++ code on plain types, is `other`.
    """
    at = name.find("stopwatch::")
    if at < 0:
        return "other"
    if "<" not in name[:at] and "(" not in name[:at]:
        scope, sep, _ = name[at + len("stopwatch::"):].partition("::")
        return scope if sep and scope in MODULES else "common"
    for match in _MODULE_SCOPE.finditer(name):
        if match.group(1) in MODULES:
            return match.group(1)
    return "common"


def group_flat_profile(text: str) -> tuple[dict, int]:
    """({module: [self_s, calls]}, calls of EXECUTE_TOP) from `gprof -b -p`."""
    modules = {m: [0.0, 0] for m in MODULES + ("other",)}
    executed = 0
    for line in text.splitlines():
        match = _FLAT_LINE.match(line)
        if not match:
            continue
        name, count = match["name"], int(match["calls"] or 0)
        bucket = modules[module_of(name)]
        bucket[0] += float(match["self"])
        bucket[1] += count
        if name == EXECUTE_TOP:
            executed += count
    return modules, executed


def layer_metrics(profile: dict, modules: dict, executed: int,
                  timed_wall_s: float, traced_wall_s: float,
                  cpu_per_wall: float) -> dict:
    """Per-layer metric values from one profile run and one gprof run."""
    values: dict[str, float] = {}
    # Shares of all profiled thread time, which exceeds wall time under
    # sim_shards > 1; a phase a workload never enters reads 0.
    profiled = profile["attributed_ns"] + profile["other_ns"]
    phases = {p["name"]: p for p in profile["phases"]}
    for phase, stem in PHASES.items():
        p = phases.get(phase, {"self_ns": 0, "calls": 0})
        values[f"{stem}.self_share"] = p["self_ns"] / profiled
        values[f"{stem}.calls"] = p["calls"]
    sampled = sum(self_s for self_s, _ in modules.values())
    for module, (self_s, count) in modules.items():
        values[f"{module}.self_share"] = self_s / sampled if sampled else 0.0
        values[f"{module}.calls"] = count
    coverage = 1.0 - values["other.self_share"] if sampled else 0.0
    values["sim.execute_top.calls"] = executed
    values["sim.events_per_s"] = executed / timed_wall_s
    values["process.cpu_per_wall"] = cpu_per_wall
    # cloud.run self time is opaque to the profiler; gprof's module split
    # names the share of it that `coverage` says it can.
    run_self = phases.get("cloud.run", {"self_ns": 0})["self_ns"]
    named = profile["attributed_ns"] - run_self
    values["trace.attributed_share"] = (named + run_self * coverage) / profiled
    values["trace.overhead_x"] = traced_wall_s / timed_wall_s
    values["gprof.coverage"] = coverage
    return values


# ---------------------------------------------------------------------------
# Build and manifest.
# ---------------------------------------------------------------------------

def read_cmake_cache(text: str) -> dict:
    cache = {}
    for line in text.splitlines():
        if line.startswith(("#", "//")) or "=" not in line:
            continue
        key, _, value = line.partition("=")
        cache[key.split(":", 1)[0]] = value
    return cache


def build_problems(cache: dict) -> list[str]:
    """Reasons a configured build must not be timed (empty when fine)."""
    problems = []
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        problems.append(f"CMAKE_BUILD_TYPE is {build_type or 'empty'!r}, "
                        "not 'Release'")
    for option in ("STOPWATCH_SANITIZE", "STOPWATCH_SANITIZE_THREAD"):
        if cache.get(option, "OFF").upper() in ("ON", "TRUE", "YES", "1"):
            problems.append(f"{option} is on")
    flags = " ".join(cache.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS")).split()
    for flag in flags:
        if flag.startswith("-fsanitize") or flag == "-pg":
            problems.append(f"compiler/linker flag {flag} is set")
    return problems


def ensure_binary(build_dir: Path, configure: tuple[str, ...] = ()) -> Path:
    """Configure (when new) and build stopwatch_bench in `build_dir`."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a StopWatch source tree "
                         "(no CMakeLists.txt and src/)")
    try:
        if not (build_dir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-B", str(build_dir), "-S", str(ROOT),
                            *configure], stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(build_dir), "-j",
                        str(os.cpu_count() or 1), "--target", "stopwatch_bench"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"building {build_dir.name}/ failed: {e}") from e
    return build_dir / BINARY


def git_state() -> dict:
    try:
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return {"describe": None, "dirty": None}
    return {"describe": describe, "dirty": describe.endswith("-dirty")}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(cache: dict, args: argparse.Namespace) -> dict:
    return {
        "git": git_state(),
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE"),
        "sanitize": cache.get("STOPWATCH_SANITIZE"),
        "sanitize_thread": cache.get("STOPWATCH_SANITIZE_THREAD"),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "seed": args.seed,
        "seconds": args.seconds,
        "min_rounds": args.runs,
    }


# ---------------------------------------------------------------------------
# Timed invocations.
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    output: bytes


def _on_alarm(signum, frame):
    raise BenchError(f"an invocation exceeded {INVOCATION_TIMEOUT_S} s")


def ensure_spawn() -> None:
    """Compile the measuring launcher (see spawn.c for why it exists)."""
    source = ROOT / "benchmark" / "spawn.c"
    if SPAWN.exists() and SPAWN.stat().st_mtime >= source.stat().st_mtime:
        return
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run(["cc", "-O2", "-Wall", "-o", str(SPAWN), str(source)],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"compiling spawn.c failed: {e}") from e


def invoke(argv: list[str], json_path: Path, log_path: Path,
           env: dict | None = None) -> Invocation:
    """Run one process to completion through the spawn launcher; the runner
    blocks in wait4 meanwhile."""
    json_path.unlink(missing_ok=True)
    report = log_path.with_suffix(".rusage")
    report.unlink(missing_ok=True)
    with open(log_path, "wb") as log:
        actions = [(os.POSIX_SPAWN_DUP2, log.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        pid = os.posix_spawn(SPAWN, [str(SPAWN), str(report), *argv],
                             os.environ if env is None else env,
                             file_actions=actions, setpgroup=0)
        try:
            signal.alarm(INVOCATION_TIMEOUT_S)
            _, status, _ = os.wait4(pid, 0)
        except BaseException:
            os.killpg(pid, signal.SIGKILL)  # the launcher and its command
            os.waitpid(pid, 0)
            raise
        finally:
            signal.alarm(0)
    if status != 0 or not report.exists():
        raise BenchError(f"the spawn launcher failed; see {log_path}")
    wall, cpu, maxrss_kib, code = report.read_text().split()
    return Invocation(
        wall_s=float(wall), cpu_s=float(cpu),
        peak_rss_mb=int(maxrss_kib) / 1024.0, exit_code=int(code),
        output=json_path.read_bytes() if json_path.exists() else b"")


class Tally:
    """Samples and failures of one workload within one runner process."""

    def __init__(self, name: str):
        self.name = name
        self.wall_s: list[float] = []
        self.setup_s: list[float] = []
        self.peak_rss_mb: list[float] = []
        self.cpu_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, bytes] = {}

    def record(self, kind: str, run: Invocation,
               check: Callable[[bytes], list[str]] | None = None) -> None:
        """Count `run`; it fails on a non-zero exit, a failed check, or JSON
        that differs from the first run of the same kind."""
        self.attempted += 1
        if run.exit_code != 0:
            errors = [f"exit code {run.exit_code}"]
        else:
            errors = [] if check is None else check(run.output)
            if run.output != self.first.setdefault(kind, run.output):
                errors.append("JSON differs from the first run's")
        if errors:
            self.failed += 1
            self.errors += [f"{self.name} {kind}: {e}" for e in errors]

    def digest(self) -> str:
        return hashlib.sha256(self.first.get("main", b"")).hexdigest()


def rotate(names: list[str], offset: int) -> list[str]:
    k = offset % len(names)
    return names[k:] + names[:k]


def measure(names: list[str], binary: Path, seed: int, min_rounds: int,
            seconds: float, twins: bool = True) -> tuple[dict, list]:
    """Rounds of one sample per workload, in rotated order, until at least
    `min_rounds` ran and another round would end past `seconds`."""
    OUT.mkdir(parents=True, exist_ok=True)
    tallies = {n: Tally(n) for n in names}
    order = []
    start = time.perf_counter()
    rounds, elapsed = 0, 0.0
    while rounds < min_rounds or elapsed + elapsed / rounds <= seconds:
        order.append(rotate(names, rounds))
        for name in order[-1]:
            sample(WORKLOADS[name], tallies[name], binary, seed, twins)
        rounds += 1
        elapsed = time.perf_counter() - start
    return tallies, order


def sample(workload: Workload, tally: Tally, binary: Path, seed: int,
           twins: bool) -> None:
    stem = OUT / tally.name
    log = stem.with_suffix(".log")
    spent, count = 0.0, 0
    while twins and (count == 0 or (spent < TWIN_BATCH_S
                                    and count < TWIN_BATCH_MAX)):
        twin_json = stem.with_suffix(".twin.json")
        run = invoke(workload.argv(binary, seed, twin_json, workload.twin),
                     twin_json, log)
        tally.record("twin", run)
        tally.setup_s.append(run.wall_s)
        spent, count = spent + run.wall_s, count + 1
    main_json = stem.with_suffix(".json")
    run = invoke(workload.argv(binary, seed, main_json), main_json, log)
    tally.record("main", run, lambda out: validate(workload, out))
    tally.wall_s.append(run.wall_s)
    tally.cpu_s.append(run.cpu_s)
    tally.peak_rss_mb.append(run.peak_rss_mb)


def timed_summary(tally: Tally) -> dict:
    units = {name: unit for name, unit, _, _ in END_TO_END + EXTRA_TIMED}
    metrics = {name: summarize(getattr(tally, name))
               for name in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s")}
    metrics["fail_ratio"] = summarize([tally.failed / tally.attempted])
    for name, summary in metrics.items():
        summary["unit"] = units[name]
    return {"metrics": metrics, "sim_digest": tally.digest(),
            "attempted": tally.attempted, "failed": tally.failed,
            "errors": tally.errors}


# ---------------------------------------------------------------------------
# Traced runs.
# ---------------------------------------------------------------------------

def trace_workload(name: str, binary: Path, gprof_binary: Path, seed: int,
                   min_rounds: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    tallies, _ = measure([name], binary, seed, min_rounds, seconds, twins=False)
    tally = tallies[name]
    timed_wall = statistics.median(tally.wall_s)
    cpu_per_wall = statistics.median(
        c / w for c, w in zip(tally.cpu_s, tally.wall_s))
    check = lambda out: validate(workload, out)  # noqa: E731

    stem = OUT / name
    main_json, log = stem.with_suffix(".json"), stem.with_suffix(".log")
    profile_path = stem.with_suffix(".profile.json")
    run = invoke(workload.argv(binary, seed, main_json)
                 + ["--profile", str(profile_path)], main_json, log)
    tally.record("main", run, check)  # the profiler must not change outputs
    traced_wall = run.wall_s
    profile = (json.loads(profile_path.read_text())
               if run.exit_code == 0 and profile_path.exists() else None)

    gmon_dir = GPROF_BUILD / "benchmark"
    gmon_dir.mkdir(parents=True, exist_ok=True)
    for stale in gmon_dir.glob(f"gmon.{name}.*"):
        stale.unlink()
    env = dict(os.environ, GMON_OUT_PREFIX=str(gmon_dir / f"gmon.{name}"))
    repeats, spent = 0, 0.0
    while repeats == 0 or spent < GPROF_MIN_S:
        run = invoke(workload.argv(gprof_binary, seed, main_json,
                                   workload.gprof_params), main_json, log, env)
        tally.record("gprof" if workload.gprof_params else "main", run, check)
        if run.exit_code != 0:
            break
        repeats, spent = repeats + 1, spent + run.wall_s
    gmon = sorted(gmon_dir.glob(f"gmon.{name}.*"))
    if profile is None or run.exit_code != 0 or len(gmon) != repeats:
        raise BenchError(f"{name}: traced runs failed: {tally.errors}")
    try:
        flat = subprocess.run(
            ["gprof", "-b", "-p", "--demangle", str(gprof_binary), *map(str, gmon)],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"gprof failed: {e}") from e
    # gprof sums the repeats; call counts repeat exactly, so scale them back
    # to one invocation.
    modules, executed = group_flat_profile(flat)
    for bucket in modules.values():
        bucket[1] //= repeats
    values = layer_metrics(profile, modules, executed // repeats, timed_wall,
                           traced_wall, cpu_per_wall)
    counters = {}
    if "main" in tally.first:
        report = json.loads(tally.first["main"])["results"][0]
        counters = report.get("observability", {}).get("counters", {})
    return {"metrics": values, "sim_digest": tally.digest(),
            "profile": profile, "gprof_modules": modules,
            "observability_counters": counters,
            "attempted": tally.attempted, "failed": tally.failed,
            "errors": tally.errors}


# ---------------------------------------------------------------------------
# Reporting and entry point.
# ---------------------------------------------------------------------------

def print_timed(results: dict) -> None:
    print(f"{'workload':16} {'metric':12} {'unit':9} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'n':>4}")
    for wl, res in results.items():
        for name, s in res["metrics"].items():
            print(f"{wl:16} {name:12} {s['unit']:9} {s['median']:11.5g} "
                  f"{s['q1']:11.5g} {s['q3']:11.5g} {s['n']:4d}")
        print(f"{wl:16} sim_digest   {res['sim_digest']}")


def print_traced(results: dict) -> None:
    units = {name: unit for name, unit, _ in PER_LAYER}
    names = list(results)
    print(f"{'per-layer metric':32} {'unit':9} "
          + " ".join(f"{n:>15}" for n in names))
    for metric, unit in units.items():
        print(f"{metric:32} {unit:9} " + " ".join(
            f"{results[n]['metrics'][metric]:15.6g}" for n in names))
    for n in names:
        m = results[n]["metrics"]
        print(f"{n}: trace.attributed_share {m['trace.attributed_share']:.3f}, "
              f"gprof.coverage {m['gprof.coverage']:.3f}, "
              f"trace.overhead_x {m['trace.overhead_x']:.2f}, "
              f"sim_digest {results[n]['sim_digest']}")


def summary_line(results: dict, specs, value_of) -> dict:
    """The one-line JSON summary printed last: one workload's metrics by
    bare name, several workloads' prefixed with `<workload>.`."""
    metrics = {}
    for wl, res in results.items():
        for name, unit, *_ in specs:
            key = name if len(results) == 1 else f"{wl}.{name}"
            metrics[key] = {"value": value_of(res, name), "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="scenario RNG seed (default 1)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding rounds while they end within this "
                             "many seconds (default 0: just --runs rounds)")
    parser.add_argument("--runs", type=int, default=None,
                        help=f"minimum rounds (default {DEFAULT_ROUNDS}, or "
                             f"{MIN_TIMED_ROUNDS} under --seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer traced runs")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two results.json files and exit")
    args = parser.parse_args(argv)
    if args.runs is None:
        args.runs = MIN_TIMED_ROUNDS if args.seconds else DEFAULT_ROUNDS
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    signal.signal(signal.SIGALRM, _on_alarm)
    names = args.workload or list(WORKLOADS)
    try:
        binary = ensure_binary(BUILD)
        cache = read_cmake_cache((BUILD / "CMakeCache.txt").read_text())
        problems = build_problems(cache)
        if problems:
            raise BenchError("refusing to time build/: " + "; ".join(problems))
        info = manifest(cache, args)
        ensure_spawn()
        if args.trace:
            gprof_binary = ensure_binary(GPROF_BUILD, GPROF_CONFIGURE)
            results, order = {}, []
            for name in names:
                print(f"tracing {name}", file=sys.stderr)
                results[name] = trace_workload(
                    name, binary, gprof_binary, args.seed, args.runs,
                    args.seconds)
                order.append(name)
            print_traced(results)
            line = summary_line(results, PER_LAYER,
                                lambda r, n: r["metrics"][n])
            out_path = OUT / "trace.json"
        else:
            tallies, order = measure(names, binary, args.seed, args.runs,
                                     args.seconds)
            results = {n: timed_summary(t) for n, t in tallies.items()}
            print_timed(results)
            line = summary_line(results, END_TO_END,
                                lambda r, n: headline(n, r["metrics"][n]))
            out_path = OUT / "results.json"
    except (BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    info["loadavg_after"] = list(os.getloadavg())
    info["workload_order"] = order
    OUT.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"manifest": info, "workloads": results},
                                   indent=2) + "\n")
    for res in results.values():
        for error in res["errors"]:
            print(f"FAILED: {error}", file=sys.stderr)
    print(f"wrote {out_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
