"""Self-tests of the benchmark runner.

    python3 -m unittest discover -s benchmark
"""
import copy
import json
import math
import unittest
from pathlib import Path

import run

CLOUD_SCALE = {
    "scenario": "placement_e2e",
    "metrics": [
        {"name": "placement_valid", "value": 1},
        {"name": "agrees_with_placement_utilization", "value": 1},
        {"name": "coresidence_within_tolerance", "value": 1},
        {"name": "lazy_materialized_only_driven", "value": 1},
        {"name": "requests_sent", "value": 5028},
        {"name": "replies_received", "value": 5028},
        {"name": "egress_packets_released", "value": 5028},
        {"name": "driven_replica_placement_errors", "value": 0},
        {"name": "nondeterministic_vms", "value": 0},
        {"name": "divergences", "value": 0},
    ],
    "observability": {"counters": {"net.frames_dropped": 0}},
}
NFS_RPC = {
    "scenario": "fig6_nfs",
    "series": [{"name": "ops_completed", "values": [744, 1489, 2996]}],
    "observability": {"counters": {"net.frames_dropped": 0}},
}
FILE_BULK = {
    "scenario": "fig5_file_download",
    "series": [{"name": "file_size", "values": [1, 10]},
               {"name": "http_baseline_latency", "values": [17.6, 28.7]},
               {"name": "udp_stopwatch_latency", "values": [31.6, 35.4]}],
}
TIMING_CHANNEL = {
    "scenario": "delta_calibration",
    "metrics": [{"name": "min_safe_delta_n", "value": 10}],
}

FLAT_PROFILE = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls   s/call   s/call  name
 40.00      0.40     0.40 32244208     0.00     0.00  stopwatch::sim::Simulator::execute_top()
 20.00      0.60     0.20   568478     0.00     0.00  stopwatch::net::MulticastGroup::send(stopwatch::detail::Id<stopwatch::NodeTag>, unsigned int)
 10.00      0.70     0.10 31102666     0.00     0.00  stopwatch::Rng::normal(double, double)
 10.00      0.80     0.10 28017092     0.00     0.00  std::_Function_handler<stopwatch::VirtTime (), stopwatch::hypervisor::GuestContext::GuestContext()::{lambda()#2}>::_M_invoke(std::_Any_data const&)
 10.00      0.90     0.10                             _init
  5.00      0.95     0.05       12     0.00     0.00  stopwatch::bench::(anonymous namespace)::run(stopwatch::experiment::ScenarioContext const&)
  5.00      1.00     0.05        3     0.00     0.00  void stopwatch::stats::sort_samples<double>(std::vector<double, std::allocator<double> >&)
  0.00      1.00     0.00      100     0.00     0.00  std::vector<int, std::allocator<int> >::push_back(int const&)
"""


def report(result):
    return json.dumps({"schema": "stopwatch-bench/1",
                       "results": [result]}).encode()


class StatisticsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        s = run.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]),
                         (3.0, 1.5, 4.5, 5))

    def test_single_value(self):
        s = run.summarize([7.0])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]),
                         (7.0, 7.0, 7.0, 1))


class CompareTest(unittest.TestCase):
    @staticmethod
    def tight(median):
        return {"median": median, "q1": median * 0.99, "q3": median * 1.01}

    def test_share_bound(self):
        old = self.tight(10.0)
        self.assertEqual(run.compare_metric("wall_s", 0.10, old,
                                            self.tight(10.9)), "ok")
        self.assertEqual(run.compare_metric("wall_s", 0.10, old,
                                            self.tight(11.5)), "regressed")
        self.assertEqual(run.compare_metric("wall_s", 0.10, old,
                                            self.tight(8.0)), "ok")

    def test_setup_absolute_floor(self):
        old = self.tight(0.002)
        # 15x worse but within the 0.05 s floor: a few ms of spawn noise.
        self.assertEqual(run.compare_metric("setup_s", 0.25, old,
                                            self.tight(0.03)), "ok")
        self.assertEqual(run.compare_metric("setup_s", 0.25, old,
                                            self.tight(0.06)), "regressed")
        # Above the floor the share bound applies.
        big = self.tight(1.0)
        self.assertEqual(run.compare_metric("setup_s", 0.25, big,
                                            self.tight(1.2)), "ok")
        self.assertEqual(run.compare_metric("setup_s", 0.25, big,
                                            self.tight(1.3)), "regressed")
        # The floor is setup_s only.
        self.assertEqual(run.compare_metric("wall_s", 0.10, old,
                                            self.tight(0.03)), "regressed")

    def test_zero_bound_and_unresolved(self):
        zero = {"median": 0.0, "q1": 0.0, "q3": 0.0}
        worse = {"median": 0.01, "q1": 0.01, "q3": 0.01}
        self.assertEqual(run.compare_metric("fail_ratio", 0.0, zero, worse),
                         "regressed")
        noisy = {"median": 10.0, "q1": 8.0, "q3": 12.0}
        self.assertEqual(run.compare_metric("wall_s", 0.10, noisy,
                                            self.tight(11.5)), "unresolved")


class GprofGroupingTest(unittest.TestCase):
    def test_module_of(self):
        cases = {
            "stopwatch::sim::Simulator::execute_top()": "sim",
            "stopwatch::Rng::normal(double, double)": "common",
            "stopwatch::detail::Id<stopwatch::net::Frame>::value() const":
                "common",
            "stopwatch::bench::(anonymous namespace)::run(int)": "bench",
            "stopwatch::(anonymous namespace)::helper()": "common",
            "void stopwatch::stats::sort_samples<double>(double*)": "stats",
            "std::_Function_handler<stopwatch::VirtTime (), stopwatch::"
            "hypervisor::GuestContext::f()::{lambda()#2}>::_M_invoke()":
                "hypervisor",
            "std::vector<int, std::allocator<int> >::push_back(int const&)":
                "other",
            "_init": "other",
        }
        for name, module in cases.items():
            self.assertEqual(run.module_of(name), module, name)

    def test_group_flat_profile(self):
        modules, executed = run.group_flat_profile(FLAT_PROFILE)
        self.assertAlmostEqual(modules["sim"][0], 0.40)
        self.assertEqual(modules["sim"][1], 32244208)
        self.assertAlmostEqual(modules["common"][0], 0.10)
        self.assertAlmostEqual(modules["hypervisor"][0], 0.10)
        self.assertAlmostEqual(modules["bench"][0], 0.05)
        self.assertAlmostEqual(modules["stats"][0], 0.05)
        self.assertAlmostEqual(modules["other"][0], 0.10)
        self.assertEqual(modules["other"][1], 100)
        self.assertEqual(executed, 32244208)

    def test_layer_metrics(self):
        modules, executed = run.group_flat_profile(FLAT_PROFILE)
        profile = {"attributed_ns": 95, "other_ns": 5, "phases": [
            {"name": "cloud.run", "calls": 1, "self_ns": 80},
            {"name": "sim.harvest", "calls": 9, "self_ns": 15}]}
        values = run.layer_metrics(profile, modules, executed, timed_wall_s=2.0,
                                   traced_wall_s=3.0, cpu_per_wall=1.0)
        self.assertEqual({n for n, _, _ in run.PER_LAYER}, set(values))
        self.assertAlmostEqual(values["gprof.coverage"], 0.9)
        # 15 ns named by the profiler + 80 ns x 0.9 named by gprof.
        self.assertAlmostEqual(values["trace.attributed_share"], 0.87)
        self.assertAlmostEqual(values["trace.overhead_x"], 1.5)
        self.assertEqual(values["sim.harvest.calls"], 9)
        self.assertAlmostEqual(values["sim.harvest.self_share"], 0.15)
        self.assertEqual(values["sharded.merge.self_share"], 0)
        self.assertAlmostEqual(values["sim.events_per_s"], 32244208 / 2.0)


class InvariantTest(unittest.TestCase):
    def assert_checks(self, name, good, mutate):
        workload = run.WORKLOADS[name]
        self.assertEqual(run.validate(workload, report(good)), [])
        bad = copy.deepcopy(good)
        mutate(bad)
        self.assertNotEqual(run.validate(workload, report(bad)), [])

    @staticmethod
    def set_metric(result, name, value):
        next(m for m in result["metrics"] if m["name"] == name)["value"] = value

    def test_cloud_scale(self):
        self.assert_checks("cloud_scale", CLOUD_SCALE, lambda r: self.set_metric(
            r, "replies_received", 5027))
        self.assert_checks("cloud_scale", CLOUD_SCALE, lambda r: self.set_metric(
            r, "coresidence_within_tolerance", 0))
        self.assert_checks("cloud_scale", CLOUD_SCALE, lambda r: self.set_metric(
            r, "divergences", 2))
        self.assert_checks("cloud_scale", CLOUD_SCALE, lambda r: r[
            "observability"]["counters"].update({"net.frames_dropped": 1}))
        self.assert_checks("cloud_scale", CLOUD_SCALE,
                           lambda r: r["metrics"].pop(0))

    def test_nfs_rpc(self):
        self.assert_checks("nfs_rpc", NFS_RPC, lambda r: r["series"][0][
            "values"].append(0))
        self.assert_checks("nfs_rpc", NFS_RPC,
                           lambda r: r.pop("observability"))

    def test_file_bulk(self):
        self.assert_checks("file_bulk", FILE_BULK, lambda r: r["series"][1][
            "values"].append(math.nan))
        self.assert_checks("file_bulk", FILE_BULK, lambda r: r["series"][2][
            "values"].append(-1.0))

    def test_timing_channel(self):
        self.assert_checks("timing_channel", TIMING_CHANNEL,
                           lambda r: self.set_metric(r, "min_safe_delta_n", 0))

    def test_wrong_scenario_and_garbage(self):
        workload = run.WORKLOADS["nfs_rpc"]
        self.assertNotEqual(run.validate(workload, report(TIMING_CHANNEL)), [])
        self.assertNotEqual(run.validate(workload, b"{not json"), [])

    def test_output_must_repeat(self):
        tally = run.Tally("nfs_rpc")
        first = run.Invocation(1.0, 1.0, 10.0, 0, report(NFS_RPC))
        changed = run.Invocation(1.0, 1.0, 10.0, 0, report(TIMING_CHANNEL))
        crashed = run.Invocation(1.0, 1.0, 10.0, 134, b"")
        for invocation in (first, first, changed, crashed):
            tally.record("main", invocation)
        self.assertEqual((tally.attempted, tally.failed), (4, 2))


class BuildGuardTest(unittest.TestCase):
    CACHE = ("# This is the CMakeCache file.\n"
             "//Choose the type of build\n"
             "CMAKE_BUILD_TYPE:STRING={build_type}\n"
             "CMAKE_CXX_FLAGS:STRING={flags}\n"
             "STOPWATCH_SANITIZE:BOOL={sanitize}\n")

    def problems(self, build_type="Release", flags="", sanitize="OFF"):
        text = self.CACHE.format(build_type=build_type, flags=flags,
                                 sanitize=sanitize)
        return run.build_problems(run.read_cmake_cache(text))

    def test_release_accepted(self):
        self.assertEqual(self.problems(), [])

    def test_debug_rejected(self):
        self.assertEqual(len(self.problems(build_type="Debug")), 1)
        self.assertEqual(len(self.problems(build_type="")), 1)

    def test_instrumented_rejected(self):
        self.assertEqual(len(self.problems(sanitize="ON")), 1)
        self.assertEqual(len(self.problems(flags="-fsanitize=thread")), 1)
        self.assertEqual(len(self.problems(flags="-O2 -pg")), 1)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json must describe exactly what run.py reports."""

    def setUp(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        self.spec = json.loads(path.read_text())

    def test_workloads(self):
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {n: w.why for n, w in run.WORKLOADS.items()})

    def test_metrics(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in self.spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
            list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
