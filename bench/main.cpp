// stopwatch_bench and stopwatch_microbench — the experiment runners. Both
// link this main: stopwatch_bench with the science scenarios of
// bench/scenarios/, stopwatch_microbench with the wall-clock measurements
// of bench/microbench/. Scenarios self-register with the ScenarioRegistry;
// this main only forwards to the CLI driver in the library.
#include "experiment/runner.hpp"

int main(int argc, char** argv) {
  return stopwatch::experiment::run_cli(argc, argv);
}
