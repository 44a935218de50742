// Cost-model properties: the simulated cluster's makespan must shrink
// monotonically with more slots, staying between perfect parallelism and
// serial execution, and the charged seconds of a task must grow with each
// of its costs. Agreement between the engines' shuffle strategies is
// pinned on real plans in plan_test.
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/task_scheduler.h"
#include "common/rng.h"

namespace smartmeter::cluster {
namespace {

TEST(CostModelPropertyTest, MakespanMonotoneInSlots) {
  Rng rng(23);
  std::vector<double> durations(100);
  for (double& d : durations) d = rng.NextDouble();
  double prev = std::numeric_limits<double>::infinity();
  for (int nodes : {1, 2, 4, 8, 16, 32}) {
    ClusterConfig config;
    config.num_nodes = nodes;
    config.slots_per_node = 2;
    TaskWaveRunner runner(config, 0.0);
    const double makespan = runner.Makespan(durations);
    EXPECT_LE(makespan, prev + 1e-12) << nodes;
    // Never better than perfect parallelism, never worse than serial.
    const double total =
        std::accumulate(durations.begin(), durations.end(), 0.0);
    EXPECT_GE(makespan, total / config.total_slots() - 1e-12);
    EXPECT_LE(makespan, total + 1e-12);
    prev = makespan;
  }
}

TEST(CostModelPropertyTest, SimulatedSecondsMonotoneInEachCost) {
  ClusterConfig config;
  TaskWaveRunner runner(config, 0.05);
  TaskStats base;
  base.compute_seconds = 0.1;
  base.input_bytes = 1 << 20;
  base.shuffle_bytes = 1 << 20;
  base.files_opened = 1;
  const double baseline = runner.SimulatedSeconds(base);
  TaskStats more = base;
  more.input_bytes *= 2;
  EXPECT_GT(runner.SimulatedSeconds(more), baseline);
  more = base;
  more.shuffle_bytes *= 2;
  EXPECT_GT(runner.SimulatedSeconds(more), baseline);
  more = base;
  more.files_opened += 5;
  EXPECT_GT(runner.SimulatedSeconds(more), baseline);
  more = base;
  more.compute_seconds *= 2;
  EXPECT_GT(runner.SimulatedSeconds(more), baseline);
}

}  // namespace
}  // namespace smartmeter::cluster
