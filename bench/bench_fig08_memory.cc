// Reproduces Figure 8(a-d): memory consumption of each algorithm on
// Matlab, MADLib and System C (average RSS sampled during the run, the
// paper's `free -m` methodology).
//
// Expected shape (paper): Matlab and System C lowest (per-file streaming
// and one resident copy of the columns respectively); MADLib higher;
// similarity by far the most memory-hungry task, 3-line the least.
#include <cstdio>

#include "bench_common.h"
#include "common/memory_probe.h"
#include "engines/benchmark_runner.h"
#include "engines/engine_factory.h"

namespace {

using namespace smartmeter;         // NOLINT
using namespace smartmeter::bench;  // NOLINT

int Run(BenchContext& ctx) {
  const double paper_gb = ctx.flags().GetDouble("paper-gb", 5.0);
  const int households = ctx.HouseholdsForPaperGb(paper_gb);
  PrintHeader("Figure 8: memory consumption per algorithm and platform",
              StringPrintf("%d households (~%.1f paper-GB); average RSS "
                           "delta over the task, sampled every 20 ms",
                           households, ctx.PaperGbForHouseholds(households)));
  PrintRow({"task", "matlab (MB)", "madlib (MB)", "system-c (MB)"});
  PrintDivider(4);

  for (core::TaskType task : core::kAllTasks) {
    std::vector<std::string> cells = {std::string(core::TaskName(task))};
    for (engines::EngineKind kind :
         {engines::EngineKind::kMatlab, engines::EngineKind::kMadlib,
          engines::EngineKind::kSystemC}) {
      engines::EngineFactoryOptions factory;
      factory.spool_dir = ctx.SpoolDir("fig08");
      auto engine = engines::MakeEngine(kind, factory);
      auto source = (kind == engines::EngineKind::kMatlab)
                        ? ctx.PartitionedDir(households)
                        : ctx.SingleCsv(households);
      if (!source.ok()) return 1;
      const int64_t baseline = CurrentRssBytes();
      if (!engine->Attach(*source).ok()) return 1;
      engines::TaskOptions request = engines::TaskOptions::Default(task);
      auto report = engines::RunTaskOnEngine(engine.get(), request, 1,
                                             /*sample_memory=*/true,
                                             /*keep_outputs=*/false);
      if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
        return 1;
      }
      const double mb =
          static_cast<double>(report->memory_bytes - baseline) /
          (1024.0 * 1024.0);
      cells.push_back(Cell(mb > 0 ? mb : 0.0));
    }
    PrintRow(cells);
  }
  std::printf(
      "\nShape to check: similarity row largest, 3line row smallest; "
      "madlib column >= matlab and system-c.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_scale=*/80.0);
  return Run(ctx);
}
