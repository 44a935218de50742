// Reproduces Figure 6: cold-start vs warm-start running time of the
// 3-line algorithm on Matlab, MADLib and System C, with the warm time
// broken into T1 (per-temperature quantiles), T2 (regression lines) and
// T3 (continuity adjustment).
//
// Expected shape (paper): cold > warm everywhere; Matlab and MADLib pay
// the most to bring data into memory, System C the least (it decodes its
// column file, no parsing); within the algorithm T2 (regression)
// dominates.
#include <cstdio>

#include "bench_common.h"
#include "engines/engine_factory.h"

namespace {

using namespace smartmeter;         // NOLINT
using namespace smartmeter::bench;  // NOLINT

int Run(BenchContext& ctx) {
  const double paper_gb = ctx.flags().GetDouble("paper-gb", 5.0);
  const int households = ctx.HouseholdsForPaperGb(paper_gb);
  PrintHeader(
      "Figure 6: cold vs warm start, 3-line algorithm (T1/T2/T3 split)",
      StringPrintf("%d households (~%.1f paper-GB); paper used 10 GB",
                   households, ctx.PaperGbForHouseholds(households)));
  PrintRow({"platform", "cold (s)", "warm (s)", "T1 quantiles (s)",
            "T2 regression (s)", "T3 adjust (s)", "load = cold-warm (s)"});
  PrintDivider(7);

  for (engines::EngineKind kind :
       {engines::EngineKind::kMatlab, engines::EngineKind::kMadlib,
        engines::EngineKind::kSystemC}) {
    engines::EngineFactoryOptions factory;
    factory.spool_dir = ctx.SpoolDir("fig06");
    auto engine = engines::MakeEngine(kind, factory);
    // Matlab prefers the partitioned layout (Figure 5); the DBMS-style
    // engines load the single CSV.
    auto source = (kind == engines::EngineKind::kMatlab)
                      ? ctx.PartitionedDir(households)
                      : ctx.SingleCsv(households);
    if (!source.ok()) return 1;
    if (!engine->Attach(*source).ok()) return 1;

    engines::TaskOptions request = engines::TaskOptions::Default(core::TaskType::kThreeLine);

    auto cold = engine->RunTask(request, nullptr);
    if (!cold.ok()) {
      std::fprintf(stderr, "%s\n", cold.status().ToString().c_str());
      return 1;
    }
    auto warm_load = engine->WarmUp();
    if (!warm_load.ok()) return 1;
    auto warm = engine->RunTask(request, nullptr);
    if (!warm.ok()) return 1;

    PrintRow({std::string(engines::EngineKindName(kind)),
              Cell(cold->seconds), Cell(warm->seconds),
              Cell(warm->phases.quantile_seconds),
              Cell(warm->phases.regression_seconds),
              Cell(warm->phases.adjust_seconds),
              Cell(cold->seconds - warm->seconds)});
  }
  std::printf(
      "\nShape to check: cold >= warm for all; System C's load gap is the "
      "smallest; T2 dominates T1 and T3.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_scale=*/80.0);
  return Run(ctx);
}
