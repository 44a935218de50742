// Storage benchmark for the SMCOLV2 column file: compression against the
// raw 8-byte columns, decode throughput, and the selectivity-vs-latency
// curve of the block index, over a deterministic cached large tier.
//
// Flags (on top of the common bench flags):
//   --tier_households=<n>   households in the tier (default 100000; CI
//                           caches the generated file by its spec name)
//   --tier_hours=<n>        hours per series (default 720)
//   --gate                  enforce the acceptance gates (compression
//                           <= 0.5x, routed query decodes < 5% of
//                           blocks) and exit nonzero on failure
//
// Typical invocations:
//   bench_fig20_storage                            # full local tier
//   bench_fig20_storage --tier_households=2000 --tier_hours=168 --gate
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "datagen/tier.h"
#include "engines/benchmark_runner.h"
#include "obs/report.h"
#include "storage/column_store.h"
#include "storage/scan_scope.h"
#include "table/data_source.h"
#include "table/table_reader.h"

namespace smartmeter::bench {
namespace {

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

// The tier as raw 8-byte columns behind a 24-byte header (magic and the
// two shape words): ids, household-major consumption, and temperature.
// The baseline the compression ratio is measured against.
int64_t RawColumnBytes(const datagen::TierSpec& spec) {
  const int64_t households = spec.households;
  const int64_t hours = spec.hours;
  return 24 + 8 * (households + households * hours + hours);
}

void AddStorageRun(BenchContext* ctx, const std::string& task,
                   const std::string& layout, double seconds,
                   const storage::ScanStats& stats, double ratio) {
  obs::RunRecord rec;
  rec.engine = "storage";
  rec.task = task;
  rec.layout = layout;
  rec.task_seconds = seconds;
  rec.bytes_scanned = stats.bytes_decoded;
  rec.blocks_decoded = stats.blocks_decoded;
  rec.blocks_pruned = stats.blocks_pruned;
  rec.compression_ratio = ratio;
  ctx->report().AddRun(rec);
}

int RunStorageBench(int argc, char** argv) {
  BenchContext ctx(argc, argv);
  datagen::TierSpec spec;
  spec.households =
      static_cast<int>(ctx.flags().GetInt("tier_households", 100000));
  spec.hours = static_cast<int>(ctx.flags().GetInt("tier_hours", 720));
  const bool gate = ctx.flags().GetBool("gate", false);
  const std::string tier_dir = ctx.workdir() + "/tiers";

  PrintHeader("bench_fig20_storage",
              StringPrintf("SMCOLV2 over a %d x %dh tier (cached under %s)",
                           spec.households, spec.hours, tier_dir.c_str()));

  // -- Tier materialization (cached by spec name) ------------------------
  Stopwatch gen_watch;
  auto tier_path = datagen::EnsureTierColumnFile(spec, tier_dir);
  const double gen_seconds = gen_watch.ElapsedSeconds();
  if (!tier_path.ok()) {
    std::fprintf(stderr, "tier generation failed: %s\n",
                 tier_path.status().ToString().c_str());
    return 1;
  }
  const int64_t raw_bytes = RawColumnBytes(spec);
  const int64_t v2_bytes = FileBytes(*tier_path);
  const double compression =
      static_cast<double>(v2_bytes) / static_cast<double>(raw_bytes);

  PrintRow({"format", "file MB", "generate s", "ratio vs raw"});
  PrintDivider(4);
  PrintRow({"raw columns", Cell(static_cast<double>(raw_bytes) / (1 << 20)),
            "-", Cell(1.0)});
  PrintRow({"SMCOLV2", Cell(static_cast<double>(v2_bytes) / (1 << 20)),
            Cell(gen_seconds), Cell(compression)});

  // -- Decode throughput -------------------------------------------------
  table::ColumnFileReader reader(*tier_path);
  Stopwatch decode_watch;
  if (Status st = reader.Open(); !st.ok()) {
    std::fprintf(stderr, "SMCOLV2 open failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double decode_seconds = decode_watch.ElapsedSeconds();
  const storage::ScanStats& open_stats = reader.open_stats();
  const double decoded_mb =
      static_cast<double>(open_stats.bytes_decoded) / (1 << 20);
  std::printf("\ndecode throughput: %.1f MB of values in %.3fs "
              "(%.0f MB/s, %zu blocks)\n",
              decoded_mb, decode_seconds,
              decode_seconds > 0.0 ? decoded_mb / decode_seconds : 0.0,
              static_cast<size_t>(open_stats.blocks_decoded));
  AddStorageRun(&ctx, "decode-all", "smcolv2", decode_seconds, open_stats,
                compression);

  // -- Selectivity vs latency --------------------------------------------
  std::printf("\n");
  PrintRow({"selectivity", "rows", "latency s", "blocks dec", "blocks pr"});
  PrintDivider(5);
  storage::ScanStats routed;  // The single-household row, kept for the gate.
  const double selectivities[] = {1.0, 0.10, 0.01, 0.0};
  for (double sel : selectivities) {
    const size_t rows =
        sel == 0.0 ? 1
                   : static_cast<size_t>(
                         static_cast<double>(spec.households) * sel);
    storage::ScanScope scope;
    // Scope the middle of the table so pruning has blocks on both sides.
    scope.row_begin = (static_cast<size_t>(spec.households) - rows) / 2;
    scope.row_count = rows;
    Stopwatch watch;
    auto scoped = reader.NewScopedBatch(scope);
    const double seconds = watch.ElapsedSeconds();
    if (!scoped.ok()) {
      std::fprintf(stderr, "scoped decode failed: %s\n",
                   scoped.status().ToString().c_str());
      return 1;
    }
    if (sel == 0.0) routed = scoped->stats;
    const std::string label =
        sel == 0.0 ? "1 household" : StringPrintf("%.0f%%", sel * 100.0);
    PrintRow({label, CellInt(static_cast<int64_t>(rows)), Cell(seconds),
              CellInt(scoped->stats.blocks_decoded),
              CellInt(scoped->stats.blocks_pruned)});
    AddStorageRun(&ctx, "scoped-scan-" + label, "smcolv2", seconds,
                  scoped->stats, compression);
  }

  // -- Routed single-household query through a real engine plan ----------
  {
    engines::RunSpec run_spec;
    run_spec.kind = engines::EngineKind::kSystemC;
    run_spec.factory.spool_dir = ctx.SpoolDir("fig20");
    run_spec.options =
        engines::TaskOptions::Default(core::TaskType::kHistogram);
    run_spec.options.set_scope({static_cast<size_t>(spec.households) / 2, 1});
    auto source = table::DataSource::ColumnFile(*tier_path);
    if (!source.ok()) {
      std::fprintf(stderr, "bad column-file source: %s\n",
                   source.status().ToString().c_str());
      return 1;
    }
    run_spec.source = *source;
    run_spec.report = &ctx.report();
    auto run = engines::RunBenchmark(run_spec);
    if (!run.ok()) {
      std::fprintf(stderr, "routed query failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    std::printf("\nrouted single-household query: %.4fs, %lld of %lld "
                "blocks decoded\n",
                run->task_seconds,
                static_cast<long long>(run->scan.blocks_decoded),
                static_cast<long long>(run->scan.blocks_total));
    routed = run->scan;
  }

  if (Status st = ctx.Finish(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  if (!gate) return 0;
  int failures = 0;
  if (compression > 0.5) {
    std::fprintf(stderr,
                 "STORAGE GATE: SMCOLV2 is %.2fx of the raw columns "
                 "(must be <= 0.50x)\n",
                 compression);
    ++failures;
  }
  if (routed.blocks_total <= 0 ||
      routed.blocks_decoded * 20 >= routed.blocks_total) {
    std::fprintf(stderr,
                 "STORAGE GATE: routed query decoded %lld of %lld blocks "
                 "(must be < 5%%)\n",
                 static_cast<long long>(routed.blocks_decoded),
                 static_cast<long long>(routed.blocks_total));
    ++failures;
  }
  if (failures > 0) return 1;
  std::printf("storage gates passed: compression %.2fx, routed decode "
              "%lld/%lld blocks\n",
              compression, static_cast<long long>(routed.blocks_decoded),
              static_cast<long long>(routed.blocks_total));
  return 0;
}

}  // namespace
}  // namespace smartmeter::bench

int main(int argc, char** argv) {
  return smartmeter::bench::RunStorageBench(argc, argv);
}
