// Reproduces Figures 18 and 19: the third cluster data format -- many
// files, each holding whole households, read through a non-splittable
// input format -- at 100 paper-GB, varying the number of files.
//   Figure 18: execution time vs file count for Hive UDTF (map-only),
//              Hive UDAF (with reduce) and Spark.
//   Figure 19: speedup vs worker nodes at a fixed file count.
//
// Expected shapes (paper): Hive UDTF wins (no reduce step) and is
// insensitive to the file count between 10 and 10,000; Spark's time
// degrades as files multiply (serial driver work per partition, open
// file handles) and at ~100,000 files Spark aborts with "too many open
// files" (reproduced here as an explicit error row).
#include <cstdio>

#include "bench_common.h"
#include "engines/hive_engine.h"
#include "engines/spark_engine.h"

namespace {

using namespace smartmeter;         // NOLINT
using namespace smartmeter::bench;  // NOLINT

int Run(BenchContext& ctx) {
  const double paper_gb = ctx.flags().GetDouble("paper-gb", 100.0);
  const int households = ctx.HouseholdsForPaperGb(paper_gb);
  PrintHeader(
      "Figures 18-19: data format 3 (many whole-household files)",
      StringPrintf("%d households (~%.0f paper-GB); paper varies 10 - "
                   "10,000 files of the 100 GB set",
                   households, paper_gb));

  cluster::ClusterConfig cluster;
  std::vector<int> file_counts = {10, 50, 100, 200};
  for (int& f : file_counts) f = std::min(f, households);

  for (core::TaskType task :
       {core::TaskType::kThreeLine, core::TaskType::kPar,
        core::TaskType::kHistogram}) {
    std::printf("\n-- Figure 18 (%s) --\n",
                std::string(core::TaskName(task)).c_str());
    PrintRow({"files", "hive UDTF (s)", "hive UDAF (s)", "spark (s)"});
    PrintDivider(4);
    for (int files : file_counts) {
      auto source = ctx.WholeFileDir(households, files);
      if (!source.ok()) return 1;
      engines::TaskOptions request = engines::TaskOptions::Default(task);

      engines::HiveEngine::Options udtf_options;
      udtf_options.cluster = cluster;
      udtf_options.format3_style = engines::HiveEngine::Format3Style::kUdtf;
      engines::HiveEngine udtf(udtf_options);
      if (!udtf.Attach(*source).ok()) return 1;
      auto udtf_time = udtf.RunTask(request, nullptr);

      engines::HiveEngine::Options udaf_options;
      udaf_options.cluster = cluster;
      udaf_options.format3_style = engines::HiveEngine::Format3Style::kUdaf;
      engines::HiveEngine udaf(udaf_options);
      if (!udaf.Attach(*source).ok()) return 1;
      auto udaf_time = udaf.RunTask(request, nullptr);

      engines::SparkEngine::Options spark_options;
      spark_options.cluster = cluster;
      engines::SparkEngine spark(spark_options);
      if (!spark.Attach(*source).ok()) return 1;
      auto spark_time = spark.RunTask(request, nullptr);

      if (!udtf_time.ok() || !udaf_time.ok() || !spark_time.ok()) {
        std::fprintf(stderr, "run failed\n");
        return 1;
      }
      PrintRow({CellInt(files), Cell(udtf_time->seconds),
                Cell(udaf_time->seconds), Cell(spark_time->seconds)});
    }
  }

  // The 100,000-file catastrophe: Spark refuses (too many open files).
  {
    engines::SparkEngine::Options options;
    options.cluster = cluster;
    engines::SparkEngine spark(options);
    auto real = ctx.WholeFileDir(households, file_counts.front());
    if (!real.ok()) return 1;
    table::DataSource many;
    many.layout = table::DataSource::Layout::kWholeFileDir;
    // The descriptor-count check fires at job submission, before any
    // file is read, so every entry may name the same file; it must be a
    // real one, because the source is validated first.
    many.files.assign(100000, real->files.front());
    std::printf("\n-- 100,000-file probe (Section 5.4.2) --\n");
    auto attach = spark.Attach(many);
    std::printf("spark @ 100000 files: %s\n",
                attach.ok() ? "unexpectedly ran"
                            : attach.status().ToString().c_str());
    if (attach.ok() || attach.status().code() != StatusCode::kIOError ||
        attach.status().message().find("too many open files") ==
            std::string::npos) {
      std::fprintf(stderr,
                   "FIG18 PROBE: spark did not refuse 100000 files with "
                   "the too-many-open-files IOError\n");
      return 1;
    }
  }

  // ---- Figure 19: speedup at a fixed file count -------------------------
  const int files = std::min(100, households);
  auto source = ctx.WholeFileDir(households, files);
  if (!source.ok()) return 1;
  const std::vector<int> node_counts = {4, 8, 12, 16};
  for (core::TaskType task :
       {core::TaskType::kThreeLine, core::TaskType::kPar,
        core::TaskType::kHistogram}) {
    std::printf(
        "\n-- Figure 19 (%s), %d files, speedup relative to 4 nodes --\n",
        std::string(core::TaskName(task)).c_str(), files);
    std::vector<std::string> header = {"engine"};
    for (int n : node_counts) header.push_back(StringPrintf("%d nodes", n));
    PrintRow(header);
    PrintDivider(header.size());
    for (const char* engine_name : {"hive-udtf", "spark"}) {
      std::vector<std::string> cells = {engine_name};
      double base = 0.0;
      for (int nodes : node_counts) {
        cluster::ClusterConfig config;
        config.num_nodes = nodes;
        engines::TaskOptions request = engines::TaskOptions::Default(task);
        double seconds = 0.0;
        if (std::string(engine_name) == "spark") {
          engines::SparkEngine::Options options;
          options.cluster = config;
          engines::SparkEngine engine(options);
          if (!engine.Attach(*source).ok()) return 1;
          auto metrics = engine.RunTask(request, nullptr);
          if (!metrics.ok()) return 1;
          seconds = metrics->seconds;
        } else {
          engines::HiveEngine::Options options;
          options.cluster = config;
          options.format3_style =
              engines::HiveEngine::Format3Style::kUdtf;
          engines::HiveEngine engine(options);
          if (!engine.Attach(*source).ok()) return 1;
          auto metrics = engine.RunTask(request, nullptr);
          if (!metrics.ok()) return 1;
          seconds = metrics->seconds;
        }
        if (nodes == node_counts.front()) base = seconds;
        cells.push_back(Cell(seconds > 0 ? base / seconds : 0.0));
      }
      PrintRow(cells);
    }
  }
  std::printf(
      "\nShapes to check: hive UDTF flat across file counts and fastest; "
      "spark degrades as files grow and\naborts at 100,000 files.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_scale=*/1200.0);
  return Run(ctx);
}
