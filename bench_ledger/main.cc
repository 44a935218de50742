// bench_ledger: one command that measures the system end to end and
// layer by layer, on one of three workloads, and checks its own outputs.
//
//   bench_ledger --workload=<paper-batch|routed-serving|live-ingest>
//                --seed=<n> [--seconds=<s>] [--trace]
//                [--workdir=<dir>] [--trace-out=<file.json>] [--smoke]
//
// Every metric is printed as "name value unit"; other lines start with
// '#'. An untraced run prints the end-to-end metrics (and workload
// detail). A traced run re-runs the workload with spans, then runs the
// other two workloads as short probes and a per-layer panel, prints the
// per-layer metrics, and writes a Chrome trace-event JSON file. The exit
// code is 0 when every output check passed, 3 when a check failed, and
// 1 or 2 when the run could not be made.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/memory_probe.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "ledger.h"
#include "simd/simd.h"
#include "storage/csv.h"

#ifndef SM_LEDGER_BUILD_TYPE
#define SM_LEDGER_BUILD_TYPE "unknown"
#endif

namespace smartmeter::ledger {
namespace {

namespace fs = std::filesystem;

/// Length of the other workloads' probes inside a traced run.
constexpr double kProbeSeconds = 3.0;

const char* const kWorkloads[] = {"paper-batch", "routed-serving",
                                  "live-ingest"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       RunContext* run) {
  if (name == "paper-batch") return MakePaperBatch(run);
  if (name == "routed-serving") return MakeRoutedServing(run);
  if (name == "live-ingest") return MakeLiveIngest(run);
  return nullptr;
}

/// Generates the data set and writes the text layouts asked for under
/// `dir`, recording the datagen layer's numbers.
Result<Inputs> PrepareInputs(RunContext* run, const std::string& dir,
                             bool csv, bool partitions) {
  SM_RETURN_IF_ERROR(FreshDirectory(dir));
  Inputs inputs;
  Stopwatch watch;
  {
    Span span(run->tracer, "datagen.generate");
    SM_ASSIGN_OR_RETURN(inputs.dataset,
                        GenerateDataset(run->households, run->hours,
                                        run->seed));
  }
  run->metrics.Layer("datagen.generate_s", watch.ElapsedSeconds(), "s");
  if (csv) {
    inputs.csv_path = dir + "/single.csv";
    watch.Reset();
    {
      Span span(run->tracer, "datagen.write_csv");
      SM_RETURN_IF_ERROR(
          storage::WriteReadingsCsv(inputs.dataset, inputs.csv_path));
    }
    run->metrics.Layer(
        "datagen.csv_write_mb_s",
        static_cast<double>(fs::file_size(inputs.csv_path)) / 1e6 /
            watch.ElapsedSeconds(),
        "MB/s");
  }
  if (partitions) {
    Span span(run->tracer, "datagen.write_partitions");
    SM_ASSIGN_OR_RETURN(
        inputs.partition_files,
        storage::WritePartitionedCsv(inputs.dataset, dir + "/part"));
  }
  return inputs;
}

int RunMain(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const bool smoke = flags.GetBool("smoke", false);
  const bool trace = flags.GetBool("trace", false);
  const double seconds = flags.GetDouble("seconds", smoke ? 2.0 : 20.0);
  RunContext run;
  run.seed = static_cast<uint64_t>(flags.GetInt("seed", 20150323));
  // The smoke size checks the harness and its oracles in seconds.
  run.households = smoke ? 24 : 400;
  run.hours = smoke ? 960 : 8760;

  if (MakeWorkload(workload, &run) == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_ledger --workload=<paper-batch|routed-serving|"
                 "live-ingest> --seed=<n> [--seconds=<s>] [--trace]\n");
    return 2;
  }
  // The environment overrides change what is measured (the spool format,
  // the kernel dispatch level), so a ledger run refuses them.
  for (const char* var : {"SM_COLUMN_FORMAT", "SM_SIMD"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "bench_ledger: unset %s; it overrides what the "
                   "ledger measures\n", var);
      return 2;
    }
  }
  if (seconds <= 0) {
    std::fprintf(stderr, "bench_ledger: --seconds must be positive\n");
    return 2;
  }

  const std::string root =
      flags.GetString("workdir", (fs::current_path() / ".bench_work").string());
  run.workdir = StringPrintf("%s/run-%d", root.c_str(),
                             static_cast<int>(getpid()));
  if (Status st = FreshDirectory(run.workdir); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const RemoveOnExit remove_workdir(run.workdir);
  Tracer tracer;
  if (trace) run.tracer = &tracer;

  std::printf("# bench_ledger workload=%s seed=%llu seconds=%g trace=%d "
              "households=%d hours=%d build_type=%s nproc=%u simd=%s "
              "SM_COLUMN_FORMAT=unset SM_SIMD=unset\n",
              workload.c_str(), static_cast<unsigned long long>(run.seed),
              seconds, trace ? 1 : 0, run.households, run.hours,
              SM_LEDGER_BUILD_TYPE, std::thread::hardware_concurrency(),
              std::string(simd::LevelName(simd::ActiveLevel())).c_str());
  std::fflush(stdout);

  const auto fail = [](const Status& st) {
    std::fprintf(stderr, "bench_ledger: %s\n", st.ToString().c_str());
    return 1;
  };

  if (!trace) {
    // Set-up starts from nothing: fresh files, fresh spool.
    Stopwatch setup;
    std::unique_ptr<Workload> w = MakeWorkload(workload, &run);
    Result<Inputs> inputs =
        PrepareInputs(&run, StringPrintf("%s/setup", run.workdir.c_str()),
                      w->needs_csv(), w->needs_partitions());
    if (!inputs.ok()) return fail(inputs.status());
    if (Status st = w->Setup(*inputs); !st.ok()) return fail(st);
    const double setup_s = setup.ElapsedSeconds();
    if (Status st = w->Run(seconds, /*primary=*/true); !st.ok()) {
      return fail(st);
    }
    w.reset();
    run.metrics.EndToEnd("setup_s", setup_s, "s");
    run.metrics.EndToEnd("peak_rss_mb",
                         static_cast<double>(PeakRssBytes()) / (1 << 20),
                         "MB");
    const int64_t attempted = run.ops.attempted.load();
    run.metrics.Detail("failed_frac",
                       attempted > 0
                           ? static_cast<double>(run.ops.failed.load()) /
                                 static_cast<double>(attempted)
                           : 0.0,
                       "frac");
    run.metrics.Print({MetricKind::kEndToEnd, MetricKind::kDetail});
  } else {
    Result<Inputs> inputs =
        PrepareInputs(&run, StringPrintf("%s/setup", run.workdir.c_str()),
                      /*csv=*/true, /*partitions=*/true);
    if (!inputs.ok()) return fail(inputs.status());
    // The traced workload first, at full length; then the other two as
    // short probes so every layer is measured in every traced run.
    std::vector<std::string> order = {workload};
    for (const char* other : kWorkloads) {
      if (workload != other) order.push_back(other);
    }
    for (const std::string& name : order) {
      const bool primary = name == workload;
      std::unique_ptr<Workload> w = MakeWorkload(name, &run);
      Status st = w->Setup(*inputs);
      if (st.ok()) st = w->Run(primary ? seconds : kProbeSeconds, primary);
      if (!st.ok()) return fail(st);
    }
    if (Status st = RunLayerPanel(&run, *inputs); !st.ok()) return fail(st);
    run.metrics.Layer("trace.spans", static_cast<double>(tracer.size()),
                      "count");
    const std::string trace_out = flags.GetString(
        "trace-out", StringPrintf("%s/trace-%s-%llu.json", root.c_str(),
                                  workload.c_str(),
                                  static_cast<unsigned long long>(run.seed)));
    if (Status st = tracer.WriteChromeJson(trace_out); !st.ok()) {
      return fail(st);
    }
    std::printf("# trace %s\n", trace_out.c_str());
    tracer.PrintSelfTimes();
    run.metrics.Print({MetricKind::kLayer});
  }
  std::printf("# attempted %lld\n# failed %lld\n",
              static_cast<long long>(run.ops.attempted.load()),
              static_cast<long long>(run.ops.failed.load()));
  run.checks.Print();
  return run.checks.all_ok() ? 0 : 3;
}

}  // namespace
}  // namespace smartmeter::ledger

int main(int argc, char** argv) {
  return smartmeter::ledger::RunMain(argc, argv);
}
