// Per-layer probes that do not depend on the workload. Each one times a
// public call of one layer from outside, over the run's own data set, so
// a change to that layer shows here before it shows end to end.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "engines/engine_util.h"
#include "exec/query_context.h"
#include "ledger.h"
#include "simd/simd.h"
#include "storage/column_store.h"
#include "storage/csv.h"
#include "storage/scan_scope.h"
#include "table/columnar_batch.h"
#include "table/columnar_cache.h"
#include "table/data_source.h"
#include "table/table_reader.h"

namespace smartmeter::ledger {
namespace {

namespace fs = std::filesystem;

/// Households the kernel probes run over: enough for a stable per-household
/// figure, few enough that the scalar three-line pass stays short.
constexpr size_t kKernelHouseholds = 32;

/// Median seconds of `reps` timed calls of `body`.
template <typename Body>
double MedianSeconds(int reps, const Body& body) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    body();
    samples.push_back(watch.ElapsedSeconds());
  }
  return Median(samples);
}

/// Nanoseconds per call of `body`, active SIMD level and scalar.
template <typename Body>
void SimdProbe(Metrics* m, const std::string& name, const Body& body) {
  constexpr int kCalls = 2000;
  const auto per_call_ns = [&] {
    body();  // Warm caches and the dispatch table.
    return MedianSeconds(5,
                         [&] {
                           for (int i = 0; i < kCalls; ++i) body();
                         }) *
           1e9 / kCalls;
  };
  m->Layer("simd." + name + "_ns.active", per_call_ns(), "ns");
  const simd::ScopedLevel scalar(simd::Level::kScalar);
  m->Layer("simd." + name + "_ns.scalar", per_call_ns(), "ns");
}

void RunSimdProbes(Metrics* m, uint64_t seed) {
  const size_t n = 8760;
  Rng rng(seed);
  std::vector<double> x(n), y(n), beta(n), acc(n, 0.0);
  std::vector<int32_t> bins(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(0.0, 5.0);
    y[i] = rng.Uniform(-20.0, 20.0);
    beta[i] = rng.Uniform(0.0, 0.2);
    bins[i] = static_cast<int32_t>(std::floor(y[i]));
  }
  std::vector<double> lo(40), hi(40);
  for (size_t b = 0; b < lo.size(); ++b) {
    lo[b] = rng.Uniform(0.0, 1.5);
    hi[b] = rng.Uniform(3.0, 5.0);
  }
  std::string text;
  while (text.size() + 26 < n) text += "12345,4821,1.2345,-12.50\t";
  text.resize(n - 1, ' ');
  text += '\n';

  volatile double sink = 0.0;
  SimdProbe(m, "dot", [&] { sink = sink + simd::Dot(x, y); });
  std::vector<int64_t> counts(32);
  SimdProbe(m, "hist_bin", [&] {
    std::fill(counts.begin(), counts.end(), 0);
    simd::HistogramBin(x, 0.0, 5.0 / 32.0, counts);
    sink = sink + static_cast<double>(counts[0]);
  });
  std::vector<int32_t> lo_idx, hi_idx;
  SimdProbe(m, "select_bands", [&] {
    lo_idx.clear();
    hi_idx.clear();
    simd::SelectBands(x, bins, -20, lo, hi, &lo_idx, &hi_idx);
    sink = sink + static_cast<double>(lo_idx.size() + hi_idx.size());
  });
  SimdProbe(m, "add_residual", [&] {
    simd::AddResidual(acc, x, y, beta);
    sink = sink + acc[0];
  });
  SimdProbe(m, "find_byte", [&] {
    sink = sink + static_cast<double>(simd::FindByte(text, 0, '\n'));
  });
}

Status RunKernelProbes(RunContext* run, const table::ColumnarBatch& batch) {
  SM_ASSIGN_OR_RETURN(table::ColumnarBatch slice,
                      batch.Slice(0, kKernelHouseholds));
  const double households = static_cast<double>(slice.count());
  for (core::TaskType task : core::kAllTasks) {
    const engines::TaskOptions options = engines::TaskOptions::Default(task);
    for (const bool scalar : {false, true}) {
      const simd::Level level =
          scalar ? simd::Level::kScalar : simd::ActiveLevel();
      const simd::ScopedLevel guard(level);
      Status status;
      const auto body = [&] {
        Span span(run->tracer, "core.run_task_over_batch");
        engines::TaskResultSet results;
        Result<engines::TaskRunMetrics> r = engines::RunTaskOverBatch(
            exec::QueryContext::Background(), slice, options, 1, &results);
        if (!r.ok()) status = r.status();
      };
      body();
      const double seconds = MedianSeconds(3, body);
      SM_RETURN_IF_ERROR(status);
      run->metrics.Layer("core." + TaskKey(task) + "_us_per_hh." +
                             (scalar ? "scalar" : "active"),
                         seconds / households * 1e6, "us");
    }
  }
  return Status::OK();
}

}  // namespace

Status RunLayerPanel(RunContext* run, const Inputs& inputs) {
  Metrics& m = run->metrics;
  Tracer* tracer = run->tracer;
  const size_t rows = inputs.dataset.num_consumers();
  const size_t hours = inputs.dataset.hours();
  const double csv_mb =
      static_cast<double>(fs::file_size(inputs.csv_path)) / 1e6;
  const double raw_mb =
      static_cast<double>((rows * hours + rows + hours) * 8) / 1e6;
  const std::string dir = run->workdir + "/panel";
  SM_RETURN_IF_ERROR(FreshDirectory(dir));

  // storage: text parse, SMCOLV2 encode and its size.
  Result<MeterDataset> parsed = Status::Internal("not parsed");
  double seconds = MedianSeconds(1, [&] {
    Span span(tracer, "storage.read_readings_csv");
    parsed = storage::ReadReadingsCsv(inputs.csv_path);
  });
  SM_RETURN_IF_ERROR(parsed.status());
  m.Layer("storage.csv_parse_mb_s", csv_mb / seconds, "MB/s");
  const std::string smcol = dir + "/table.smcol";
  Status written;
  seconds = MedianSeconds(1, [&] {
    Span span(tracer, "storage.smcol_write");
    written = storage::ColumnFileWriter::WriteFile(*parsed, smcol);
  });
  SM_RETURN_IF_ERROR(written);
  m.Layer("storage.smcol_write_mb_s", raw_mb / seconds, "MB/s");
  m.Layer("storage.smcol_bytes_per_value",
          static_cast<double>(fs::file_size(smcol)) /
              static_cast<double>(rows * hours),
          "B/value");

  // table: cache miss, whole-file decode, scoped decodes.
  SM_ASSIGN_OR_RETURN(table::DataSource source,
                      table::DataSource::SingleCsv(inputs.csv_path));
  Status built;
  seconds = MedianSeconds(1, [&] {
    Span span(tracer, "table.cache_open_or_build");
    table::ColumnarCache cache(dir + "/cache");
    built = cache.OpenOrBuild(source).status();
  });
  SM_RETURN_IF_ERROR(built);
  m.Layer("table.cache_build_s", seconds, "s");
  table::ColumnFileReader reader(smcol);
  Status opened;
  seconds = MedianSeconds(3, [&] {
    Span span(tracer, "table.smcol_open");
    opened = reader.Open();
  });
  SM_RETURN_IF_ERROR(opened);
  m.Layer("table.smcol_open_mb_s", raw_mb / seconds, "MB/s");
  std::vector<double> shard_ms, household_ms;
  int64_t routed_blocks = 0;
  Rng rng(run->seed ^ 0xb10cULL);
  for (int i = 0; i < 40; ++i) {
    const bool shard = i % 2 == 0;
    // The shard slices exactly as ServingRunner cuts them.
    const size_t k = static_cast<size_t>(i / 2) % kServingShards;
    storage::ScanScope scope;
    scope.row_begin = shard ? rows * k / kServingShards
                            : static_cast<size_t>(rng.UniformInt(rows));
    scope.row_count = shard ? rows * (k + 1) / kServingShards - scope.row_begin : 1;
    Span span(tracer, "table.scoped_scan");
    Stopwatch watch;
    Result<table::ScopedBatch> scoped = reader.NewScopedBatch(scope);
    SM_RETURN_IF_ERROR(scoped.status());
    (shard ? shard_ms : household_ms).push_back(watch.ElapsedSeconds() * 1e3);
    if (i == 0) routed_blocks = scoped->stats.blocks_decoded;
  }
  m.Layer("table.scoped_scan_ms.shard_p50", Percentile(shard_ms, 0.5), "ms");
  m.Layer("table.scoped_scan_ms.household_p50",
          Percentile(household_ms, 0.5), "ms");
  m.Layer("table.blocks_decoded.routed", static_cast<double>(routed_blocks),
          "count");

  // core and simd: kernels at the dispatched level and at scalar.
  SM_ASSIGN_OR_RETURN(table::ColumnarBatch batch,
                      table::ColumnarBatch::FromDataset(inputs.dataset));
  SM_RETURN_IF_ERROR(RunKernelProbes(run, batch));
  RunSimdProbes(&m, run->seed);

  // exec: the whole plan path over one resident household.
  std::vector<double> plan_us;
  for (int i = 0; i < 200; ++i) {
    SM_ASSIGN_OR_RETURN(
        table::ColumnarBatch one,
        batch.Slice(static_cast<size_t>(rng.UniformInt(rows)), 1));
    Span span(tracer, "exec.plan_run");
    Stopwatch watch;
    SM_RETURN_IF_ERROR(
        engines::RunTaskOverBatch(
            exec::QueryContext::Background(), one,
            engines::TaskOptions::Default(core::TaskType::kHistogram), 1,
            nullptr)
            .status());
    plan_us.push_back(watch.ElapsedSeconds() * 1e6);
  }
  m.Layer("exec.plan_run_us.household", Percentile(plan_us, 0.5), "us");
  std::error_code ec;
  fs::remove_all(dir, ec);
  return Status::OK();
}

}  // namespace smartmeter::ledger
