#include "engines/matlab_engine.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/task_types.h"
#include "engines/engine_util.h"
#include "engines/plan_builders.h"
#include "obs/trace.h"
#include "storage/csv.h"
#include "table/columnar_batch.h"
#include "table/table_reader.h"

namespace smartmeter::engines {

Result<double> MatlabEngine::Attach(const table::DataSource& source) {
  SM_TRACE_SPAN("matlab.attach");
  SM_RETURN_IF_ERROR(RequireLayout(source,
                                   {table::DataSource::Layout::kSingleCsv,
                                    table::DataSource::Layout::kPartitionedDir,
                                    table::DataSource::Layout::kColumnFile},
                                   name()));
  Stopwatch clock;
  source_ = source;
  warm_.reset();
  // No load phase: Matlab works off the files themselves.
  return clock.ElapsedSeconds();
}

Result<MeterDataset> MatlabEngine::ParseAll() const {
  SM_TRACE_SPAN("matlab.parse_all");
  if (source_.layout == table::DataSource::Layout::kColumnFile) {
    // Binary column file: load it whole (Matlab's `load` of a prepared
    // binary), no per-household extraction pass.
    return table::ReadDatasetFromSource(source_);
  }
  if (source_.layout == table::DataSource::Layout::kSingleCsv) {
    // One big file: Matlab textscans the whole file into flat column
    // arrays, then pulls each household out with logical indexing --
    // data(data(:,1) == id, :) -- which rescans the full arrays once per
    // household. That O(rows x households) extraction is the slow path
    // of Figure 5.
    storage::ReadingCsvReader reader(source_.files.front());
    SM_RETURN_IF_ERROR(reader.Open());
    std::vector<int64_t> ids;
    std::vector<int32_t> hours;
    std::vector<double> cons;
    std::vector<double> temps;
    storage::ReadingRow row;
    while (reader.Next(&row)) {
      ids.push_back(row.household_id);
      hours.push_back(row.hour);
      cons.push_back(row.consumption);
      temps.push_back(row.temperature);
    }
    SM_RETURN_IF_ERROR(reader.status());
    if (ids.empty()) {
      return Status::InvalidArgument("matlab: empty input file");
    }
    std::vector<int64_t> distinct = ids;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    MeterDataset dataset;
    std::vector<double> temperature;
    for (int64_t id : distinct) {
      // Logical-indexing pass over the full arrays for this household.
      std::vector<std::pair<int32_t, double>> keyed;
      std::vector<std::pair<int32_t, double>> keyed_temp;
      for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] == id) {
          keyed.emplace_back(hours[i], cons[i]);
          keyed_temp.emplace_back(hours[i], temps[i]);
        }
      }
      std::sort(keyed.begin(), keyed.end());
      ConsumerSeries series;
      series.household_id = id;
      series.consumption.reserve(keyed.size());
      for (const auto& [hour, value] : keyed) {
        if (hour != static_cast<int32_t>(series.consumption.size())) {
          return Status::Corruption(StringPrintf(
              "household %lld: hour %d out of sequence (expected %zu)",
              static_cast<long long>(id), hour, series.consumption.size()));
        }
        series.consumption.push_back(value);
      }
      if (temperature.empty()) {
        std::sort(keyed_temp.begin(), keyed_temp.end());
        temperature.reserve(keyed_temp.size());
        for (const auto& [hour, value] : keyed_temp) {
          temperature.push_back(value);
        }
      } else if (series.consumption.size() != temperature.size()) {
        return Status::Corruption(StringPrintf(
            "household %lld has %zu hours, expected %zu",
            static_cast<long long>(id), series.consumption.size(),
            temperature.size()));
      }
      dataset.AddConsumer(std::move(series));
    }
    dataset.SetTemperature(std::move(temperature));
    SM_RETURN_IF_ERROR(dataset.Validate());
    return dataset;
  }
  // Partitioned: stream the files one by one, in parallel slices.
  const size_t n = source_.files.size();
  std::vector<ConsumerSeries> consumers(n);
  std::vector<double> temperature;
  std::mutex mu;
  Status first_error = Status::OK();
  ThreadPool pool(std::max(1, threads_));
  pool.ParallelFor(n, [&](size_t begin, size_t end) {
    std::vector<double> local_temp;
    for (size_t i = begin; i < end; ++i) {
      Status st = planning::ParseSingleHouseholdFile(
          source_.files[i], &consumers[i], &local_temp);
      std::lock_guard<std::mutex> lock(mu);
      if (st.ok() && !temperature.empty() &&
          consumers[i].consumption.size() != temperature.size()) {
        st = Status::Corruption(StringPrintf(
            "%s has %zu hours, expected %zu", source_.files[i].c_str(),
            consumers[i].consumption.size(), temperature.size()));
      }
      if (!st.ok()) {
        if (first_error.ok()) first_error = st;
        return;
      }
      if (temperature.empty()) temperature = local_temp;
    }
  });
  SM_RETURN_IF_ERROR(first_error);
  MeterDataset dataset(std::move(temperature), std::move(consumers));
  SM_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Result<double> MatlabEngine::WarmUp() {
  SM_TRACE_SPAN("matlab.warmup");
  Stopwatch clock;
  SM_ASSIGN_OR_RETURN(MeterDataset dataset, ParseAll());
  warm_ = std::move(dataset);
  return clock.ElapsedSeconds();
}

void MatlabEngine::DropWarmData() { warm_.reset(); }

Result<exec::Plan> MatlabEngine::BuildPlan(const TaskOptions& options) const {
  if (source_.files.empty()) {
    return Status::InvalidArgument("matlab: no data attached");
  }
  exec::Plan plan;
  const std::string task(core::TaskName(options.task()));
  exec::KernelOp kernel;
  kernel.options = options;
  if (warm_.has_value()) {
    plan.label = "matlab/" + task + "/warm-arrays";
    plan.stages.push_back(
        {"scan", planning::DatasetBatchScan(&*warm_, "warm-arrays")});
    plan.stages.push_back({"kernel", std::move(kernel)});
    plan.stages.push_back({"materialize", exec::MaterializeOp{}});
    return plan;
  }
  if (source_.layout != table::DataSource::Layout::kPartitionedDir ||
      options.task() == core::TaskType::kSimilarity) {
    // Whole-dataset path: parse everything inside the scan stage (for
    // one big file this includes the index build), then compute.
    plan.label = "matlab/" + task + "/parse-all";
    exec::ScanOp scan;
    scan.kind = exec::ScanOp::Kind::kBatch;
    scan.source =
        source_.layout == table::DataSource::Layout::kSingleCsv
            ? "single-csv"
            : source_.layout == table::DataSource::Layout::kColumnFile
                  ? "column-file"
                  : "household-files";
    scan.scan_batch = [this]() -> Result<exec::BatchScan> {
      SM_ASSIGN_OR_RETURN(MeterDataset dataset, ParseAll());
      auto owner = std::make_shared<const MeterDataset>(std::move(dataset));
      SM_ASSIGN_OR_RETURN(table::ColumnarBatch batch,
                          table::ColumnarBatch::FromDataset(*owner));
      return exec::BatchScan{std::move(batch), owner, {}};
    };
    plan.stages.push_back({"scan", std::move(scan)});
    plan.stages.push_back({"kernel", std::move(kernel)});
    plan.stages.push_back({"materialize", exec::MaterializeOp{}});
    return plan;
  }
  // Partitioned per-household tasks: stream file -> compute -> next
  // file (a fused scan+kernel wave), so only one household is in memory
  // per worker at a time. Partition order == file order, so no merge.
  plan.label = "matlab/" + task + "/per-file";
  kernel.fuse_scan = true;
  plan.stages.push_back(
      {"scan", planning::FileSeriesScan(source_.files, "household-files")});
  plan.stages.push_back({"kernel", std::move(kernel)});
  plan.stages.push_back({"materialize", exec::MaterializeOp{}});
  return plan;
}

Result<TaskRunMetrics> MatlabEngine::RunTask(const exec::QueryContext& ctx,
                                             const TaskOptions& options,
                                             TaskResultSet* results) {
  SM_TRACE_SPAN("matlab.task");
  SM_ASSIGN_OR_RETURN(exec::Plan plan, BuildPlan(options));
  SM_ASSIGN_OR_RETURN(
      exec::PlanRunMetrics run,
      exec::PlanExecutor().Run(ctx, plan, LocalPoolPolicy(threads_), results));
  return ToTaskMetrics(std::move(run));
}

}  // namespace smartmeter::engines
