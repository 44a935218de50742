#include "engines/spark_engine.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/task_types.h"
#include "engines/cluster_task_util.h"
#include "engines/engine_util.h"
#include "engines/plan_builders.h"
#include "obs/trace.h"
#include "storage/csv.h"

namespace smartmeter::engines {

Result<double> SparkEngine::Attach(const table::DataSource& source) {
  SM_TRACE_SPAN("spark.attach");
  SM_RETURN_IF_ERROR(RequireLayout(source,
                                   {table::DataSource::Layout::kSingleCsv,
                                    table::DataSource::Layout::kHouseholdLines,
                                    table::DataSource::Layout::kWholeFileDir,
                                    table::DataSource::Layout::kColumnFile},
                                   name()));
  if (source.layout == table::DataSource::Layout::kWholeFileDir &&
      static_cast<int>(source.files.size()) >=
          options_.cluster.cost.spark_max_open_files) {
    // The paper hit this wall at ~100,000 input files (Section 5.4.2).
    return Status::IOError(
        "spark executor: too many open files (raise ulimit or use fewer, "
        "larger input files)");
  }
  source_ = source;
  columnar_reader_.reset();
  hdfs_ = std::make_unique<cluster::BlockStore>(options_.cluster.num_nodes,
                                                options_.block_bytes);
  if (source.layout == table::DataSource::Layout::kColumnFile) {
    auto reader =
        std::make_shared<table::ColumnFileReader>(source.files.front());
    SM_RETURN_IF_ERROR(reader->Open());
    SM_RETURN_IF_ERROR(hdfs_->AddColumnarFile(
        source.files.front(), planning::ColumnarFileBlocks(*reader)));
    columnar_reader_ = std::move(reader);
  } else {
    SM_RETURN_IF_ERROR(hdfs_->AddFiles(source.files));
  }
  return 0.0;
}

void SparkEngine::SetClusterConfig(const cluster::ClusterConfig& config) {
  options_.cluster = config;
  if (hdfs_ != nullptr) {
    auto store = std::make_unique<cluster::BlockStore>(config.num_nodes,
                                                       options_.block_bytes);
    if (columnar_reader_ != nullptr) {
      (void)store->AddColumnarFile(
          source_.files.front(),
          planning::ColumnarFileBlocks(*columnar_reader_));
    } else {
      (void)store->AddFiles(source_.files);
    }
    hdfs_ = std::move(store);
  }
}

exec::ExecutionPolicy SparkEngine::policy() const {
  exec::ExecutionPolicy policy;
  policy.dispatch = exec::ExecutionPolicy::Dispatch::kSimulatedCluster;
  policy.threads = threads_;
  policy.cluster = options_.cluster;
  policy.job_overhead_seconds =
      options_.cluster.cost.spark_job_overhead_seconds;
  policy.task_startup_seconds =
      options_.cluster.cost.spark_task_startup_seconds;
  policy.memory_model =
      exec::ExecutionPolicy::MemoryModel::kResidentPlusTaskBuffers;
  policy.block_bytes = options_.block_bytes;
  return policy;
}

Result<exec::Plan> SparkEngine::BuildPlan(const TaskOptions& options) const {
  if (hdfs_ == nullptr) {
    return Status::InvalidArgument("spark: no data attached");
  }
  const cluster::CostModel& cost = options_.cluster.cost;
  const bool whole_files =
      source_.layout == table::DataSource::Layout::kWholeFileDir;
  if (whole_files && static_cast<int>(source_.files.size()) >=
                         cost.spark_max_open_files) {
    return Status::IOError(
        "spark executor: too many open files (raise ulimit or use fewer, "
        "larger input files)");
  }
  if (whole_files && options.task() == core::TaskType::kSimilarity) {
    return Status::NotSupported(
        "spark: similarity not run for format 3 (matches the paper)");
  }

  const bool columnar =
      source_.layout == table::DataSource::Layout::kColumnFile;
  std::vector<cluster::InputSplit> splits;
  if (!columnar) {
    splits = whole_files ? hdfs_->WholeFileSplits() : hdfs_->SplittableSplits();
  }
  // Serial driver-side scheduling work per partition; wholeTextFiles also
  // lists and stats every input file at the driver before any task
  // launches -- the serial cost that makes thousands of small files
  // painful for Spark (Figure 18).
  double driver_seconds = static_cast<double>(splits.size()) *
                          cost.spark_per_partition_driver_seconds;
  if (whole_files) {
    driver_seconds +=
        static_cast<double>(source_.files.size()) * cost.file_open_seconds;
  }

  exec::Plan plan;
  const std::string task(core::TaskName(options.task()));
  exec::KernelOp kernel;
  kernel.options = options;
  if (options.task() == core::TaskType::kSimilarity) {
    // Broadcast the assembled series table + norms for a map-side join.
    kernel.broadcast_series_table = true;
  }

  if (columnar) {
    // Columnar file: one partition per compression block. A row-scoped
    // task prunes non-matching blocks at the driver (the cluster twin of
    // the single-node block-index pushdown) and the kept tasks decode
    // only the scoped rows, so the kernel's own scope is cleared.
    // Similarity never prunes: its candidate set is the whole table, and
    // its readings must be shuffled into assembled series first.
    plan.label = "spark/" + task + "/columnar";
    const bool prune = !options.scope().whole() &&
                       options.task() != core::TaskType::kSimilarity;
    storage::ScanScope scope;
    scope.row_begin = options.scope().begin;
    scope.row_count = options.scope().count;
    std::vector<cluster::ColumnarSplit> columnar_splits =
        hdfs_->ColumnarSplits(prune ? &scope : nullptr);
    if (prune) {
      internal::CountPrunedClusterBlocks(hdfs_->num_columnar_blocks(),
                                         columnar_splits.size());
      kernel.options.set_scope({});
    }
    driver_seconds = static_cast<double>(columnar_splits.size()) *
                     cost.spark_per_partition_driver_seconds;
    exec::ScanOp scan = planning::ColumnarReadingsScan(
        columnar_reader_, std::move(columnar_splits), "hdfs-columnar");
    scan.driver_seconds = driver_seconds;
    plan.stages.push_back({"scan", std::move(scan)});
    if (options.task() == core::TaskType::kSimilarity) {
      exec::ShuffleOp shuffle;
      shuffle.strategy = exec::ShuffleOp::Strategy::kDataflow;
      plan.stages.push_back({"shuffle", shuffle});
    }
  } else if (source_.layout == table::DataSource::Layout::kHouseholdLines) {
    // Format 2: map-only over whole-household lines; the temperature
    // sidecar ships as a broadcast variable (16-byte vector header + the
    // doubles), unconditionally -- the driver broadcasts before it looks
    // at the task.
    plan.label = "spark/" + task + "/format2";
    SM_ASSIGN_OR_RETURN(std::vector<double> sidecar,
                        storage::ReadTemperatureSidecar(
                            source_.files.front() + ".temperature"));
    kernel.broadcast_bytes +=
        16 + static_cast<int64_t>(sidecar.size()) * 8;
    exec::ScanOp scan = planning::SplitSeriesScan(
        std::move(splits), "hdfs-lines",
        std::make_shared<const std::vector<double>>(std::move(sidecar)));
    scan.driver_seconds = driver_seconds;
    plan.stages.push_back({"scan", std::move(scan)});
  } else if (whole_files) {
    // Format 3: one partition per whole file, households grouped within
    // the partition -- no shuffle, but the wholeTextFiles read penalty.
    plan.label = "spark/" + task + "/format3";
    exec::ScanOp scan = planning::SplitReadingsScan(
        std::move(splits), "hdfs-wholefile",
        cost.spark_wholefile_read_seconds_per_mb);
    scan.driver_seconds = driver_seconds;
    plan.stages.push_back({"scan", std::move(scan)});
  } else {
    // Format 1: parse reading rows, then a wide groupBy stage shuffles
    // them into per-household groups.
    plan.label = "spark/" + task + "/format1";
    exec::ScanOp scan =
        planning::SplitReadingsScan(std::move(splits), "hdfs-rows");
    scan.driver_seconds = driver_seconds;
    plan.stages.push_back({"scan", std::move(scan)});
    exec::ShuffleOp shuffle;
    shuffle.strategy = exec::ShuffleOp::Strategy::kDataflow;
    plan.stages.push_back({"shuffle", shuffle});
  }

  plan.stages.push_back({"kernel", std::move(kernel)});
  plan.stages.push_back({"materialize", exec::MaterializeOp{}});
  plan.stages.push_back({"merge", exec::MergeOp{}});
  return plan;
}

Result<TaskRunMetrics> SparkEngine::RunTask(const exec::QueryContext& qctx,
                                            const TaskOptions& options,
                                            TaskResultSet* results) {
  SM_TRACE_SPAN("spark.task");
  SM_ASSIGN_OR_RETURN(exec::Plan plan, BuildPlan(options));
  SM_ASSIGN_OR_RETURN(
      exec::PlanRunMetrics run,
      exec::PlanExecutor().Run(qctx, plan, policy(), results));
  return ToTaskMetrics(std::move(run));
}

}  // namespace smartmeter::engines
