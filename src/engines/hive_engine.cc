#include "engines/hive_engine.h"

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

Result<double> HiveEngine::Attach(const table::DataSource& source) {
  SM_TRACE_SPAN("hive.attach");
  SM_RETURN_IF_ERROR(RequireLayout(source,
                                   {table::DataSource::Layout::kSingleCsv,
                                    table::DataSource::Layout::kHouseholdLines,
                                    table::DataSource::Layout::kWholeFileDir,
                                    table::DataSource::Layout::kColumnFile},
                                   name()));
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
  return 0.0;  // HDFS registration; upload is outside the benchmark clock.
}

void HiveEngine::SetClusterConfig(const cluster::ClusterConfig& config) {
  options_.cluster = config;
  if (hdfs_ != nullptr) {
    // Re-place blocks for the new node count.
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

exec::ExecutionPolicy HiveEngine::policy() const {
  exec::ExecutionPolicy policy;
  policy.dispatch = exec::ExecutionPolicy::Dispatch::kSimulatedCluster;
  policy.threads = threads_;
  policy.cluster = options_.cluster;
  policy.job_overhead_seconds =
      options_.cluster.cost.hive_job_overhead_seconds;
  policy.task_startup_seconds =
      options_.cluster.cost.hive_task_startup_seconds;
  policy.memory_model =
      exec::ExecutionPolicy::MemoryModel::kPeakTaskTimesSlots;
  policy.block_bytes = options_.block_bytes;
  return policy;
}

Result<exec::Plan> HiveEngine::BuildPlan(const TaskOptions& options) const {
  if (hdfs_ == nullptr) {
    return Status::InvalidArgument("hive: no data attached");
  }
  exec::Plan plan;
  const std::string task(core::TaskName(options.task()));
  exec::KernelOp kernel;
  kernel.options = options;

  if (options.task() == core::TaskType::kSimilarity) {
    if (source_.layout == table::DataSource::Layout::kWholeFileDir) {
      // The distance computation cannot be expressed in one UDTF pass
      // (Section 5.4.2: similarity is skipped for the third format).
      return Status::NotSupported("hive: no similarity plan for format 3");
    }
    // The self-join runs as a second MapReduce job (its own job
    // overhead), and Hive cannot plan a map-side join here, so every
    // join task re-reads the full series table through the shuffle.
    kernel.shuffle_table_per_task = true;
    kernel.extra_overhead_seconds =
        options_.cluster.cost.hive_job_overhead_seconds;
    if (source_.layout == table::DataSource::Layout::kColumnFile) {
      // Columnar similarity decodes every block (the candidate set is
      // the whole table) and shuffles the readings into assembled series
      // for the self-join, exactly like format 1.
      plan.label = "hive/" + task + "/columnar";
      plan.stages.push_back(
          {"scan", planning::ColumnarReadingsScan(columnar_reader_,
                                                  hdfs_->ColumnarSplits(nullptr),
                                                  "hdfs-columnar")});
      exec::ShuffleOp shuffle;
      shuffle.strategy = exec::ShuffleOp::Strategy::kSortMerge;
      plan.stages.push_back({"shuffle", shuffle});
    } else if (source_.layout == table::DataSource::Layout::kSingleCsv) {
      plan.label = "hive/" + task + "/format1";
      plan.stages.push_back(
          {"scan", planning::SplitReadingsScan(hdfs_->SplittableSplits(),
                                               "hdfs-rows")});
      exec::ShuffleOp shuffle;
      shuffle.strategy = exec::ShuffleOp::Strategy::kSortMerge;
      plan.stages.push_back({"shuffle", shuffle});
    } else {
      plan.label = "hive/" + task + "/format2";
      plan.stages.push_back(
          {"scan", planning::SplitSeriesScan(hdfs_->SplittableSplits(),
                                             "hdfs-lines")});
    }
  } else {
    switch (source_.layout) {
      case table::DataSource::Layout::kColumnFile: {
        // Columnar map-only plan: one map task per compression block,
        // each decoding its own household range through the block index
        // and aggregating map-side (rows arrive household-grouped, so no
        // reduce phase is needed). A row-scoped task prunes non-matching
        // blocks before any task is created and the kept tasks decode
        // only the scoped rows, so the kernel's own scope is cleared.
        plan.label = "hive/" + task + "/columnar";
        kernel.fuse_scan = true;
        const bool prune = !options.scope().whole();
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
        plan.stages.push_back(
            {"scan", planning::ColumnarReadingsScan(columnar_reader_,
                                                    std::move(columnar_splits),
                                                    "hdfs-columnar")});
        break;
      }
      case table::DataSource::Layout::kSingleCsv: {
        // UDAF plan: map parses rows, a sort-merge shuffle groups them,
        // reduce assembles and computes.
        plan.label = "hive/" + task + "/format1";
        plan.stages.push_back(
            {"scan", planning::SplitReadingsScan(hdfs_->SplittableSplits(),
                                                 "hdfs-rows")});
        exec::ShuffleOp shuffle;
        shuffle.strategy = exec::ShuffleOp::Strategy::kSortMerge;
        plan.stages.push_back({"shuffle", shuffle});
        break;
      }
      case table::DataSource::Layout::kHouseholdLines: {
        // Generic-UDF, map-only plan: each line is one complete
        // household, computed in the same wave that scans it. The
        // temperature table ships raw (8 bytes per value) to every node
        // via the distributed cache.
        plan.label = "hive/" + task + "/format2";
        SM_ASSIGN_OR_RETURN(std::vector<double> sidecar,
                            storage::ReadTemperatureSidecar(
                                source_.files.front() + ".temperature"));
        kernel.fuse_scan = true;
        kernel.broadcast_bytes = static_cast<int64_t>(sidecar.size()) * 8;
        plan.stages.push_back(
            {"scan",
             planning::SplitSeriesScan(
                 hdfs_->SplittableSplits(), "hdfs-lines",
                 std::make_shared<const std::vector<double>>(
                     std::move(sidecar)))});
        break;
      }
      case table::DataSource::Layout::kWholeFileDir:
      default: {
        if (options_.format3_style == Format3Style::kUdtf) {
          // UDTF plan over the non-splittable format: each map task owns
          // whole files, aggregates per household map-side (a built-in
          // combiner), and no reduce phase is needed.
          plan.label = "hive/" + task + "/format3-udtf";
          kernel.fuse_scan = true;
          plan.stages.push_back(
              {"scan", planning::SplitReadingsScan(hdfs_->WholeFileSplits(),
                                                   "hdfs-wholefile")});
        } else {
          // UDAF plan over whole files: shuffle like format 1.
          plan.label = "hive/" + task + "/format3-udaf";
          plan.stages.push_back(
              {"scan", planning::SplitReadingsScan(hdfs_->WholeFileSplits(),
                                                   "hdfs-wholefile")});
          exec::ShuffleOp shuffle;
          shuffle.strategy = exec::ShuffleOp::Strategy::kSortMerge;
          plan.stages.push_back({"shuffle", shuffle});
        }
        break;
      }
    }
  }

  plan.stages.push_back({"kernel", std::move(kernel)});
  plan.stages.push_back({"materialize", exec::MaterializeOp{}});
  plan.stages.push_back({"merge", exec::MergeOp{}});
  return plan;
}

Result<TaskRunMetrics> HiveEngine::RunTask(const exec::QueryContext& ctx,
                                           const TaskOptions& options,
                                           TaskResultSet* results) {
  SM_TRACE_SPAN("hive.task");
  SM_ASSIGN_OR_RETURN(exec::Plan plan, BuildPlan(options));
  SM_ASSIGN_OR_RETURN(exec::PlanRunMetrics run,
                      exec::PlanExecutor().Run(ctx, plan, policy(), results));
  return ToTaskMetrics(std::move(run));
}

}  // namespace smartmeter::engines
