#ifndef SMARTMETER_ENGINES_ENGINE_H_
#define SMARTMETER_ENGINES_ENGINE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/three_line_task.h"
#include "engines/task_api.h"
#include "exec/plan_executor.h"
#include "exec/query_context.h"
#include "table/data_source.h"

namespace smartmeter::engines {

/// What one task execution produced and cost.
struct TaskRunMetrics {
  /// Task time: wall-clock for single-node engines, simulated cluster
  /// time for Hive/Spark.
  double seconds = 0.0;
  /// True when `seconds` comes from the cluster simulation.
  bool simulated = false;
  /// 3-line phase breakdown (Figure 6), filled only for kThreeLine.
  core::ThreeLinePhases phases;
  /// Modeled resident memory of the engine's task execution (cluster
  /// engines; single-node engines report 0 and the bench samples RSS).
  int64_t modeled_memory_bytes = 0;
  /// Per-stage timing rows of the executed physical plan; stage seconds
  /// sum to `seconds` (wall-clock or simulated, matching `simulated`).
  std::vector<exec::StageTiming> stages;
  /// Injected-fault totals across the plan's simulated waves (zero for
  /// local engines and healthy clusters).
  cluster::WaveFaultStats faults;
  /// Block-index scan accounting, summed over the plan's batch scans
  /// (zero for text sources and unindexed formats).
  storage::ScanStats scan;
};

/// A platform under benchmark. The lifecycle mirrors Section 5's
/// methodology:
///   Attach(source)  -- "loading": whatever the platform does to make
///                      data queryable (bulk-load a DBMS table, convert
///                      and decode a columnar file, register HDFS files).
///   RunTask(...)    -- cold start when called right after Attach.
///   WarmUp()        -- pull working data into memory structures.
///   RunTask(...)    -- warm start.
///
/// RunTask takes an exec::QueryContext carrying the query's deadline and
/// cancellation token; engines poll ctx.ShouldStop() from their scan
/// loops so a cancelled or expired query returns promptly instead of
/// finishing a multi-second scan. Engines that hold no mutable per-call
/// state may serve concurrent RunTask calls from different threads (the
/// serving layer still dedicates one session per engine instance).
class AnalyticsEngine {
 public:
  virtual ~AnalyticsEngine() = default;

  virtual std::string_view name() const = 0;
  virtual bool is_cluster_engine() const { return false; }

  /// Makes `source` the engine's active data set. Returns the loading
  /// time in seconds (Figure 4). Replaces any previously attached data.
  virtual Result<double> Attach(const table::DataSource& source) = 0;

  /// Brings the attached data into memory; returns the seconds spent.
  virtual Result<double> WarmUp() = 0;

  /// Drops warm state so the next RunTask is a cold start again.
  virtual void DropWarmData() = 0;

  /// Executes one benchmark task over all attached households under
  /// `ctx`'s deadline/cancellation. `results` may be null when only
  /// timing is wanted. Returns kCancelled / kDeadlineExceeded when the
  /// context stops the query mid-scan.
  virtual Result<TaskRunMetrics> RunTask(const exec::QueryContext& ctx,
                                         const TaskOptions& options,
                                         TaskResultSet* results) = 0;

  /// Convenience overload: runs under the never-cancelled background
  /// context. Derived classes re-expose it with
  /// `using AnalyticsEngine::RunTask;`.
  Result<TaskRunMetrics> RunTask(const TaskOptions& options,
                                 TaskResultSet* results) {
    return RunTask(exec::QueryContext::Background(), options, results);
  }

  /// Degree of parallelism for subsequent RunTask calls (Figure 10).
  virtual void SetThreads(int num_threads) = 0;
  virtual int threads() const = 0;
};

/// Identifiers for the factory.
enum class EngineKind { kMatlab, kMadlib, kSystemC, kSpark, kHive };

std::string_view EngineKindName(EngineKind kind);

}  // namespace smartmeter::engines

#endif  // SMARTMETER_ENGINES_ENGINE_H_
