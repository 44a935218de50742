#ifndef SMARTMETER_ENGINES_SYSTEMC_ENGINE_H_
#define SMARTMETER_ENGINES_SYSTEMC_ENGINE_H_

#include <memory>
#include <string>

#include "engines/engine.h"
#include "exec/plan.h"
#include "table/columnar_batch.h"
#include "table/columnar_cache.h"
#include "table/table_reader.h"

namespace smartmeter::engines {

/// Models "System C", the commercial main-memory column store of Section
/// 5.1: at load time the data is converted once into an SMCOLV2 column
/// file, and Attach decodes that file once into resident columns, so
/// warm scans are spans over contiguous doubles; all statistical
/// operators are the library's own hand-written kernels (System C ships
/// none). Parallelism is a native configuration parameter.
///
/// The conversion runs through the shared columnar cache: the first
/// Attach of a source parses and spools the column file (cache miss);
/// re-attaching the unchanged source opens and decodes the file with no
/// parsing (cache hit) — the Figure 6 cold/warm distinction made
/// explicit.
class SystemCEngine : public AnalyticsEngine {
 public:
  /// `spool_dir` is where the engine materializes its columnar files.
  explicit SystemCEngine(std::string spool_dir);

  std::string_view name() const override { return "system-c"; }
  Result<double> Attach(const table::DataSource& source) override;
  Result<double> WarmUp() override;
  void DropWarmData() override;
  using AnalyticsEngine::RunTask;
  Result<TaskRunMetrics> RunTask(const exec::QueryContext& ctx,
                                 const TaskOptions& options,
                                 TaskResultSet* results) override;

  /// The physical plan RunTask executes: scan the resident columnar
  /// batch, run the kernel, materialize.
  Result<exec::Plan> BuildPlan(const TaskOptions& options) const;
  void SetThreads(int num_threads) override { threads_ = num_threads; }
  int threads() const override { return threads_; }

  const table::TableReader* reader() const { return reader_.get(); }

 private:
  table::ColumnarCache cache_;
  std::unique_ptr<table::TableReader> reader_;
  table::ColumnarBatch batch_;
  int threads_ = 1;
  bool prefaulted_ = false;
};

}  // namespace smartmeter::engines

#endif  // SMARTMETER_ENGINES_SYSTEMC_ENGINE_H_
