// paper-batch: the paper's own end-to-end path. Each pass runs the five
// engines in turn; each engine does a cold Attach from a fresh spool, a
// WarmUp, then the four tasks at kThreads threads. Matlab reads the
// partitioned layout (its single-CSV ingest is quadratic) and the others
// read the single CSV. Kernels, CSV parsing, spool building, the row
// store and the Spark/Hive text re-parse do the work here; serving,
// scoped scans and the delta store do none.
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engines/engine_factory.h"
#include "exec/query_context.h"
#include "ledger.h"
#include "table/data_source.h"

namespace smartmeter::ledger {
namespace {

struct EngineCase {
  engines::EngineKind kind;
  bool partitioned;
};

constexpr EngineCase kEngines[] = {
    {engines::EngineKind::kSystemC, false},
    {engines::EngineKind::kMatlab, true},
    {engines::EngineKind::kMadlib, false},
    {engines::EngineKind::kSpark, false},
    {engines::EngineKind::kHive, false},
};

class PaperBatch : public Workload {
 public:
  explicit PaperBatch(RunContext* run) : run_(run) {}

  bool needs_csv() const override { return true; }
  bool needs_partitions() const override { return true; }

  Status Setup(const Inputs& inputs) override {
    SM_ASSIGN_OR_RETURN(single_, table::DataSource::SingleCsv(inputs.csv_path));
    SM_ASSIGN_OR_RETURN(partitioned_, table::DataSource::PartitionedDir(
                                          inputs.partition_files));
    return Status::OK();
  }

  Status Run(double seconds, bool primary) override;

 private:
  /// One engine's suite: attach + warm-up + the four tasks, in wall
  /// seconds; nullopt when a step failed.
  struct SuiteTimes {
    double suite_s = 0.0;
    double attach_s = 0.0;
  };
  std::optional<SuiteTimes> RunSuite(const EngineCase& c, int pass,
                                     Tracer* tracer);

  /// Per-pass samples, keyed by metric name.
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  RunContext* run_;
  table::DataSource single_;
  table::DataSource partitioned_;
  std::map<std::string, std::vector<double>> samples_;
  /// Every suite's wall seconds: the request latency samples.
  std::vector<double> suites_;
  std::vector<double> traced_suites_;
  std::vector<double> untraced_suites_;
  int64_t tasks_ok_ = 0;
  /// System C's fingerprint per task from the first pass; every other
  /// engine and pass must reproduce it bit for bit.
  std::map<core::TaskType, uint64_t> reference_;
  std::vector<std::string> mismatches_;
};

std::optional<PaperBatch::SuiteTimes> PaperBatch::RunSuite(
    const EngineCase& c, int pass, Tracer* tracer) {
  const std::string engine_name(engines::EngineKindName(c.kind));
  const std::string spool = StringPrintf("%s/spool-%d-%s",
                                         run_->workdir.c_str(), pass,
                                         engine_name.c_str());
  if (!FreshDirectory(spool).ok()) return std::nullopt;
  // Declared before the engine, so the spool goes after the engine does.
  const RemoveOnExit remove_spool(spool);
  engines::EngineFactoryOptions factory;
  factory.spool_dir = spool;
  std::unique_ptr<engines::AnalyticsEngine> engine =
      engines::MakeEngine(c.kind, factory);
  engine->SetThreads(kThreads);
  const std::string prefix = "engines." + engine_name + ".";

  Span suite_span(tracer, "engines.suite");
  Stopwatch suite;
  SuiteTimes times;
  {
    Span span(tracer, "engines.attach");
    Stopwatch watch;
    Result<double> attach =
        engine->Attach(c.partitioned ? partitioned_ : single_);
    run_->ops.Count(attach.ok());
    if (!attach.ok()) {
      run_->checks.Expect(false, "paper-batch.attach." + engine_name,
                          attach.status().ToString());
      return std::nullopt;
    }
    times.attach_s = watch.ElapsedSeconds();
    Sample(prefix + "attach_s", times.attach_s);
  }
  {
    Span span(tracer, "engines.warmup");
    Stopwatch watch;
    Result<double> warm = engine->WarmUp();
    run_->ops.Count(warm.ok());
    if (!warm.ok()) {
      run_->checks.Expect(false, "paper-batch.warmup." + engine_name,
                          warm.status().ToString());
      return std::nullopt;
    }
    Sample(prefix + "warmup_s", watch.ElapsedSeconds());
  }
  std::map<std::string, double> stage_seconds;
  for (core::TaskType task : core::kAllTasks) {
    engines::TaskResultSet results;
    Result<engines::TaskRunMetrics> metrics = [&] {
      Span span(tracer, "engines.task");
      Stopwatch watch;
      auto m = engine->RunTask(exec::QueryContext::Background(),
                               engines::TaskOptions::Default(task), &results);
      Sample(prefix + TaskKey(task) + "_s", watch.ElapsedSeconds());
      return m;
    }();
    run_->ops.Count(metrics.ok());
    if (!metrics.ok()) {
      run_->checks.Expect(false,
                          "paper-batch.task." + engine_name + "." +
                              TaskKey(task),
                          metrics.status().ToString());
      return std::nullopt;
    }
    ++tasks_ok_;
    for (const exec::StageTiming& stage : metrics->stages) {
      stage_seconds[stage.name] += stage.seconds;
    }
    const uint64_t fingerprint = Fingerprint(results);
    const auto [it, inserted] = reference_.emplace(task, fingerprint);
    if (!inserted && it->second != fingerprint) {
      mismatches_.push_back(StringPrintf("%s/%s/pass%d", engine_name.c_str(),
                                         TaskKey(task).c_str(), pass));
    }
  }
  times.suite_s = suite.ElapsedSeconds();
  // The stages that do measured work. Driver rows are fixed simulated
  // charges, and materialize/merge rows are zero or a few microseconds.
  for (const char* stage : {"scan", "kernel", "shuffle"}) {
    const auto it = stage_seconds.find(stage);
    if (it != stage_seconds.end() && it->second > 0) {
      Sample("exec." + engine_name + "." + stage + "_s", it->second);
    }
  }
  Sample("suite_s." + engine_name, times.suite_s);
  return times;
}

Status PaperBatch::Run(double seconds, bool primary) {
  // In a traced primary run odd passes are traced and even passes are
  // not, so the two halves measure the tracing overhead.
  const int min_passes = primary && run_->tracer != nullptr ? 2 : 1;
  Stopwatch phase;
  for (int pass = 0;
       pass < min_passes || (primary && phase.ElapsedSeconds() < seconds);
       ++pass) {
    const bool traced =
        run_->tracer != nullptr && (!primary || pass % 2 == 1);
    Tracer* tracer = traced ? run_->tracer : nullptr;
    double attach_total = 0.0;
    for (const EngineCase& c : kEngines) {
      const std::optional<SuiteTimes> times = RunSuite(c, pass, tracer);
      if (!times) continue;
      suites_.push_back(times->suite_s);
      (traced ? traced_suites_ : untraced_suites_).push_back(times->suite_s);
      attach_total += times->attach_s;
    }
    Sample("load_s", attach_total);
  }
  std::string differs;
  for (const std::string& mismatch : mismatches_) differs += " " + mismatch;
  run_->checks.Expect(mismatches_.empty(), "paper-batch.five-engine-parity",
                      mismatches_.empty()
                          ? StringPrintf("%zu suites bit-identical per task",
                                         suites_.size())
                          : "differs:" + differs);

  Metrics& m = run_->metrics;
  for (const auto& [name, values] : samples_) {
    if (name.rfind("engines.", 0) == 0 || name.rfind("exec.", 0) == 0) {
      m.Layer(name, Median(values), "s");
    }
  }
  if (!primary) return Status::OK();
  double suite_total = 0.0;
  for (double s : suites_) suite_total += s;
  std::vector<double> suite_ms;
  for (double s : suites_) suite_ms.push_back(s * 1e3);
  m.EndToEnd("latency_p50_ms", Percentile(suite_ms, 0.50), "ms");
  m.EndToEnd("latency_p99_ms", Percentile(suite_ms, 0.99), "ms");
  m.EndToEnd("throughput_per_s",
             suite_total > 0 ? static_cast<double>(tasks_ok_) / suite_total
                             : 0.0,
             "1/s");
  m.EndToEnd("secondary_ms", Median(samples_["load_s"]) * 1e3, "ms");
  for (const EngineCase& c : kEngines) {
    const std::string name =
        "suite_s." + std::string(engines::EngineKindName(c.kind));
    m.Detail(name, Median(samples_[name]), "s");
  }
  m.Detail("suites", static_cast<double>(suites_.size()), "count");
  if (run_->tracer != nullptr && !traced_suites_.empty() &&
      !untraced_suites_.empty()) {
    m.Layer("trace.overhead_frac",
            Median(traced_suites_) / Median(untraced_suites_) - 1.0, "frac");
  }
  return Status::OK();
}

}  // namespace

std::unique_ptr<Workload> MakePaperBatch(RunContext* run) {
  return std::make_unique<PaperBatch>(run);
}

}  // namespace smartmeter::ledger
