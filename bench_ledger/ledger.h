#ifndef SMARTMETER_BENCH_LEDGER_LEDGER_H_
#define SMARTMETER_BENCH_LEDGER_LEDGER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engines/task_api.h"
#include "timeseries/dataset.h"

namespace smartmeter::ledger {

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Which output a metric belongs to: the end-to-end numbers a user sees
/// (printed by untraced runs), single-layer numbers (printed by traced
/// runs), or workload detail printed beside the end-to-end numbers.
enum class MetricKind { kEndToEnd, kLayer, kDetail };

/// The named measurements of one run, printed one per line as
/// "name value unit" in the order they were first set.
class Metrics {
 public:
  void Set(MetricKind kind, const std::string& name, double value,
           const std::string& unit);
  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    Set(MetricKind::kEndToEnd, name, value, unit);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    Set(MetricKind::kLayer, name, value, unit);
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    Set(MetricKind::kDetail, name, value, unit);
  }

  /// Prints the metrics of the given kinds to stdout.
  void Print(std::initializer_list<MetricKind> kinds) const;

 private:
  struct Entry {
    MetricKind kind;
    std::string name;
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

/// Output checks. A failed check makes the whole run invalid: the
/// harness still prints its metrics, then exits nonzero.
class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail);
  bool all_ok() const;
  /// Prints one "# check <name>: ok|FAIL <detail>" line per check.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    bool ok;
    std::string detail;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One span around a call into a layer, as the benchmark saw it from
/// outside. The layer is the span name up to the first '.'.
struct SpanRecord {
  std::string name;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;    // 0: top-level span.
  uint64_t query_id = 0;  // 0: not part of a query.
  uint32_t thread = 0;
};

/// In-memory span collector for traced runs, written out once at exit
/// as Chrome trace-event JSON (loadable by Perfetto / chrome://tracing).
class Tracer {
 public:
  Tracer();

  int64_t NowNanos() const;
  int64_t ToNanos(std::chrono::steady_clock::time_point t) const;

  /// Records a finished span; returns its id. Thread-safe.
  uint64_t Record(std::string name, int64_t begin_ns, int64_t end_ns,
                  uint64_t parent, uint64_t query_id);
  /// Reserves an id for a span whose record is written later (a parent
  /// whose children are recorded first).
  uint64_t NewId() { return next_id_.fetch_add(1); }
  void RecordWithId(uint64_t id, std::string name, int64_t begin_ns,
                    int64_t end_ns, uint64_t parent, uint64_t query_id);

  size_t size() const;

  Status WriteChromeJson(const std::string& path) const;

  /// Prints "# self <layer> <ms> ms" per layer: each span's duration
  /// minus the time its children cover, summed by layer.
  void PrintSelfTimes() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. A null tracer makes it a no-op, which is how untraced
/// requests share code with traced ones. Nested spans on one thread
/// take the enclosing span as their parent.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t query_id = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t query_id_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t begin_ns_ = 0;
};

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

/// Operation accounting behind the result's attempted/failed counts.
struct OpCounts {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};

  void Count(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Load generators and task runs use this many threads at most.
inline constexpr int kThreads = 4;
/// Shards of the routed-serving runner; a routed query decodes the row
/// slice of one of them.
inline constexpr size_t kServingShards = 4;

/// Metric-name spelling of a task ("threeline" for the 3-line task).
std::string TaskKey(core::TaskType task);

/// Everything one process run shares across its workloads.
struct RunContext {
  uint64_t seed = 20150323;
  int households = 400;
  int hours = 8760;
  /// Fresh per run; removed on exit.
  std::string workdir;
  /// Null in untraced runs.
  Tracer* tracer = nullptr;
  Metrics metrics;
  Checks checks;
  OpCounts ops;
};

/// The data set every workload starts from, plus the text files the
/// workloads that load from disk read.
struct Inputs {
  MeterDataset dataset;
  std::string csv_path;                      // Empty unless written.
  std::vector<std::string> partition_files;  // Empty unless written.
};

/// Generates the seeded data set the way the repository's benches do: a
/// synthetic "real" seed of up to 100 households, then the paper's
/// generator scaled to `households`.
Result<MeterDataset> GenerateDataset(int households, int hours, uint64_t seed);

/// Order-sensitive hash over every bit of a result set: equal hashes
/// mean bit-identical results.
uint64_t Fingerprint(const engines::TaskResultSet& results);

/// Creates `path` (and parents), removing whatever was there first.
Status FreshDirectory(const std::string& path);

/// Removes a file tree when it goes out of scope, however the scope ends.
class RemoveOnExit {
 public:
  explicit RemoveOnExit(std::string path) : path_(std::move(path)) {}
  ~RemoveOnExit();
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One benchmark workload. The harness times Setup(), together with
/// preparing its inputs, as setup_s; Run() measures for about `seconds`,
/// records metrics into the context, and checks its own outputs.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual bool needs_csv() const = 0;
  virtual bool needs_partitions() const = 0;

  /// Makes `inputs` queryable: attach, spool, route. `inputs` must
  /// outlive the workload.
  virtual Status Setup(const Inputs& inputs) = 0;

  /// The timed phase. `primary` is false when the workload runs only as
  /// a short layer probe inside another workload's traced run.
  virtual Status Run(double seconds, bool primary) = 0;
};

std::unique_ptr<Workload> MakePaperBatch(RunContext* run);
std::unique_ptr<Workload> MakeRoutedServing(RunContext* run);
std::unique_ptr<Workload> MakeLiveIngest(RunContext* run);

/// Per-layer probes that do not depend on the workload: data generation,
/// storage, table, kernels at scalar and dispatched SIMD level, and the
/// resident plan fixed cost.
Status RunLayerPanel(RunContext* run, const Inputs& inputs);

}  // namespace smartmeter::ledger

#endif  // SMARTMETER_BENCH_LEDGER_LEDGER_H_
