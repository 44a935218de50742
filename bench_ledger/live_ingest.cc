// live-ingest: writes beside reads on the table layer. A DeltaStore with a
// one-hour publish lag holds the base (all but the last seventh of the
// year). Phase A streams the live hours hour-major through a
// StreamProcessor (spike detector into an AlertLog) at a fixed open-loop
// kIngestRate while a snapshotter publishes every kSnapshotPeriod and
// kQueryClients closed-loop clients run routed histograms over
// DeltaTableReader snapshots. Phase B streams the whole live window
// unpaced into fresh stores, again and again, while the clients keep
// querying; its stores outgrow their initial capacity, so appends pay
// for copy-on-grow. This exposes trades
// that help scans but cost appends, freshness or memory (copy-on-grow
// regrids), and the reverse.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engines/engine_util.h"
#include "exec/query_context.h"
#include "ledger.h"
#include "storage/scan_scope.h"
#include "streaming/alert_log.h"
#include "streaming/detectors.h"
#include "streaming/stream_processor.h"
#include "table/columnar_batch.h"
#include "table/delta_store.h"

namespace smartmeter::ledger {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kIngestRate = 20000.0;  // Phase A readings per second.
constexpr auto kSnapshotPeriod = std::chrono::milliseconds(25);
constexpr int kQueryClients = 2;
constexpr double kSpikeKwh = 15.0;
constexpr double kMarkerKwh = 42.42;
/// Phase A sleeps to its schedule once per this many readings.
constexpr int64_t kPaceEvery = 64;
/// Traced runs record spans for one in this many readings and one in
/// this many queries of each client; the untraced rest of the queries
/// measure the tracing overhead.
constexpr int64_t kTraceProcessEvery = 64;
constexpr int64_t kTraceQueryEvery = 16;

/// What one ingest session measured.
struct SessionStats {
  int64_t sent = 0;
  int64_t accepted = 0;
  double ingest_seconds = 0.0;
  std::vector<double> freshness_ms;
  std::vector<double> snapshot_us;
  std::vector<double> process_us;
  std::vector<double> late_ms;
  std::vector<double> query_ms;
  std::vector<double> traced_query_ms;
  std::vector<double> untraced_query_ms;
  std::vector<double> scan_us;
  int64_t regrids = 0;
  int64_t alerts = 0;
};

class LiveIngest : public Workload {
 public:
  explicit LiveIngest(RunContext* run) : run_(run) {}

  bool needs_csv() const override { return false; }
  bool needs_partitions() const override { return false; }

  Status Setup(const Inputs& inputs) override {
    data_ = &inputs.dataset;
    rows_ = data_->num_consumers();
    // The last hour is kept back for the marker probe's next-hour
    // reading, which is what publishes the marker under a one-hour lag.
    live_hours_ = data_->hours() / 7;
    base_hours_ = data_->hours() - live_hours_ - 1;
    spike_hour_ = base_hours_ + std::min<size_t>(48, live_hours_ / 2);
    SM_ASSIGN_OR_RETURN(store_, NewStore());
    return Status::OK();
  }

  Status Run(double seconds, bool primary) override;

 private:
  /// A store holding the base, timed into table.delta.attach_base_s.
  Result<std::unique_ptr<table::DeltaStore>> NewStore();

  /// Streams readings [0, limit) into `store` (paced at kIngestRate when
  /// `paced`, else as fast as possible) with the snapshotter and query
  /// clients running, until `limit` readings or `seconds` have passed.
  /// Spans go to `tracer` when it is not null.
  SessionStats RunSession(table::DeltaStore* store, int64_t limit,
                          double seconds, bool paced, Tracer* tracer);

  streaming::StreamReading ReadingAt(int64_t index) const {
    const size_t hour = base_hours_ + static_cast<size_t>(index) / rows_;
    const size_t row = static_cast<size_t>(index) % rows_;
    streaming::StreamReading reading;
    reading.household_id = data_->consumer(row).household_id;
    reading.hour = static_cast<int64_t>(hour);
    reading.consumption = Expected(row, hour);
    reading.temperature = data_->temperature()[hour];
    return reading;
  }

  /// The source value of one slot, with the injected spike.
  double Expected(size_t row, size_t hour) const {
    const double v = data_->consumer(row).consumption[hour];
    return row == 1 && hour == spike_hour_ ? v + kSpikeKwh : v;
  }

  /// Published snapshot == the source rows it covers, bit for bit.
  void CheckSnapshot(table::DeltaStore* store);
  /// A reading appended after the stream becomes visible to a routed
  /// query once its next hour arrives.
  void CheckMarker(table::DeltaStore* store, int64_t readings_sent);

  RunContext* run_;
  const MeterDataset* data_ = nullptr;
  size_t rows_ = 0;
  size_t live_hours_ = 0;
  size_t base_hours_ = 0;
  size_t spike_hour_ = 0;
  std::unique_ptr<table::DeltaStore> store_;
  std::vector<double> attach_base_s_;
  const engines::TaskOptions histogram_ =
      engines::TaskOptions::Default(core::TaskType::kHistogram);
};

Result<std::unique_ptr<table::DeltaStore>> LiveIngest::NewStore() {
  std::vector<int64_t> ids;
  std::vector<table::SeriesSlice> series;
  for (size_t r = 0; r < rows_; ++r) {
    ids.push_back(data_->consumer(r).household_id);
    series.emplace_back(data_->consumer(r).consumption.data(), base_hours_);
  }
  SM_ASSIGN_OR_RETURN(
      table::ColumnarBatch base,
      table::ColumnarBatch::FromSlices(
          std::move(ids), std::move(series),
          table::SeriesSlice(data_->temperature().data(), base_hours_)));
  table::DeltaStore::Options options;
  options.publish_lag_hours = 1;
  auto store = std::make_unique<table::DeltaStore>(options);
  Stopwatch watch;
  SM_RETURN_IF_ERROR(store->AttachBase(base));
  attach_base_s_.push_back(watch.ElapsedSeconds());
  return store;
}

SessionStats LiveIngest::RunSession(table::DeltaStore* store, int64_t limit,
                                    double seconds, bool paced,
                                    Tracer* tracer) {
  SessionStats stats;
  std::mutex reader_mu;
  table::DeltaTableReader reader(store);
  if (!reader.Open().ok()) {
    run_->checks.Expect(false, "live-ingest.reader-open", "");
    return stats;
  }
  streaming::AlertLog alerts;
  streaming::StreamProcessor::Options processor_options;
  processor_options.delta = store;
  streaming::StreamProcessor processor(processor_options);
  processor.AddDetectorPrototype(std::make_unique<streaming::SpikeDetector>());
  processor.SetAlertSink(
      [&alerts](const streaming::Alert& a) { alerts.Record(a); });

  std::atomic<bool> stop{false};
  std::vector<double> freshness_s;
  std::thread snapshotter([&] {
    size_t stride = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      {
        Span span(tracer, "table.snapshot");
        Stopwatch watch;
        std::shared_ptr<const table::DeltaSnapshot> snap =
            store->Snapshot(&freshness_s);
        {
          std::lock_guard<std::mutex> lock(reader_mu);
          (void)reader.Refresh();
        }
        stats.snapshot_us.push_back(watch.ElapsedSeconds() * 1e6);
        if (stride != 0 && snap->stride != stride) ++stats.regrids;
        stride = snap->stride;
      }
      std::this_thread::sleep_for(kSnapshotPeriod);
    }
  });

  std::mutex merge_mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < kQueryClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(run_->seed * 17 + static_cast<uint64_t>(c));
      std::vector<double> latency_ms, traced_ms, untraced_ms, scan_us;
      for (int64_t q = 0; !stop.load(std::memory_order_relaxed); ++q) {
        const bool traced = tracer != nullptr && q % kTraceQueryEvery == 0;
        Tracer* t = traced ? tracer : nullptr;
        Stopwatch watch;
        bool ok = false;
        {
          Span query(t, "client.query");
          Result<table::ScopedBatch> scoped = [&] {
            Span span(t, "table.delta_scoped_scan");
            Stopwatch scan;
            std::lock_guard<std::mutex> lock(reader_mu);
            storage::ScanScope scope;
            scope.row_begin = static_cast<size_t>(rng.UniformInt(rows_));
            scope.row_count = 1;
            auto batch = reader.NewScopedBatch(scope);
            scan_us.push_back(scan.ElapsedSeconds() * 1e6);
            return batch;
          }();
          if (scoped.ok()) {
            Span span(t, "exec.run_task_over_batch");
            ok = engines::RunTaskOverBatch(exec::QueryContext::Background(),
                                           scoped->batch, histogram_, 1,
                                           nullptr)
                     .ok();
          }
        }
        run_->ops.Count(ok);
        if (!ok) continue;
        const double ms = watch.ElapsedSeconds() * 1e3;
        latency_ms.push_back(ms);
        if (tracer != nullptr) (traced ? traced_ms : untraced_ms).push_back(ms);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      auto append = [](std::vector<double>* to, const std::vector<double>& v) {
        to->insert(to->end(), v.begin(), v.end());
      };
      append(&stats.query_ms, latency_ms);
      append(&stats.traced_query_ms, traced_ms);
      append(&stats.untraced_query_ms, untraced_ms);
      append(&stats.scan_us, scan_us);
    });
  }

  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  if (paced) stats.process_us.reserve(static_cast<size_t>(limit));
  for (int64_t i = 0; i < limit; ++i) {
    if (paced && i % kPaceEvery == 0) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) / kIngestRate));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      stats.late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
    }
    const streaming::StreamReading reading = ReadingAt(i);
    Status status;
    if (paced) {
      Span span(i % kTraceProcessEvery == 0 ? tracer : nullptr,
                "streaming.process");
      const Clock::time_point t0 = Clock::now();
      status = processor.Process(reading);
      stats.process_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    } else {
      status = processor.Process(reading);
    }
    ++stats.sent;
    if (status.ok()) ++stats.accepted;
    run_->ops.Count(status.ok());
  }
  stats.ingest_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  snapshotter.join();
  // One last snapshot samples the lag of every reading still unpublished.
  store->Snapshot(&freshness_s);
  for (double s : freshness_s) stats.freshness_ms.push_back(s * 1e3);
  stats.alerts = static_cast<int64_t>(alerts.total_recorded());
  return stats;
}

void LiveIngest::CheckSnapshot(table::DeltaStore* store) {
  std::shared_ptr<const table::DeltaSnapshot> snap = store->Snapshot();
  Result<MeterDataset> rebuilt = table::SnapshotToDataset(*snap);
  size_t mismatches = 0;
  if (!rebuilt.ok() || rebuilt->num_consumers() != rows_) {
    mismatches = 1;
  } else {
    for (size_t r = 0; r < rows_; ++r) {
      const std::vector<double>& got = rebuilt->consumer(r).consumption;
      for (size_t h = 0; h < got.size(); ++h) {
        mismatches += std::bit_cast<uint64_t>(got[h]) !=
                      std::bit_cast<uint64_t>(Expected(r, h));
      }
    }
    for (size_t h = 0; h < rebuilt->hours(); ++h) {
      mismatches += std::bit_cast<uint64_t>(rebuilt->temperature()[h]) !=
                    std::bit_cast<uint64_t>(data_->temperature()[h]);
    }
  }
  run_->checks.Expect(
      mismatches == 0, "live-ingest.snapshot-equals-source",
      StringPrintf("%zu published hours x %zu households, %zu mismatches",
                   snap->hours, rows_, mismatches));
}

void LiveIngest::CheckMarker(table::DeltaStore* store, int64_t readings_sent) {
  const size_t hour =
      base_hours_ + static_cast<size_t>((readings_sent + rows_ - 1) / rows_);
  bool visible = false;
  Stopwatch watch;
  if (hour + 1 < data_->hours()) {
    const int64_t id = data_->consumer(0).household_id;
    const bool appended =
        store->Append(id, static_cast<int64_t>(hour), kMarkerKwh,
                      data_->temperature()[hour])
            .ok() &&
        store->Append(id, static_cast<int64_t>(hour + 1),
                      data_->consumer(0).consumption[hour + 1],
                      data_->temperature()[hour + 1])
            .ok();
    table::DeltaTableReader reader(store);
    while (appended && !visible && watch.ElapsedSeconds() < 2.0) {
      store->Snapshot();
      if (!reader.Refresh().ok()) break;
      storage::ScanScope scope;
      scope.row_count = 1;
      Result<table::ScopedBatch> scoped = reader.NewScopedBatch(scope);
      visible = scoped.ok() && scoped->batch.hours() > hour &&
                scoped->batch.consumption(0)[hour] == kMarkerKwh;
    }
  }
  run_->checks.Expect(visible, "live-ingest.marker-visible",
                      StringPrintf("hour %zu after %.3f ms", hour,
                                   watch.ElapsedSeconds() * 1e3));
}

Status LiveIngest::Run(double seconds, bool primary) {
  // Stop two hours short of the end so the marker probe has room.
  const int64_t limit =
      static_cast<int64_t>(rows_) * static_cast<int64_t>(live_hours_ - 1);
  SessionStats a = RunSession(store_.get(), limit, 0.6 * seconds,
                              /*paced=*/true, run_->tracer);
  const double accepted_rps =
      a.ingest_seconds > 0 ? static_cast<double>(a.accepted) / a.ingest_seconds
                           : 0.0;
  run_->checks.Expect(
      a.accepted == a.sent && a.sent > 0, "live-ingest.accepted-equals-sent",
      StringPrintf("phase A %lld of %lld", static_cast<long long>(a.accepted),
                   static_cast<long long>(a.sent)));
  run_->checks.Expect(accepted_rps >= 0.95 * kIngestRate,
                      "live-ingest.accepted-rate",
                      StringPrintf("%.0f readings/s against a %.0f target",
                                   accepted_rps, kIngestRate));
  CheckSnapshot(store_.get());
  CheckMarker(store_.get(), a.sent);
  store_.reset();

  int64_t b_sent = 0;
  int64_t b_accepted = 0;
  double b_seconds = 0.0;
  int64_t b_sessions = 0;
  int64_t b_alerted = 0;
  Stopwatch phase_b;
  do {
    SM_ASSIGN_OR_RETURN(std::unique_ptr<table::DeltaStore> store, NewStore());
    // Phase B is not traced: its queries would add a million spans.
    SessionStats b = RunSession(store.get(), limit, 1e9, /*paced=*/false,
                                /*tracer=*/nullptr);
    b_sent += b.sent;
    b_accepted += b.accepted;
    b_seconds += b.ingest_seconds;
    ++b_sessions;
    b_alerted += b.alerts >= 1;
  } while (phase_b.ElapsedSeconds() < 0.4 * seconds);
  run_->checks.Expect(b_accepted == b_sent, "live-ingest.unpaced-accepted",
                      StringPrintf("phase B %lld of %lld",
                                   static_cast<long long>(b_accepted),
                                   static_cast<long long>(b_sent)));
  // Phase B streams the whole window, so every session passes the spike.
  run_->checks.Expect(b_alerted == b_sessions, "live-ingest.spike-alert",
                      StringPrintf("%lld of %lld phase B sessions alerted",
                                   static_cast<long long>(b_alerted),
                                   static_cast<long long>(b_sessions)));

  Metrics& m = run_->metrics;
  m.Layer("table.delta.attach_base_s", Median(attach_base_s_), "s");
  m.Layer("table.delta.snapshot_us_p50", Percentile(a.snapshot_us, 0.50), "us");
  m.Layer("table.delta.snapshot_us_p99", Percentile(a.snapshot_us, 0.99), "us");
  m.Layer("table.delta.scoped_scan_us_p50", Percentile(a.scan_us, 0.50), "us");
  m.Layer("table.delta.regrids", static_cast<double>(a.regrids), "count");
  m.Layer("streaming.process_us_p50", Percentile(a.process_us, 0.50), "us");
  m.Layer("streaming.process_us_p99", Percentile(a.process_us, 0.99), "us");
  m.Layer("streaming.gen_late_ms_p99", Percentile(a.late_ms, 0.99), "ms");
  m.Layer("streaming.alerts", static_cast<double>(a.alerts), "count");
  if (!primary) return Status::OK();
  m.EndToEnd("latency_p50_ms", Percentile(a.query_ms, 0.50), "ms");
  m.EndToEnd("latency_p99_ms", Percentile(a.query_ms, 0.99), "ms");
  m.EndToEnd("throughput_per_s",
             b_seconds > 0 ? static_cast<double>(b_accepted) / b_seconds : 0.0,
             "1/s");
  m.EndToEnd("secondary_ms", Percentile(a.freshness_ms, 0.99), "ms");
  m.Detail("ingest_query_p99_us", Percentile(a.query_ms, 0.99) * 1e3, "us");
  m.Detail("accepted_rps", accepted_rps, "1/s");
  m.Detail("readings_phase_a", static_cast<double>(a.sent), "count");
  m.Detail("queries_phase_a", static_cast<double>(a.query_ms.size()), "count");
  m.Detail("phase_b_sessions", static_cast<double>(b_sessions), "count");
  if (!a.traced_query_ms.empty() && !a.untraced_query_ms.empty()) {
    m.Layer("trace.overhead_frac",
            Percentile(a.traced_query_ms, 0.50) /
                    Percentile(a.untraced_query_ms, 0.50) -
                1.0,
            "frac");
  }
  return Status::OK();
}

}  // namespace

std::unique_ptr<Workload> MakeLiveIngest(RunContext* run) {
  return std::make_unique<LiveIngest>(run);
}

}  // namespace smartmeter::ledger
