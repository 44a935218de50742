// routed-serving: ServingRunner with kServingShards shards and one single-thread
// System C session per shard, attached through the columnar cache (the
// SMCOLV2 spool by default). Phase A (70% of the time) is an open loop at
// kOpenLoopQps: every tenth query scatters, the others are routed
// single-household histograms to uniformly drawn households, and each is
// timed from the moment it was due. Phase B is a closed loop of kThreads
// clients with the same mix; its completions per second are the
// capacity. Here the fixed cost per query dominates (scoped SMCOLV2
// re-decode, plan and pool construction, admission and queueing); kernel
// work is small.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "engines/engine_util.h"
#include "engines/systemc_engine.h"
#include "exec/serving_runner.h"
#include "ledger.h"
#include "table/columnar_batch.h"
#include "table/table_reader.h"

namespace smartmeter::ledger {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kOpenLoopQps = 200.0;
constexpr int64_t kScatterEvery = 10;

struct Query {
  bool scatter = false;
  int64_t household = 0;
  size_t shard = 0;  // The shard that owns `household`.
};

/// One open-loop query from due time to observed completion.
struct InFlight {
  Query query;
  bool traced = false;
  Clock::time_point due;
  Clock::time_point submit_begin;
  Clock::time_point submit_end;
  std::shared_ptr<exec::QueryTicket> ticket;
};

/// The query sequence of one client. Every kScatterEvery-th query
/// scatters. Routed queries visit the shards in shuffled rounds, each
/// time to a uniformly drawn household of that shard's row slice (rows
/// are in data-set order, as the CSV and its spool keep them). Shards
/// decode at different speeds, so balancing them keeps the mix of
/// per-shard costs, and with it the latency median, the same in every
/// run; collisions between queries still queue across rounds.
class QueryMix {
 public:
  QueryMix(const std::vector<int64_t>* households, uint64_t seed)
      : households_(households), rng_(seed) {
    for (size_t shard = 0; shard < kServingShards; ++shard) round_.push_back(shard);
  }

  Query Next() {
    Query q;
    if (++count_ % kScatterEvery == 0) {
      q.scatter = true;
      return q;
    }
    if (next_ == round_.size()) {
      rng_.Shuffle(&round_);
      next_ = 0;
    }
    q.shard = round_[next_++];
    const size_t total = households_->size();
    const size_t begin = total * q.shard / kServingShards;
    const size_t end = total * (q.shard + 1) / kServingShards;
    q.household = (*households_)[begin + rng_.UniformInt(end - begin)];
    return q;
  }

 private:
  const std::vector<int64_t>* households_;
  Rng rng_;
  int64_t count_ = 0;
  std::vector<size_t> round_;
  size_t next_ = kServingShards;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// True when `parts` accounts for `whole` (both summed over `n`
/// queries) within 5% plus 0.2 ms per query.
bool SumHolds(double parts, double whole, int64_t n) {
  return std::abs(parts - whole) <=
         0.05 * whole + 0.2e-3 * static_cast<double>(n);
}

class RoutedServing : public Workload {
 public:
  explicit RoutedServing(RunContext* run) : run_(run) {}

  bool needs_csv() const override { return true; }
  bool needs_partitions() const override { return false; }

  Status Setup(const Inputs& inputs) override;
  Status Run(double seconds, bool primary) override;

 private:
  Result<exec::QueryRequest> MakeRequest(const Query& q) const {
    exec::QueryRequest::Builder builder;
    builder.Task(histogram_).Tenant("ledger");
    if (!q.scatter) builder.Household(q.household);
    return builder.Build();
  }

  /// A runner over the attached sessions; `keep_results` for checks.
  Result<std::unique_ptr<exec::ServingRunner>> OpenRunner(bool keep_results);

  void RunOpenLoop(double seconds, bool primary);
  /// Records one completed open-loop query.
  void Complete(const InFlight& q, Clock::time_point done, bool primary);
  void RunClosedLoop(double seconds);
  Status CheckResults();

  RunContext* run_;
  const engines::TaskOptions histogram_ =
      engines::TaskOptions::Default(core::TaskType::kHistogram);
  std::string spool_;
  table::DataSource source_;
  std::vector<int64_t> households_;
  std::vector<std::unique_ptr<engines::SystemCEngine>> sessions_;
  // Declared after the sessions it borrows, so it is destroyed first.
  std::unique_ptr<exec::ServingRunner> runner_;

  // Phase A samples, written by the open loop's waiters.
  std::mutex complete_mu_;
  std::vector<double> routed_ms_;
  std::vector<double> traced_routed_ms_;
  std::vector<double> untraced_routed_ms_;
  std::vector<double> scatter_ms_;
  std::vector<double> late_ms_;
  std::vector<double> submit_us_;
  std::vector<double> queue_ms_;
  std::vector<double> run_ms_;
  std::vector<double> fixed_ms_;
  // Layer decomposition of the traced routed queries: totals of the
  // client latency and of its parts, and queries whose own sums held.
  int64_t decomposed_ = 0;
  double latency_total_ = 0.0;
  double parts_total_ = 0.0;
  double run_total_ = 0.0;
  double stages_total_ = 0.0;
  int64_t latency_sums_held_ = 0;
  int64_t stage_sums_held_ = 0;
  // Counted by the generator, the waiters and the closed-loop clients.
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> shed_{0};
  double capacity_qps_ = 0.0;
};

Result<std::unique_ptr<exec::ServingRunner>> RoutedServing::OpenRunner(
    bool keep_results) {
  exec::ServingOptions options;
  options.num_shards = kServingShards;
  options.keep_results = keep_results;
  auto runner = std::make_unique<exec::ServingRunner>(options);
  SM_RETURN_IF_ERROR(runner->OpenRouting(source_, spool_));
  for (const auto& session : sessions_) runner->AddSession(session.get());
  return runner;
}

Status RoutedServing::Setup(const Inputs& inputs) {
  spool_ = run_->workdir + "/serving-spool";
  SM_RETURN_IF_ERROR(FreshDirectory(spool_));
  SM_ASSIGN_OR_RETURN(source_, table::DataSource::SingleCsv(inputs.csv_path));
  for (size_t i = 0; i < inputs.dataset.num_consumers(); ++i) {
    households_.push_back(inputs.dataset.consumer(i).household_id);
  }
  for (size_t s = 0; s < kServingShards; ++s) {
    auto engine = std::make_unique<engines::SystemCEngine>(spool_);
    engine->SetThreads(1);
    Result<double> attach = engine->Attach(source_);
    run_->ops.Count(attach.ok());
    SM_RETURN_IF_ERROR(attach.status());
    sessions_.push_back(std::move(engine));
  }
  SM_ASSIGN_OR_RETURN(runner_, OpenRunner(/*keep_results=*/false));
  return Status::OK();
}

void RoutedServing::Complete(const InFlight& q, Clock::time_point done,
                             bool primary) {
  std::lock_guard<std::mutex> lock(complete_mu_);
  const exec::QueryOutcome& outcome = q.ticket->Wait();
  run_->ops.Count(outcome.status.ok());
  if (!outcome.status.ok()) {
    if (outcome.shed) ++shed_;
    return;
  }
  const double latency = Seconds(done - q.due);
  if (q.query.scatter) {
    scatter_ms_.push_back(latency * 1e3);
    return;
  }
  const double late = Seconds(q.submit_begin - q.due);
  const double submit = Seconds(q.submit_end - q.submit_begin);
  double stage_sum = 0.0;
  double scan_kernel = 0.0;
  for (const exec::StageTiming& stage : outcome.stages) {
    stage_sum += stage.seconds;
    if (stage.name == "scan" || stage.name == "kernel") {
      scan_kernel += stage.seconds;
    }
  }
  routed_ms_.push_back(latency * 1e3);
  late_ms_.push_back(late * 1e3);
  submit_us_.push_back(submit * 1e6);
  queue_ms_.push_back(outcome.queue_seconds * 1e3);
  run_ms_.push_back(outcome.run_seconds * 1e3);
  fixed_ms_.push_back((outcome.run_seconds - scan_kernel) * 1e3);
  if (run_->tracer != nullptr && primary) {
    (q.traced ? traced_routed_ms_ : untraced_routed_ms_)
        .push_back(latency * 1e3);
  }
  if (!q.traced) return;

  // The layer decomposition of this query, checked and written as spans:
  // lateness + submit + queue + run must add up to the client latency,
  // and the plan's stage rows to the run time.
  ++decomposed_;
  const double parts = late + submit + outcome.queue_seconds +
                       outcome.run_seconds;
  latency_total_ += latency;
  parts_total_ += parts;
  run_total_ += outcome.run_seconds;
  stages_total_ += stage_sum;
  latency_sums_held_ += SumHolds(parts, latency, 1);
  stage_sums_held_ += SumHolds(stage_sum, outcome.run_seconds, 1);

  Tracer* t = run_->tracer;
  const uint64_t qid = outcome.query_id;
  const uint64_t root = t->NewId();
  const int64_t due_ns = t->ToNanos(q.due);
  const int64_t submit_begin_ns = t->ToNanos(q.submit_begin);
  const int64_t submit_end_ns = t->ToNanos(q.submit_end);
  const int64_t queue_end_ns =
      submit_end_ns + static_cast<int64_t>(outcome.queue_seconds * 1e9);
  const int64_t run_end_ns =
      queue_end_ns + static_cast<int64_t>(outcome.run_seconds * 1e9);
  t->Record("client.late", due_ns, submit_begin_ns, root, qid);
  t->Record("serving.submit", submit_begin_ns, submit_end_ns, root, qid);
  t->Record("serving.queue", submit_end_ns, queue_end_ns, root, qid);
  const uint64_t run = t->NewId();
  int64_t stage_begin = queue_end_ns;
  for (const exec::StageTiming& stage : outcome.stages) {
    const int64_t stage_end =
        stage_begin + static_cast<int64_t>(stage.seconds * 1e9);
    t->Record("exec." + stage.name, stage_begin, stage_end, run, qid);
    stage_begin = stage_end;
  }
  t->RecordWithId(run, "serving.run", queue_end_ns, run_end_ns, root, qid);
  t->RecordWithId(root, "client.query", due_ns, t->ToNanos(done), 0, qid);
}

void RoutedServing::RunOpenLoop(double seconds, bool primary) {
  // One waiter per lane blocks on the lane's tickets in submission order,
  // so every completion is seen as it happens, without polling. A shard's
  // single session runs its queue first in, first out, so the routed
  // queries of one shard finish in order; scatter queries finish in order
  // because their children queue behind each other on every shard.
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> queue;
    bool closed = false;
  };
  std::vector<Lane> lanes(kServingShards + 1);
  std::vector<std::thread> waiters;
  for (Lane& lane : lanes) {
    waiters.emplace_back([this, &lane, primary] {
      for (;;) {
        InFlight q;
        {
          std::unique_lock<std::mutex> lock(lane.mu);
          lane.cv.wait(lock,
                       [&] { return !lane.queue.empty() || lane.closed; });
          if (lane.queue.empty()) return;
          q = std::move(lane.queue.front());
          lane.queue.pop_front();
        }
        q.ticket->Wait();
        Complete(q, Clock::now(), primary);
      }
    });
  }

  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenLoopQps));
  const int64_t total =
      std::max<int64_t>(1, static_cast<int64_t>(seconds * kOpenLoopQps));
  QueryMix mix(&households_, run_->seed ^ 0x5e5e5e5eULL);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (int64_t i = 0; i < total; ++i) {
    InFlight q;
    q.query = mix.Next();
    // A traced primary run traces every other query, so the untraced
    // half measures the tracing overhead.
    q.traced = run_->tracer != nullptr && (!primary || i % 2 == 1);
    q.due = start + i * interval;
    std::this_thread::sleep_until(q.due);
    Result<exec::QueryRequest> request = MakeRequest(q.query);
    q.submit_begin = Clock::now();
    Result<std::shared_ptr<exec::QueryTicket>> ticket =
        request.ok() ? runner_->Submit(*request)
                     : Result<std::shared_ptr<exec::QueryTicket>>(
                           request.status());
    q.submit_end = Clock::now();
    ++submitted_;
    if (!ticket.ok()) {
      run_->ops.Count(false);
      ++shed_;
      continue;
    }
    q.ticket = std::move(*ticket);
    Lane& lane = lanes[q.query.scatter ? kServingShards : q.query.shard];
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.queue.push_back(std::move(q));
    }
    lane.cv.notify_one();
  }
  for (Lane& lane : lanes) {
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.closed = true;
    }
    lane.cv.notify_one();
  }
  for (std::thread& t : waiters) t.join();
}

void RoutedServing::RunClosedLoop(double seconds) {
  std::atomic<int64_t> completed{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      QueryMix mix(&households_, run_->seed * 31 + static_cast<uint64_t>(c));
      while (Clock::now() < end) {
        Result<exec::QueryRequest> request = MakeRequest(mix.Next());
        ++submitted_;
        Result<std::shared_ptr<exec::QueryTicket>> ticket =
            request.ok() ? runner_->Submit(*request)
                         : Result<std::shared_ptr<exec::QueryTicket>>(
                               request.status());
        if (!ticket.ok()) {
          run_->ops.Count(false);
          ++shed_;
          continue;
        }
        const exec::QueryOutcome& outcome = (*ticket)->Wait();
        run_->ops.Count(outcome.status.ok());
        if (outcome.status.ok()) {
          completed.fetch_add(1);
        } else if (outcome.shed) {
          ++shed_;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  capacity_qps_ = static_cast<double>(completed.load()) /
                  Seconds(Clock::now() - start);
}

Status RoutedServing::CheckResults() {
  // Reference: the whole table parsed back from the CSV text path and
  // run through the kernel directly, with no serving, spool or shard.
  SM_ASSIGN_OR_RETURN(MeterDataset parsed,
                      table::ReadDatasetFromSource(source_));
  SM_ASSIGN_OR_RETURN(table::ColumnarBatch batch,
                      table::ColumnarBatch::FromDataset(parsed));
  engines::TaskResultSet reference;
  SM_RETURN_IF_ERROR(engines::RunTaskOverBatch(exec::QueryContext::Background(),
                                               batch, histogram_, kThreads,
                                               &reference)
                         .status());
  engines::SortResultsByHousehold(&reference);
  const auto& rows = reference.Get<core::HistogramResult>();

  SM_ASSIGN_OR_RETURN(std::unique_ptr<exec::ServingRunner> runner,
                      OpenRunner(/*keep_results=*/true));
  Rng rng(run_->seed ^ 0xc0ffeeULL);
  int routed_ok = 0;
  int scatter_ok = 0;
  for (int i = 0; i < 55; ++i) {
    Query q;
    q.scatter = i >= 50;
    q.household = households_[rng.UniformInt(households_.size())];
    SM_ASSIGN_OR_RETURN(exec::QueryRequest request, MakeRequest(q));
    SM_ASSIGN_OR_RETURN(std::shared_ptr<exec::QueryTicket> ticket,
                        runner->Submit(request));
    const exec::QueryOutcome& outcome = ticket->Wait();
    if (!outcome.status.ok()) continue;
    if (q.scatter) {
      scatter_ok += Fingerprint(outcome.results) == Fingerprint(reference);
      continue;
    }
    const auto it = std::lower_bound(
        rows.begin(), rows.end(), q.household,
        [](const core::HistogramResult& r, int64_t id) {
          return r.household_id < id;
        });
    if (it == rows.end() || it->household_id != q.household) continue;
    engines::TaskResultSet want;
    want.Mutable<core::HistogramResult>().push_back(*it);
    routed_ok += Fingerprint(outcome.results) == Fingerprint(want);
  }
  runner->Shutdown();
  run_->checks.Expect(routed_ok == 50 && scatter_ok == 5,
                      "routed-serving.results-match-reference",
                      StringPrintf("%d/50 routed, %d/5 scatter bit-identical",
                                   routed_ok, scatter_ok));
  return Status::OK();
}

Status RoutedServing::Run(double seconds, bool primary) {
  RunOpenLoop(0.7 * seconds, primary);
  RunClosedLoop(0.3 * seconds);
  runner_->Shutdown();
  SM_RETURN_IF_ERROR(CheckResults());
  if (run_->tracer != nullptr) {
    // Checked over the totals: single queries miss when a thread of the
    // client or of the query's pool waits for a core, time no layer
    // owns. The detail gives how many queries held on their own.
    run_->checks.Expect(
        decomposed_ > 0 &&
            SumHolds(parts_total_, latency_total_, decomposed_),
        "routed-serving.latency-decomposition",
        StringPrintf("late+submit+queue+run %.1f ms vs latency %.1f ms over "
                     "%lld traced routed queries (%lld held alone)",
                     parts_total_ * 1e3, latency_total_ * 1e3,
                     static_cast<long long>(decomposed_),
                     static_cast<long long>(latency_sums_held_)));
    run_->checks.Expect(
        decomposed_ > 0 && SumHolds(stages_total_, run_total_, decomposed_),
        "routed-serving.stage-decomposition",
        StringPrintf("stage rows %.1f ms vs run %.1f ms over %lld traced "
                     "routed queries (%lld held alone)",
                     stages_total_ * 1e3, run_total_ * 1e3,
                     static_cast<long long>(decomposed_),
                     static_cast<long long>(stage_sums_held_)));
  }

  Metrics& m = run_->metrics;
  m.Layer("serving.submit_us_p50", Percentile(submit_us_, 0.50), "us");
  m.Layer("serving.submit_us_p99", Percentile(submit_us_, 0.99), "us");
  m.Layer("serving.queue_ms_p50", Percentile(queue_ms_, 0.50), "ms");
  m.Layer("serving.queue_ms_p99", Percentile(queue_ms_, 0.99), "ms");
  m.Layer("serving.run_ms_p50", Percentile(run_ms_, 0.50), "ms");
  m.Layer("serving.run_ms_p99", Percentile(run_ms_, 0.99), "ms");
  m.Layer("serving.shed_frac",
          submitted_ > 0 ? static_cast<double>(shed_.load()) /
                               static_cast<double>(submitted_.load())
                         : 0.0,
          "frac");
  m.Layer("serving.gen_late_ms_p99", Percentile(late_ms_, 0.99), "ms");
  m.Layer("exec.routed_fixed_ms", Percentile(fixed_ms_, 0.50), "ms");
  if (!primary) return Status::OK();
  m.EndToEnd("latency_p50_ms", Percentile(routed_ms_, 0.50), "ms");
  m.EndToEnd("latency_p99_ms", Percentile(routed_ms_, 0.99), "ms");
  m.EndToEnd("throughput_per_s", capacity_qps_, "1/s");
  m.EndToEnd("secondary_ms", Percentile(scatter_ms_, 0.50), "ms");
  m.Detail("routed_n", static_cast<double>(routed_ms_.size()), "count");
  m.Detail("scatter_n", static_cast<double>(scatter_ms_.size()), "count");
  m.Detail("scatter_p99_ms", Percentile(scatter_ms_, 0.99), "ms");
  if (!traced_routed_ms_.empty() && !untraced_routed_ms_.empty()) {
    m.Layer("trace.overhead_frac",
            Percentile(traced_routed_ms_, 0.50) /
                    Percentile(untraced_routed_ms_, 0.50) -
                1.0,
            "frac");
  }
  return Status::OK();
}

}  // namespace

std::unique_ptr<Workload> MakeRoutedServing(RunContext* run) {
  return std::make_unique<RoutedServing>(run);
}

}  // namespace smartmeter::ledger
