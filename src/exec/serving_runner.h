#ifndef SMARTMETER_EXEC_SERVING_RUNNER_H_
#define SMARTMETER_EXEC_SERVING_RUNNER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engines/engine.h"
#include "exec/plan_executor.h"
#include "exec/query_context.h"
#include "streaming/alert_log.h"
#include "table/data_source.h"

namespace smartmeter::exec {

/// Serving-layer tuning knobs.
///
/// Intra-query parallelism is deliberately NOT a serving knob: each
/// session's `AnalyticsEngine::SetThreads()` (flowing into
/// `ExecutionPolicy.threads`) is the single source of truth, configured
/// when the session is attached and never overridden per query. See
/// DESIGN.md, "Serving layer".
struct ServingOptions {
  /// Households are partitioned across this many shards, each with its
  /// own admission queue and dispatcher set. 1 = the unsharded runner.
  size_t num_shards = 1;
  /// Bounded admission queue *per shard*: Submit() sheds with
  /// ResourceExhausted once this many queries are waiting on the target
  /// shard (in-flight queries do not count).
  size_t queue_capacity = 64;
  /// Max queued queries one tenant may hold per shard; 0 disables the
  /// per-tenant quota (only queue_capacity guards admission).
  /// Submissions beyond it shed with an "over queue quota"
  /// ResourceExhausted.
  size_t tenant_queue_quota = 0;
  /// Deficit round-robin quantum: consecutive queries a tenant may
  /// dispatch per scheduling visit (multiplied by its weight).
  int fair_share_quantum = 1;
  /// Per-tenant DRR weights; tenants not listed get weight 1. A weight-w
  /// tenant drains w queries for every 1 of a weight-1 tenant under
  /// contention.
  std::map<std::string, int> tenant_weights;
  /// Retain task results in the QueryOutcome (off for pure load tests).
  bool keep_results = false;
};

/// One query as submitted by a client (serving API v3). Immutable once
/// built; construct through QueryRequest::Builder, which validates the
/// combination at submit time instead of letting a malformed request
/// travel to a dispatcher.
class QueryRequest {
 public:
  /// Household sentinel: the query spans all households (scatter-gather
  /// across every shard when the runner is sharded).
  static constexpr int64_t kAllHouseholds = -1;

  class Builder;

  const engines::TaskOptions& options() const { return options_; }
  const std::string& tenant() const { return tenant_; }
  QueryPriority priority() const { return priority_; }
  std::chrono::nanoseconds deadline() const { return deadline_; }
  const std::string& label() const { return label_; }
  /// kAllHouseholds, or the single household this query is routed to.
  int64_t household() const { return household_; }

 private:
  QueryRequest() = default;

  engines::TaskOptions options_;
  std::string tenant_;
  QueryPriority priority_ = QueryPriority::kNormal;
  std::chrono::nanoseconds deadline_{0};
  std::string label_;
  int64_t household_ = kAllHouseholds;
};

/// Fluent validated builder:
///
///   SM_ASSIGN_OR_RETURN(QueryRequest request,
///                       QueryRequest::Builder()
///                           .Tenant("analytics-ui")
///                           .Task(options)
///                           .Deadline(std::chrono::milliseconds(50))
///                           .Household(1042)
///                           .Build());
///
/// Build() rejects nonsensical combinations (empty tenant, negative
/// deadline, negative household id) so they surface where the request
/// is written, not in a dispatcher thread.
class QueryRequest::Builder {
 public:
  Builder& Task(engines::TaskOptions options) {
    request_.options_ = std::move(options);
    return *this;
  }
  Builder& Tenant(std::string tenant) {
    request_.tenant_ = std::move(tenant);
    return *this;
  }
  Builder& Priority(QueryPriority priority) {
    request_.priority_ = priority;
    return *this;
  }
  /// Time budget measured from admission; zero means no deadline.
  Builder& Deadline(std::chrono::nanoseconds deadline) {
    request_.deadline_ = deadline;
    return *this;
  }
  /// Observability label ("client-3/q17").
  Builder& Label(std::string label) {
    request_.label_ = std::move(label);
    return *this;
  }
  /// Routes the query to the shard owning `household`. The query runs
  /// over that shard's whole slice (the shard is the pruning unit; no
  /// finer index exists yet) and the outcome's results are filtered to
  /// the household.
  Builder& Household(int64_t household) {
    request_.household_ = household;
    return *this;
  }

  Result<QueryRequest> Build() const;

 private:
  QueryRequest request_;
};

/// What happened to one admitted query.
struct QueryOutcome {
  uint64_t query_id = 0;
  std::string label;
  std::string tenant;
  /// OK, or the failure/shed status. Shed statuses carry the reason in
  /// the message: queue-full, over-quota, evicted, deadline-in-queue,
  /// cancelled-while-queued, or the in-flight deadline/cancel.
  Status status;
  /// True when the serving layer gave up on the query rather than the
  /// query failing on its own merits: shed at admission, evicted,
  /// deadline expired, or cancelled — queued or mid-flight.
  bool shed = false;
  /// Admission to dispatch (max across children for scatter queries).
  double queue_seconds = 0.0;
  /// Dispatch to completion.
  double run_seconds = 0.0;
  /// Per-stage timings of the executed plan (empty for shed queries).
  /// Scatter queries report a synthetic "scatter" row (seconds = slowest
  /// shard, partitions = shards) followed by the gather plan's
  /// materialize/merge rows.
  std::vector<exec::StageTiming> stages;
  engines::TaskResultSet results;
};

/// Completion handle returned by ServingRunner::Submit. Clients block on
/// Wait() for the outcome and may RequestCancel() at any time; the
/// running kernels observe the shared token cooperatively.
class QueryTicket {
 public:
  /// Blocks until the query finishes (or is shed) and returns the
  /// outcome. Repeated calls return the same outcome.
  const QueryOutcome& Wait();

  /// True once the outcome is available (non-blocking).
  bool done() const;

  void RequestCancel() { context_.RequestCancel(); }
  const QueryContext& context() const { return context_; }

 private:
  friend class ServingRunner;
  void Finish(QueryOutcome outcome);

  QueryContext context_;
  engines::TaskOptions options_;
  std::string tenant_;
  size_t shard_ = 0;
  /// Routed queries filter results to this household; kAllHouseholds
  /// keeps everything.
  int64_t household_ = QueryRequest::kAllHouseholds;
  /// Scatter children: invisible to global/tenant counters (the parent
  /// is counted once), resolved through on_resolve_.
  bool internal_ = false;
  std::function<void(const QueryOutcome&)> on_resolve_;
  std::chrono::steady_clock::time_point submitted_at_{};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  QueryOutcome outcome_;
};

/// Per-tenant slice of the serving counters.
struct TenantServingStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t completed_ok = 0;
  /// All shed reasons: queue-full, quota, evicted, deadline, cancelled.
  int64_t shed = 0;
  int64_t failed = 0;
};

/// Point-in-time serving counters (monotone over a runner's lifetime).
/// Scatter queries count once (the parent), not once per shard.
struct ServingStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t completed_ok = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_quota = 0;
  int64_t shed_evicted = 0;
  int64_t shed_deadline = 0;
  int64_t shed_cancelled = 0;
  int64_t failed = 0;
  /// Max queued across any one shard.
  int64_t peak_queue_depth = 0;
  std::map<std::string, TenantServingStats> tenants;
};

/// Serves concurrent queries for many tenants against a sharded pool of
/// attached engine sessions.
///
/// Households are partitioned into `num_shards` contiguous row ranges of
/// the shared columnar image (OpenRouting builds the id → row map once).
/// Each shard owns its own bounded admission queue and its own sessions
/// (AddSession assigns sessions round-robin across shards). Ownership is
/// logical — every session attaches the full source and the shard scopes
/// its scans to its row slice via engines::RowScope, so each shard only
/// ever scans 1/N of the table.
///
/// Routing: a Household() query runs on the owning shard over that
/// shard's slice; an all-households query scatters one scoped child per
/// shard and gathers the partials through PlanExecutor::RunGather (the
/// plan IR's Materialize + Merge stages), bit-identical to an unsharded
/// run.
///
/// Scheduling within a shard is priority-major (high first), then
/// deficit round-robin across tenants inside each priority class, so a
/// tenant flooding the queue cannot starve the others: each visit grants
/// quantum x weight dispatches before the next tenant runs. Admission is
/// per-tenant too — a tenant over its queue quota sheds without touching
/// other tenants, and when a shard's queue is full an over-fair-share
/// tenant's newest low-priority ticket is evicted in favor of an
/// under-share submitter (the submitter sheds only if its tenant already
/// holds the most queued entries).
///
/// Thread-safe. Engines are borrowed, not owned, and must stay attached
/// and alive until Shutdown() returns; each engine only ever runs one
/// query at a time (its session's dispatcher), so engines need not be
/// internally thread-safe across queries.
class ServingRunner {
 public:
  explicit ServingRunner(ServingOptions options);
  ~ServingRunner();

  ServingRunner(const ServingRunner&) = delete;
  ServingRunner& operator=(const ServingRunner&) = delete;

  /// Builds the household → row routing table by reading `source`'s
  /// household ids through a columnar cache rooted at `cache_dir`
  /// (a cache hit when the sessions already attached the same source
  /// through the same directory). Required before Household() routing
  /// and before any Submit when num_shards > 1; a single-shard runner
  /// without routed queries can skip it.
  Status OpenRouting(const table::DataSource& source,
                     const std::string& cache_dir);

  /// Registers an attached engine and starts its dispatcher thread. The
  /// session joins shard (sessions added so far) % num_shards, so adding
  /// a multiple of num_shards sessions balances the shards.
  void AddSession(engines::AnalyticsEngine* engine);

  /// Validates `source` through the shared data-plane screening, attaches
  /// the engine to it, then registers the session. One call replaces the
  /// validate/attach/register dance every serving harness repeated — and
  /// guarantees a session never enters the pool pointing at a malformed
  /// source. Returns the engine's attach seconds.
  Result<double> AttachSession(engines::AnalyticsEngine* engine,
                               const table::DataSource& source);

  size_t num_sessions() const;
  size_t num_shards() const { return options_.num_shards; }

  /// Admits one query, or sheds it with ResourceExhausted (queue full /
  /// over tenant quota) or InvalidArgument (unroutable: no routing
  /// table, unknown household, shard without sessions). On success the
  /// ticket resolves once the owning shard has run (or shed) the query —
  /// or, for all-households queries on a sharded runner, once every
  /// shard's child resolved and the partials were gathered.
  Result<std::shared_ptr<QueryTicket>> Submit(const QueryRequest& request);

  /// Wires the live alert channel: alerts recorded into `log` (by a
  /// StreamProcessor's alert sink on the ingest path) become queryable
  /// through QueryAlerts alongside the analytical queries — the lambda
  /// serving surface. Borrowed, not owned; must outlive the runner or a
  /// later AttachAlertLog(nullptr).
  void AttachAlertLog(const streaming::AlertLog* log);

  /// Reads back alerts matching `query` from the attached log, oldest
  /// first. NotFound when no alert log is attached.
  Result<std::vector<streaming::Alert>> QueryAlerts(
      const streaming::AlertQuery& query) const;

  /// Blocks until every admitted query has resolved.
  void Drain();

  /// Drains, then stops and joins the dispatcher threads. Idempotent;
  /// the destructor calls it. Submit() after Shutdown() sheds.
  void Shutdown();

  ServingStats stats() const;

 private:
  static constexpr size_t kPriorities = 3;

  /// One tenant's FIFO within one (shard, priority) class plus its DRR
  /// scheduling state.
  struct TenantQueue {
    std::deque<std::shared_ptr<QueryTicket>> tickets;
    /// Dispatches left in the current scheduling visit.
    int credits = 0;
    bool in_ring = false;
  };

  struct PriorityClass {
    std::map<std::string, TenantQueue> tenants;
    /// Tenants with queued work, in DRR visiting order.
    std::deque<std::string> ring;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::array<PriorityClass, kPriorities> classes;
    size_t queued = 0;
    /// Queued entries per tenant across classes (children included), for
    /// quota and eviction decisions.
    std::map<std::string, size_t> tenant_queued;
    size_t sessions = 0;
  };

  /// Tracks one scatter query: the parent resolves when the last child
  /// does and the partials are gathered.
  struct ScatterState;

  /// Immutable once built: household ids sorted with their batch rows,
  /// plus the total row count the shard slices divide.
  struct RoutingTable {
    std::vector<int64_t> ids;
    std::vector<size_t> rows;
    size_t total_rows = 0;
  };

  /// The half-open row slice shard `shard` owns out of `total` rows.
  std::pair<size_t, size_t> ShardSlice(size_t shard, size_t total) const;

  int TenantWeight(const std::string& tenant) const;

  std::shared_ptr<QueryTicket> MakeTicket(const QueryRequest& request);
  Status Enqueue(size_t shard_index,
                 const std::shared_ptr<QueryTicket>& ticket);
  Result<std::shared_ptr<QueryTicket>> SubmitScatter(
      const QueryRequest& request,
      const std::shared_ptr<const RoutingTable>& routing);
  void FinishScatter(const std::shared_ptr<ScatterState>& state);

  /// Pops the next query off `shard`'s queues: priority-major, deficit
  /// round-robin across tenants within a class. Blocks until one is
  /// available or shutdown. Null on shutdown with an empty queue.
  std::shared_ptr<QueryTicket> NextQuery(Shard* shard);

  void DispatchLoop(engines::AnalyticsEngine* engine, size_t shard_index);
  void RunQuery(engines::AnalyticsEngine* engine,
                const std::shared_ptr<QueryTicket>& ticket);
  void ResolveTicket(const std::shared_ptr<QueryTicket>& ticket,
                     QueryOutcome outcome);
  void RecordSubmitShed(const std::string& tenant, int64_t* reason_counter);

  const ServingOptions options_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Atomic because every shard's dispatcher reads it in its own
  /// cv-wait predicate under that shard's mutex, not mu_.
  std::atomic<bool> shutting_down_{false};
  std::vector<std::thread> dispatchers_;
  size_t sessions_ = 0;
  std::shared_ptr<const RoutingTable> routing_;
  /// Atomic: queried from client threads without taking mu_.
  std::atomic<const streaming::AlertLog*> alert_log_{nullptr};

  /// Admitted but not yet resolved (queued + running); Drain blocks on 0.
  std::mutex drain_mu_;
  std::condition_variable drained_cv_;
  int64_t unresolved_ = 0;

  std::atomic<uint64_t> next_query_id_{1};

  mutable std::mutex stats_mu_;
  ServingStats stats_;
};

}  // namespace smartmeter::exec

#endif  // SMARTMETER_EXEC_SERVING_RUNNER_H_
