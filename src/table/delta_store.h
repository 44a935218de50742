#ifndef SMARTMETER_TABLE_DELTA_STORE_H_
#define SMARTMETER_TABLE_DELTA_STORE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/scan_scope.h"
#include "table/columnar_batch.h"
#include "table/table_reader.h"
#include "timeseries/dataset.h"

namespace smartmeter::table {

/// An immutable, shareable view of the delta store at one publication
/// point: the fast (mutable) layer of the lambda architecture frozen
/// for query time. Readings appended after the snapshot was taken are
/// invisible to it; the backing buffers are kept alive by shared
/// ownership, so a snapshot stays valid after the store grows or is
/// destroyed.
///
/// Layout: one row per household (base rows first, in base order, then
/// delta-only households in first-append order). Each row is `stride`
/// doubles of which the first `hours` are published; hours
/// [0, base_hours) hold the immutable base copy and [base_hours, hours)
/// the delta region. Published slots no writer ever filled read 0.0
/// (the "meter offline" gap rule).
struct DeltaSnapshot {
  std::shared_ptr<const std::vector<double>> consumption;
  std::shared_ptr<const std::vector<double>> temperature;
  std::vector<int64_t> ids;
  size_t rows = 0;
  size_t base_hours = 0;  // first delta hour
  size_t hours = 0;       // published extent (queryable hours)
  size_t stride = 0;      // allocation stride per row (>= hours)
  uint64_t version = 0;   // store append count when taken

  /// Household `row`'s published series: base + delta as one span.
  std::span<const double> Series(size_t row) const {
    return {consumption->data() + row * stride, hours};
  }
  std::span<const double> Temperatures() const {
    return {temperature->data(), hours};
  }
};

/// The mutable fast layer: append-only per-household delta columns over
/// an immutable base table. The base is copied in once (AttachBase);
/// live readings then land in O(1) at their absolute hour slot, and
/// Snapshot() publishes a grown hour extent without copying the data —
/// queries borrow the same buffers the writer appends into, kept
/// disjoint by the published/unpublished boundary.
///
/// Write rules (each violation is a distinct, clean status):
///  * hours below the published extent are rejected (kOutOfRange,
///    "late") — the base and every published delta slot are immutable,
///    so closed query results are never perturbed;
///  * a slot can be written once (kAlreadyExists on duplicates);
///  * unknown households open a new delta-only row.
///
/// Publication trails the newest reading by `publish_lag_hours`: with a
/// lag of L, hour h becomes queryable once some reading reaches hour
/// h + L. The lag is the store-level mirror of the stream processor's
/// bounded-lateness allowance — out-of-order readings inside the
/// allowance land in still-unpublished slots.
///
/// Thread-safe: Append() and Snapshot() may race freely; snapshot
/// readers touch only published slots and never take the lock.
class DeltaStore {
 public:
  struct Options {
    /// Hours the published extent trails the newest appended hour.
    size_t publish_lag_hours = 0;
    /// Initial delta-region capacity (hours beyond the base) allocated
    /// at AttachBase / first append. Growth past it copies the buffer.
    size_t hour_capacity_headroom = 256;
  };

  DeltaStore() : DeltaStore(Options()) {}
  explicit DeltaStore(Options options);

  DeltaStore(const DeltaStore&) = delete;
  DeltaStore& operator=(const DeltaStore&) = delete;

  /// Copies the immutable base table into the mutable layer (one-time
  /// cost, same order as a columnar decode-all). Must precede every
  /// Append; the batch's memory is not retained. Pass a batch from any
  /// TableReader — SMCOLV2, CSV, or an in-memory dataset.
  Status AttachBase(const ColumnarBatch& base);

  /// Lands one live reading. The first writer of an hour also fixes the
  /// shared temperature column for that hour (later writers must agree
  /// with the city feed; their temperature is ignored).
  Status Append(int64_t household_id, int64_t hour, double consumption,
                double temperature);

  /// Advances the published extent to (max appended hour + 1 − lag) and
  /// returns an immutable view. When `freshness_seconds` is non-null,
  /// the append-to-queryable lag of every reading first published by
  /// this call is appended to it; the same lags feed the
  /// `ingest.freshness_seconds` histogram.
  std::shared_ptr<const DeltaSnapshot> Snapshot(
      std::vector<double>* freshness_seconds = nullptr);

  size_t rows() const;
  size_t base_hours() const;
  size_t published_hours() const;
  /// Newest appended hour, −1 when the store is empty.
  int64_t max_hour() const;
  /// Total accepted appends (the snapshot version counter).
  uint64_t version() const;

 private:
  size_t PublishableHoursLocked() const;
  void EnsureCapacityLocked(size_t rows, size_t hours);

  struct PendingFreshness {
    std::chrono::steady_clock::time_point appended_at;
    int64_t hour;
  };

  Options options_;

  mutable std::mutex mu_;
  std::vector<int64_t> ids_;
  std::unordered_map<int64_t, size_t> row_index_;
  // Row-major rows × capacity_hours_; copied (never resized in place)
  // while snapshots share it, so published views stay stable.
  std::shared_ptr<std::vector<double>> consumption_;
  std::shared_ptr<std::vector<double>> temperature_;
  std::vector<uint8_t> written_;       // per slot, rows × capacity
  std::vector<uint8_t> temp_written_;  // per hour
  size_t capacity_hours_ = 0;
  size_t base_hours_ = 0;
  size_t published_hours_ = 0;
  int64_t max_hour_ = -1;
  uint64_t version_ = 0;
  bool base_attached_ = false;
  std::vector<PendingFreshness> pending_freshness_;
};

/// TableReader over a DeltaStore: Open() (or Refresh()) captures a
/// fresh snapshot, after which batches expose base + delta merged as
/// ordinary columnar spans. Unlike the file readers it supports hour
/// windows natively — a scoped batch is a zero-copy sub-rectangle of
/// the snapshot, so scans touching only delta hours never reread base
/// bytes (ScanStats stays zero: nothing is decoded). Scoped batches
/// keep their snapshot alive through `ScopedBatch::owner`; plain
/// NewBatch() views are valid until the next Refresh().
class DeltaTableReader : public TableReader {
 public:
  /// Borrows `store`, which must outlive the reader.
  explicit DeltaTableReader(DeltaStore* store);

  Status Open() override;
  /// Re-snapshots the store; newer published readings become visible.
  Status Refresh() { return Open(); }

  Result<ColumnarBatch> NewBatch() const override;
  Result<ScopedBatch> NewScopedBatch(
      const storage::ScanScope& scope) const override;
  std::string_view format_name() const override { return "delta"; }

  /// The snapshot batches currently view (null before Open()).
  std::shared_ptr<const DeltaSnapshot> snapshot() const { return snapshot_; }

 private:
  DeltaStore* store_;
  std::shared_ptr<const DeltaSnapshot> snapshot_;
};

/// Materializes a snapshot into an owning dataset — the "rebuild the
/// monolithic file" half of the lambda merge, used to pin batch-layer
/// parity and to reseal deltas into SMCOLV2 files.
Result<MeterDataset> SnapshotToDataset(const DeltaSnapshot& snapshot);

}  // namespace smartmeter::table

#endif  // SMARTMETER_TABLE_DELTA_STORE_H_
