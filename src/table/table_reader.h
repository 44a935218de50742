#ifndef SMARTMETER_TABLE_TABLE_READER_H_
#define SMARTMETER_TABLE_TABLE_READER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/block_store.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/column_store.h"
#include "storage/row_store.h"
#include "storage/scan_scope.h"
#include "table/columnar_batch.h"
#include "table/data_source.h"
#include "timeseries/dataset.h"

namespace smartmeter::table {

/// A batch restricted to a ScanScope, plus whatever keeps its memory
/// alive and what the restriction cost. `owner` is null when the batch
/// borrows the reader's own storage (the common slice-of-resident case)
/// and holds freshly decoded buffers when the reader pruned blocks into
/// a private decode (the column-file path).
struct ScopedBatch {
  ColumnarBatch batch;
  std::shared_ptr<const void> owner;
  storage::ScanStats stats;
};

/// One interface every storage backend implements so the engines and the
/// kernels see a single shape of data: Open() does the format-specific
/// work (parse, scan, or decode) once, then NewBatch() hands out zero-copy
/// ColumnarBatch views into the reader's storage for as long as the
/// reader lives.
///
/// Readers are not thread-safe during Open(); batches taken after Open()
/// are immutable views and may be scanned from many threads.
class TableReader {
 public:
  virtual ~TableReader() = default;

  TableReader(const TableReader&) = delete;
  TableReader& operator=(const TableReader&) = delete;

  /// Loads / maps the underlying storage. Must be called (and succeed)
  /// before NewBatch(). Calling Open() twice re-reads the source.
  virtual Status Open() = 0;

  /// A zero-copy view over everything Open() loaded. Valid until the
  /// reader is destroyed or re-opened.
  virtual Result<ColumnarBatch> NewBatch() const = 0;

  /// A batch restricted to `scope`. The base implementation slices the
  /// full batch by rows (hour windows are rejected — only an indexed
  /// format can restrict them); block-indexed readers override it to
  /// decode only the matching blocks and report prune counts.
  virtual Result<ScopedBatch> NewScopedBatch(
      const storage::ScanScope& scope) const;

  /// Short stable label for reports ("csv", "column-file", ...).
  virtual std::string_view format_name() const = 0;

 protected:
  TableReader() = default;
};

/// Text path: parses any DataSource layout into an in-memory dataset.
/// This is the cold path every cache miss pays once.
class CsvTableReader : public TableReader {
 public:
  explicit CsvTableReader(DataSource source);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "csv"; }

  const MeterDataset& dataset() const { return dataset_; }

 private:
  DataSource source_;
  MeterDataset dataset_;
  bool open_ = false;
};

/// Binary column-file path (System C's native store and the columnar
/// cache's file format). Open() mmaps the SMCOLV2 file and decodes its
/// blocks into resident buffers once, after which batches are zero-copy
/// spans over those buffers. Scoped batches decode only the blocks the
/// scope touches (block-index pruning) and surface the prune counts
/// through `table.scan.blocks_{pruned,decoded}`.
class ColumnFileReader : public TableReader {
 public:
  explicit ColumnFileReader(std::string path);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  Result<ScopedBatch> NewScopedBatch(
      const storage::ScanScope& scope) const override;
  std::string_view format_name() const override { return "column-file"; }

  /// What Open() decoded: the whole-file block and byte counts.
  const storage::ScanStats& open_stats() const { return open_stats_; }

  /// The compressed mapping behind the resident buffers.
  const storage::CompressedColumnFile& compressed() const {
    return compressed_;
  }

 private:
  std::string path_;
  bool open_ = false;
  storage::CompressedColumnFile compressed_;
  storage::ScanStats open_stats_;
  // Resident decode of the file, owned by the reader; batches borrow it.
  std::vector<int64_t> decoded_ids_;
  std::vector<double> decoded_consumption_;
  std::vector<double> decoded_temperature_;
};

/// Heap-file + B+-tree path (MADLib's row table): Open() runs the
/// whole-table GROUP BY scan through the buffer pool.
class RowStoreReader : public TableReader {
 public:
  /// Borrows `store`, which must be load-finished and outlive the reader.
  explicit RowStoreReader(const storage::RowStore* store);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "row-store"; }

 private:
  const storage::RowStore* store_;
  MeterDataset dataset_;
  bool open_ = false;
};

/// Serialized array-row path (MADLib's array table): Open() deserializes
/// every household row sequentially.
class ArrayStoreReader : public TableReader {
 public:
  /// Borrows `store`, which must be loaded and outlive the reader.
  explicit ArrayStoreReader(const storage::ArrayStore* store);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "array-store"; }

 private:
  const storage::ArrayStore* store_;
  MeterDataset dataset_;
  bool open_ = false;
};

/// Simulated-HDFS path: Open() reads every input split with
/// TextInputFormat semantics and assembles the rows, exactly what a
/// full MapReduce scan of the block store observes.
class BlockStoreReader : public TableReader {
 public:
  /// Borrows `store`, which must outlive the reader. `splittable`
  /// selects block-aligned splits vs. whole-file splits (format 3).
  BlockStoreReader(const cluster::BlockStore* store, bool splittable);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "block-store"; }

 private:
  const cluster::BlockStore* store_;
  bool splittable_;
  MeterDataset dataset_;
  bool open_ = false;
};

/// Borrowed in-memory dataset (warm engine state, tests).
class DatasetReader : public TableReader {
 public:
  /// Borrows `dataset`, which must outlive the reader.
  explicit DatasetReader(const MeterDataset* dataset);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "dataset"; }

 private:
  const MeterDataset* dataset_;
};

/// Parses `source` into a dataset using the layout-appropriate CSV
/// reader. Shared by CsvTableReader and the columnar cache's miss path.
Result<MeterDataset> ReadDatasetFromSource(const DataSource& source);

/// The generic reader for a text source (a CsvTableReader). Engines with
/// a native store construct their specific reader directly instead.
Result<std::unique_ptr<TableReader>> MakeReader(const DataSource& source);

}  // namespace smartmeter::table

#endif  // SMARTMETER_TABLE_TABLE_READER_H_
