#include "table/table_reader.h"

#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/csv.h"

namespace smartmeter::table {

Result<MeterDataset> ReadDatasetFromSource(const DataSource& source) {
  SM_RETURN_IF_ERROR(source.Validate());
  switch (source.layout) {
    case DataSource::Layout::kSingleCsv:
      return storage::ReadReadingsCsv(source.files.front());
    case DataSource::Layout::kPartitionedDir:
    case DataSource::Layout::kWholeFileDir:
      return storage::ReadReadingsCsvFiles(source.files);
    case DataSource::Layout::kHouseholdLines:
      return storage::ReadHouseholdLinesCsv(source.files.front());
    case DataSource::Layout::kColumnFile: {
      ColumnFileReader reader(source.files.front());
      SM_RETURN_IF_ERROR(reader.Open());
      SM_ASSIGN_OR_RETURN(ColumnarBatch batch, reader.NewBatch());
      MeterDataset dataset;
      dataset.SetTemperature(std::vector<double>(batch.temperature().begin(),
                                                 batch.temperature().end()));
      for (size_t i = 0; i < batch.count(); ++i) {
        const SeriesSlice series = batch.consumption(i);
        dataset.AddConsumer({batch.household_id(i),
                             std::vector<double>(series.begin(),
                                                 series.end())});
      }
      return dataset;
    }
  }
  return Status::InvalidArgument("unknown data source layout");
}

Result<ScopedBatch> TableReader::NewScopedBatch(
    const storage::ScanScope& scope) const {
  if (!scope.whole_hours()) {
    return Status::NotSupported(
        "hour-window scans need a block-indexed column file");
  }
  SM_ASSIGN_OR_RETURN(ColumnarBatch batch, NewBatch());
  ScopedBatch scoped;
  const size_t begin = scope.RowBegin(batch.count());
  const size_t end = scope.RowEnd(batch.count());
  SM_ASSIGN_OR_RETURN(scoped.batch, batch.Slice(begin, end - begin));
  return scoped;
}

// ---------------------------------------------------------------------------
// CsvTableReader
// ---------------------------------------------------------------------------

CsvTableReader::CsvTableReader(DataSource source)
    : source_(std::move(source)) {}

Status CsvTableReader::Open() {
  open_ = false;
  SM_ASSIGN_OR_RETURN(dataset_, ReadDatasetFromSource(source_));
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> CsvTableReader::NewBatch() const {
  if (!open_) return Status::Internal("csv reader not open");
  return ColumnarBatch::FromDataset(dataset_);
}

// ---------------------------------------------------------------------------
// ColumnFileReader
// ---------------------------------------------------------------------------

namespace {

// Heap-owned decode of the blocks a scope touched; a ScopedBatch's
// `owner` keeps one alive for as long as its span views are used.
struct DecodedTable {
  std::vector<int64_t> ids;
  std::vector<double> consumption;
  std::vector<double> temperature;
};

void BumpScanCounters(const storage::ScanStats& stats) {
  static obs::Counter* decoded =
      obs::MetricsRegistry::Global().GetCounter("table.scan.blocks_decoded");
  static obs::Counter* pruned =
      obs::MetricsRegistry::Global().GetCounter("table.scan.blocks_pruned");
  decoded->Add(static_cast<int64_t>(stats.blocks_decoded));
  pruned->Add(static_cast<int64_t>(stats.blocks_pruned));
}

}  // namespace

ColumnFileReader::ColumnFileReader(std::string path)
    : path_(std::move(path)) {}

Status ColumnFileReader::Open() {
  open_ = false;
  open_stats_ = {};
  decoded_ids_.clear();
  decoded_consumption_.clear();
  decoded_temperature_.clear();
  SM_RETURN_IF_ERROR(compressed_.Open(path_));
  SM_RETURN_IF_ERROR(compressed_.DecodeAll(&decoded_ids_,
                                           &decoded_consumption_,
                                           &decoded_temperature_,
                                           &open_stats_));
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> ColumnFileReader::NewBatch() const {
  if (!open_) return Status::Internal("column file not open");
  return ColumnarBatch::FromContiguous(decoded_ids_, decoded_consumption_,
                                       decoded_temperature_,
                                       compressed_.hours());
}

Result<ScopedBatch> ColumnFileReader::NewScopedBatch(
    const storage::ScanScope& scope) const {
  if (!open_) return Status::Internal("column file not open");
  if (scope.whole()) {
    // The whole-file decode already happened at Open(); report its cost
    // (every block decoded, nothing pruned) without decoding again.
    ScopedBatch scoped;
    SM_ASSIGN_OR_RETURN(scoped.batch, NewBatch());
    scoped.stats = open_stats_;
    BumpScanCounters(scoped.stats);
    return scoped;
  }
  auto decoded = std::make_shared<DecodedTable>();
  storage::ScanStats stats;
  SM_RETURN_IF_ERROR(compressed_.DecodeScoped(scope, &decoded->ids,
                                              &decoded->consumption,
                                              &decoded->temperature, &stats));
  const size_t hours = compressed_.hours();
  const size_t window =
      scope.HourEnd(hours) - scope.HourBegin(hours);
  ScopedBatch scoped;
  SM_ASSIGN_OR_RETURN(
      scoped.batch,
      ColumnarBatch::FromContiguous(decoded->ids, decoded->consumption,
                                    decoded->temperature, window));
  scoped.owner = std::move(decoded);
  scoped.stats = stats;
  BumpScanCounters(scoped.stats);
  return scoped;
}

// ---------------------------------------------------------------------------
// RowStoreReader
// ---------------------------------------------------------------------------

RowStoreReader::RowStoreReader(const storage::RowStore* store)
    : store_(store) {}

Status RowStoreReader::Open() {
  open_ = false;
  SM_ASSIGN_OR_RETURN(dataset_, store_->ScanAll());
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> RowStoreReader::NewBatch() const {
  if (!open_) return Status::Internal("row store reader not open");
  return ColumnarBatch::FromDataset(dataset_);
}

// ---------------------------------------------------------------------------
// ArrayStoreReader
// ---------------------------------------------------------------------------

ArrayStoreReader::ArrayStoreReader(const storage::ArrayStore* store)
    : store_(store) {}

Status ArrayStoreReader::Open() {
  open_ = false;
  SM_ASSIGN_OR_RETURN(dataset_, store_->ReadAll());
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> ArrayStoreReader::NewBatch() const {
  if (!open_) return Status::Internal("array store reader not open");
  return ColumnarBatch::FromDataset(dataset_);
}

// ---------------------------------------------------------------------------
// BlockStoreReader
// ---------------------------------------------------------------------------

BlockStoreReader::BlockStoreReader(const cluster::BlockStore* store,
                                   bool splittable)
    : store_(store), splittable_(splittable) {}

Status BlockStoreReader::Open() {
  open_ = false;
  const std::vector<cluster::InputSplit> splits =
      splittable_ ? store_->SplittableSplits() : store_->WholeFileSplits();
  storage::ReadingAssembler assembler;
  for (const cluster::InputSplit& split : splits) {
    storage::ReadingCsvReader reader(split.path, split.offset, split.length);
    SM_RETURN_IF_ERROR(reader.Open());
    storage::ReadingRow row;
    while (reader.Next(&row)) assembler.Add(row);
    SM_RETURN_IF_ERROR(reader.status());
  }
  SM_ASSIGN_OR_RETURN(dataset_, assembler.Finish());
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> BlockStoreReader::NewBatch() const {
  if (!open_) return Status::Internal("block store reader not open");
  return ColumnarBatch::FromDataset(dataset_);
}

// ---------------------------------------------------------------------------
// DatasetReader
// ---------------------------------------------------------------------------

DatasetReader::DatasetReader(const MeterDataset* dataset)
    : dataset_(dataset) {}

Status DatasetReader::Open() { return dataset_->Validate(); }

Result<ColumnarBatch> DatasetReader::NewBatch() const {
  return ColumnarBatch::FromDataset(*dataset_);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TableReader>> MakeReader(const DataSource& source) {
  SM_RETURN_IF_ERROR(source.Validate());
  if (source.layout == DataSource::Layout::kColumnFile) {
    return std::unique_ptr<TableReader>(
        new ColumnFileReader(source.files.front()));
  }
  return std::unique_ptr<TableReader>(new CsvTableReader(source));
}

}  // namespace smartmeter::table
