#include "engines/plan_builders.h"

#include <memory>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "storage/column_store.h"
#include "storage/csv.h"

namespace smartmeter::engines::planning {

exec::ScanOp ResidentBatchScan(const table::ColumnarBatch* batch,
                               std::string source) {
  exec::ScanOp scan;
  scan.kind = exec::ScanOp::Kind::kBatch;
  scan.source = std::move(source);
  scan.scan_batch = [batch]() -> Result<exec::BatchScan> {
    return exec::BatchScan{batch->View(), nullptr, {}};
  };
  return scan;
}

exec::ScanOp ReaderBatchScan(const table::TableReader* reader,
                             const table::ColumnarBatch* batch,
                             std::string source) {
  exec::ScanOp scan = ResidentBatchScan(batch, std::move(source));
  scan.scan_batch_scoped =
      [reader](const storage::ScanScope& scope) -> Result<exec::BatchScan> {
    SM_ASSIGN_OR_RETURN(table::ScopedBatch scoped,
                        reader->NewScopedBatch(scope));
    return exec::BatchScan{std::move(scoped.batch), std::move(scoped.owner),
                           scoped.stats};
  };
  return scan;
}

exec::ScanOp DatasetBatchScan(const MeterDataset* dataset,
                              std::string source) {
  exec::ScanOp scan;
  scan.kind = exec::ScanOp::Kind::kBatch;
  scan.source = std::move(source);
  scan.scan_batch = [dataset]() -> Result<exec::BatchScan> {
    SM_ASSIGN_OR_RETURN(table::ColumnarBatch batch,
                        table::ColumnarBatch::FromDataset(*dataset));
    return exec::BatchScan{std::move(batch), nullptr, {}};
  };
  return scan;
}

std::vector<cluster::ColumnarBlock> ColumnarFileBlocks(
    const table::ColumnFileReader& reader) {
  std::vector<cluster::ColumnarBlock> blocks;
  const storage::CompressedColumnFile& compressed = reader.compressed();
  const size_t hours = compressed.hours();
  const size_t rows = compressed.num_households();
  if (hours == 0 || rows == 0) return blocks;
  for (size_t i = 0; i < compressed.num_consumption_blocks(); ++i) {
    const storage::CompressedColumnFile::BlockInfo info =
        compressed.consumption_block(i);
    // A block owns the rows that START inside it (a row straddling two
    // blocks belongs to the earlier one), so block row ranges are
    // disjoint and contiguous even though decoding a boundary row may
    // touch the neighbour block.
    cluster::ColumnarBlock block;
    block.row_begin = (info.value_begin + hours - 1) / hours;
    block.row_end = (info.value_begin + info.value_count + hours - 1) / hours;
    block.bytes = info.encoded_bytes;
    if (block.row_end > block.row_begin) blocks.push_back(block);
  }
  if (!blocks.empty()) blocks.back().row_end = rows;
  return blocks;
}

exec::ScanOp ColumnarReadingsScan(
    std::shared_ptr<const table::ColumnFileReader> reader,
    std::vector<cluster::ColumnarSplit> splits, std::string source) {
  exec::ScanOp scan;
  scan.kind = exec::ScanOp::Kind::kReadings;
  scan.source = std::move(source);
  scan.partitions = static_cast<int>(splits.size());
  auto shared = std::make_shared<const std::vector<cluster::ColumnarSplit>>(
      std::move(splits));
  scan.scan_readings = [reader, shared](
                           int partition,
                           std::vector<exec::ReadingRecord>* out,
                           cluster::TaskStats* stats) -> Status {
    const cluster::ColumnarSplit& columnar =
        (*shared)[static_cast<size_t>(partition)];
    storage::ScanScope scope;
    scope.row_begin = columnar.row_begin;
    scope.row_count = columnar.row_end - columnar.row_begin;
    SM_ASSIGN_OR_RETURN(table::ScopedBatch scoped,
                        reader->NewScopedBatch(scope));
    const table::SeriesSlice temperature = scoped.batch.temperature();
    const size_t hours = scoped.batch.hours();
    out->reserve(scoped.batch.count() * hours);
    for (size_t i = 0; i < scoped.batch.count(); ++i) {
      const int64_t id = scoped.batch.household_id(i);
      const table::SeriesSlice series = scoped.batch.consumption(i);
      for (size_t h = 0; h < hours; ++h) {
        out->push_back({id, static_cast<int32_t>(h), series[h],
                        temperature.empty() ? 0.0 : temperature[h]});
      }
    }
    stats->input_bytes = columnar.split.length;
    stats->files_opened = columnar.split.opens_file ? 1 : 0;
    return Status::OK();
  };
  return scan;
}

exec::ScanOp SplitReadingsScan(std::vector<cluster::InputSplit> splits,
                               std::string source,
                               double extra_seconds_per_mb) {
  exec::ScanOp scan;
  scan.kind = exec::ScanOp::Kind::kReadings;
  scan.source = std::move(source);
  scan.partitions = static_cast<int>(splits.size());
  auto shared =
      std::make_shared<const std::vector<cluster::InputSplit>>(
          std::move(splits));
  scan.scan_readings = [shared, extra_seconds_per_mb](
                           int partition,
                           std::vector<exec::ReadingRecord>* out,
                           cluster::TaskStats* stats) -> Status {
    const cluster::InputSplit& split =
        (*shared)[static_cast<size_t>(partition)];
    // Each task re-parses its split's text, as Spark and Hive do, but in
    // place: rows are parsed out of the reader's block buffer into a
    // vector reserved to the split's exact line count.
    storage::ReadingCsvReader reader(split.path, split.offset, split.length);
    SM_RETURN_IF_ERROR(reader.Open());
    SM_ASSIGN_OR_RETURN(const size_t rows, reader.CountRows());
    out->reserve(rows);
    storage::ReadingRow row;
    while (reader.Next(&row)) {
      out->push_back({row.household_id, row.hour, row.consumption,
                      row.temperature});
    }
    SM_RETURN_IF_ERROR(reader.status());
    stats->input_bytes = split.length;
    stats->files_opened = split.opens_file ? 1 : 0;
    stats->fixed_seconds = extra_seconds_per_mb *
                           static_cast<double>(split.length) /
                           (1024.0 * 1024.0);
    return Status::OK();
  };
  return scan;
}

exec::ScanOp SplitSeriesScan(
    std::vector<cluster::InputSplit> splits, std::string source,
    std::shared_ptr<const std::vector<double>> temperature) {
  exec::ScanOp scan;
  scan.kind = exec::ScanOp::Kind::kSeries;
  scan.source = std::move(source);
  scan.partitions = static_cast<int>(splits.size());
  scan.shared_temperature = temperature;
  auto shared =
      std::make_shared<const std::vector<cluster::InputSplit>>(
          std::move(splits));
  scan.scan_series = [shared, temperature](
                         int partition, std::vector<exec::SeriesRecord>* out,
                         cluster::TaskStats* stats) -> Status {
    const cluster::InputSplit& split =
        (*shared)[static_cast<size_t>(partition)];
    storage::LineReader lines(split.path, split.offset, split.length);
    SM_RETURN_IF_ERROR(lines.Open());
    std::string_view line;
    while (lines.Next(&line)) {
      Result<ConsumerSeries> parsed = storage::ParseHouseholdLine(line);
      if (!parsed.ok()) return lines.Annotate(parsed.status());
      if (temperature != nullptr &&
          parsed->consumption.size() != temperature->size()) {
        return lines.Annotate(Status::Corruption(StringPrintf(
            "household %lld has %zu readings, the temperature sidecar has %zu",
            static_cast<long long>(parsed->household_id),
            parsed->consumption.size(), temperature->size())));
      }
      exec::SeriesRecord record;
      record.household_id = parsed->household_id;
      record.consumption = std::move(parsed->consumption);
      out->push_back(std::move(record));
    }
    SM_RETURN_IF_ERROR(lines.status());
    stats->input_bytes = split.length;
    stats->files_opened = split.opens_file ? 1 : 0;
    return Status::OK();
  };
  return scan;
}

exec::ScanOp FileSeriesScan(std::vector<std::string> files,
                            std::string source) {
  exec::ScanOp scan;
  scan.kind = exec::ScanOp::Kind::kSeries;
  scan.source = std::move(source);
  scan.partitions = static_cast<int>(files.size());
  auto shared =
      std::make_shared<const std::vector<std::string>>(std::move(files));
  scan.scan_series = [shared](int partition,
                              std::vector<exec::SeriesRecord>* out,
                              cluster::TaskStats*) -> Status {
    ConsumerSeries consumer;
    std::vector<double> temperature;
    SM_RETURN_IF_ERROR(ParseSingleHouseholdFile(
        (*shared)[static_cast<size_t>(partition)], &consumer, &temperature));
    exec::SeriesRecord record;
    record.household_id = consumer.household_id;
    record.consumption = std::move(consumer.consumption);
    record.temperature = std::move(temperature);
    out->push_back(std::move(record));
    return Status::OK();
  };
  return scan;
}

Status ParseSingleHouseholdFile(const std::string& path,
                                ConsumerSeries* series,
                                std::vector<double>* temperature) {
  storage::ReadingCsvReader reader(path);
  SM_RETURN_IF_ERROR(reader.Open());
  storage::ReadingRow row;
  bool first = true;
  series->consumption.clear();
  temperature->clear();
  while (reader.Next(&row)) {
    if (first) {
      series->household_id = row.household_id;
      first = false;
    }
    series->consumption.push_back(row.consumption);
    temperature->push_back(row.temperature);
  }
  SM_RETURN_IF_ERROR(reader.status());
  if (first) {
    return Status::Corruption("empty household file " + path);
  }
  return Status::OK();
}

}  // namespace smartmeter::engines::planning
