#ifndef SMARTMETER_STORAGE_COLUMN_STORE_H_
#define SMARTMETER_STORAGE_COLUMN_STORE_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/scan_scope.h"
#include "timeseries/dataset.h"

namespace smartmeter::storage {

// ---------------------------------------------------------------------------
// SMCOLV2, the column file of System C's store (Section 5.1) and of the
// columnar cache: household ids, household-major consumption and the
// shared temperature column. Every column is cut into fixed-size value
// blocks encoded with the block codec (delta + frame-of-reference +
// bit-packing, verified decimal fixed-point for doubles), and a footer
// carries a per-block (household range × hour range × min/max) index so
// scoped scans decode only the blocks a query touches. Exact byte
// layout: DESIGN.md, "SMCOLV2 layout & block index".
// ---------------------------------------------------------------------------

inline constexpr size_t kColumnBlockValues = 4096;

/// Streaming SMCOLV2 writer: households are appended one series at a
/// time, so a 1M-household tier never has to materialize its dataset in
/// memory. Usage: Open() → AppendHousehold()* → Finish(temperature).
class ColumnFileWriter {
 public:
  /// `block_values` is the encoded block size in values (header field;
  /// readers accept any value in [1, 2^20]).
  explicit ColumnFileWriter(std::string path,
                            size_t block_values = kColumnBlockValues);
  ~ColumnFileWriter();

  ColumnFileWriter(const ColumnFileWriter&) = delete;
  ColumnFileWriter& operator=(const ColumnFileWriter&) = delete;

  /// `hours` fixes the series length every appended household must match.
  Status Open(size_t hours);
  Status AppendHousehold(int64_t household_id,
                         std::span<const double> consumption);
  /// Writes the temperature column, the id dictionary, and the indexed
  /// footer, then closes the file. On any error the truncated file is
  /// removed.
  Status Finish(std::span<const double> temperature);

  /// One-shot convenience: serializes `dataset` as SMCOLV2.
  static Status WriteFile(const MeterDataset& dataset, const std::string& path,
                          size_t block_values = kColumnBlockValues);

 private:
  struct BlockEntry {
    uint64_t offset = 0;
    uint64_t encoded_bytes = 0;
    uint64_t row_begin = 0;
    uint64_t row_end = 0;
    uint64_t hour_begin = 0;
    uint64_t hour_end = 0;
    double min_value = 0.0;
    double max_value = 0.0;
    uint64_t checksum = 0;
  };

  Status FlushPending(bool final_flush);
  Status WriteBlock(std::span<const double> values, uint64_t value_begin,
                    bool temperature_column);
  Status WriteBytes(const void* data, size_t bytes);
  Status Fail(const std::string& message);

  std::string path_;
  size_t block_values_;
  size_t hours_ = 0;
  std::FILE* file_ = nullptr;
  uint64_t offset_ = 0;
  uint64_t values_written_ = 0;
  std::vector<int64_t> ids_;
  std::vector<double> pending_;
  std::vector<uint8_t> scratch_;
  std::vector<BlockEntry> consumption_blocks_;
  std::vector<BlockEntry> temperature_blocks_;
};

/// Memory-mapped SMCOLV2 reader. Open() validates the header and footer
/// checksums and the block index; decode calls verify each block's
/// checksum and bounds before touching its payload, so hostile files
/// yield a clean `Status` instead of a crash or overread.
class CompressedColumnFile {
 public:
  CompressedColumnFile() = default;
  ~CompressedColumnFile();

  CompressedColumnFile(const CompressedColumnFile&) = delete;
  CompressedColumnFile& operator=(const CompressedColumnFile&) = delete;
  CompressedColumnFile(CompressedColumnFile&&) noexcept;
  CompressedColumnFile& operator=(CompressedColumnFile&&) noexcept;

  Status Open(const std::string& path);
  void Close();
  bool is_open() const { return base_ != nullptr; }

  size_t num_households() const { return num_households_; }
  size_t hours() const { return hours_; }
  size_t block_values() const { return block_values_; }
  int64_t file_bytes() const { return static_cast<int64_t>(size_); }
  size_t num_consumption_blocks() const { return consumption_blocks_.size(); }
  /// Consumption + temperature + id blocks: the denominator of the
  /// pruning ratio a scoped scan reports.
  size_t num_blocks() const {
    return consumption_blocks_.size() + temperature_blocks_.size() +
           id_blocks_.size();
  }

  /// Decodes the whole table. Stats (optional) count every block as
  /// decoded.
  Status DecodeAll(std::vector<int64_t>* ids, std::vector<double>* consumption,
                   std::vector<double>* temperature, ScanStats* stats) const;

  /// Decodes only the blocks intersecting `scope`. Outputs are dense over
  /// the scoped rectangle: `consumption` holds hour_count values per
  /// scoped row, `ids` the scoped households, `temperature` the scoped
  /// hour window.
  Status DecodeScoped(const ScanScope& scope, std::vector<int64_t>* ids,
                      std::vector<double>* consumption,
                      std::vector<double>* temperature,
                      ScanStats* stats) const;

  /// Per-block access for the simulated-HDFS split path.
  struct BlockInfo {
    size_t value_begin = 0;
    size_t value_count = 0;
    size_t row_begin = 0;
    size_t row_end = 0;
    int64_t encoded_bytes = 0;
    int64_t file_offset = 0;
  };
  BlockInfo consumption_block(size_t index) const;
  /// Appends the block's `value_count` consumption values to `values`.
  Status DecodeConsumptionBlock(size_t index,
                                std::vector<double>* values) const;
  Status DecodeIds(std::vector<int64_t>* ids) const;
  Status DecodeTemperature(std::vector<double>* temperature) const;

 private:
  struct BlockEntry {
    uint64_t offset;
    uint64_t encoded_bytes;
    uint64_t row_begin;
    uint64_t row_end;
    uint64_t hour_begin;
    uint64_t hour_end;
    double min_value;
    double max_value;
    uint64_t checksum;
  };

  Status Parse(const std::string& origin);
  Status CheckBlock(const BlockEntry& entry, size_t expected_values,
                    std::span<const uint8_t>* out) const;
  Status DecodeDoubleBlocks(const std::vector<BlockEntry>& entries,
                            size_t total_values, std::vector<double>* out,
                            ScanStats* stats) const;

  void* base_ = nullptr;
  size_t size_ = 0;
  size_t num_households_ = 0;
  size_t hours_ = 0;
  size_t block_values_ = 0;
  std::vector<BlockEntry> consumption_blocks_;
  std::vector<BlockEntry> temperature_blocks_;
  std::vector<BlockEntry> id_blocks_;
};

}  // namespace smartmeter::storage

#endif  // SMARTMETER_STORAGE_COLUMN_STORE_H_
