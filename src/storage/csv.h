#ifndef SMARTMETER_STORAGE_CSV_H_
#define SMARTMETER_STORAGE_CSV_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "timeseries/dataset.h"

namespace smartmeter::storage {

/// On-disk text layouts used across the paper's experiments.
///
/// Single-server experiments (Section 5.3) distinguish "un-partitioned"
/// (one big reading-per-line file) from "partitioned" (one file per
/// consumer). The cluster experiments (Section 5.4.2) use three formats:
///   1. one file, one reading per line           -> kReadingPerLine
///   2. one file, one household per line          -> kHouseholdPerLine
///   3. many files, households never split across -> kWholeHouseholdFiles
enum class CsvFormat {
  kReadingPerLine,
  kHouseholdPerLine,
  kWholeHouseholdFiles,
};

/// Schema of kReadingPerLine rows: household_id,hour,consumption,temperature
struct ReadingRow {
  int64_t household_id;
  int32_t hour;
  double consumption;
  double temperature;
};

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Writes the whole dataset as one reading-per-line CSV file.
Status WriteReadingsCsv(const MeterDataset& dataset, const std::string& path);

/// Writes one file per consumer under `dir` (named <household_id>.csv),
/// reading-per-line. This is the "partitioned" layout of Figure 4/5.
/// Returns the file paths written.
Result<std::vector<std::string>> WritePartitionedCsv(
    const MeterDataset& dataset, const std::string& dir);

/// Writes `num_files` files under `dir`, each holding one or more whole
/// households, reading-per-line (cluster data format 3). Households are
/// assigned round-robin. Returns the paths.
Result<std::vector<std::string>> WriteWholeHouseholdFiles(
    const MeterDataset& dataset, const std::string& dir, int num_files);

/// Writes one household per line: "id,c0,c1,...,cN" (cluster data format
/// 2). The shared temperature series goes to "<path>.temperature" with one
/// value per line, since every task that needs temperature broadcasts it.
Status WriteHouseholdLinesCsv(const MeterDataset& dataset,
                              const std::string& path);

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

/// Reads a reading-per-line CSV back into a dataset. Rows may arrive in any
/// order; they are grouped by household and sorted by hour. All households
/// must cover the same hour range.
Result<MeterDataset> ReadReadingsCsv(const std::string& path);

/// Reads every "*.csv" file under `dir` (one file per household layout).
Result<MeterDataset> ReadPartitionedCsv(const std::string& dir);

/// Reads several reading-per-line CSV files into one dataset (the
/// whole-household-files layout, or an explicit partition list).
Result<MeterDataset> ReadReadingsCsvFiles(
    const std::vector<std::string>& paths);

/// Groups reading-per-line rows — arriving in any order — by household
/// and assembles a dense dataset (hours must cover 0..N-1 everywhere).
Result<MeterDataset> AssembleReadingRows(std::span<const ReadingRow> rows);

/// Reads a household-per-line CSV plus its "<path>.temperature" sidecar.
Result<MeterDataset> ReadHouseholdLinesCsv(const std::string& path);

/// Reads a temperature sidecar (one value per line), such as the
/// "<path>.temperature" file of the household-per-line layout.
Result<std::vector<double>> ReadTemperatureSidecar(const std::string& path);

/// Dense assembly behind every reading-per-line loader. Rows may arrive in
/// any order; each household gets one array indexed by hour, reached
/// through an id -> slot hash, and households come out ordered by id. The
/// first temperature seen for an hour wins. Every household must cover
/// the same hours 0..N-1: a gap, a duplicate or a ragged household is
/// Corruption, and no rows at all is InvalidArgument. Storage grows one
/// reading at a time, so an hour read from the input never sizes an
/// allocation: an out-of-order reading is parked until Finish() sorts it.
class ReadingAssembler {
 public:
  void Add(const ReadingRow& row);

  /// Checks the shape and hands over the dataset. Call once.
  Result<MeterDataset> Finish();

 private:
  struct Household {
    int64_t id = 0;
    /// Hours 0..size-1, filled while the household's readings arrive in
    /// hour order.
    std::vector<double> consumption;
    /// (hour, consumption) of every reading from the first out-of-order
    /// one on; merged and checked by Finish().
    std::vector<std::pair<int32_t, double>> parked;
  };

  Household& Slot(int64_t household_id);

  std::vector<Household> households_;
  std::unordered_map<int64_t, size_t> slot_of_;
  /// Slot of the previous row: the next row usually belongs to it (one
  /// file per household) or to the slot after it (timestamp-major order),
  /// so most rows skip the hash.
  size_t last_slot_ = 0;
  /// Temperature of hours 0..size-1, each the first value seen.
  std::vector<double> temperature_;
  /// First temperature seen for hours past the dense prefix.
  std::unordered_map<int32_t, double> parked_temperature_;
};

/// Block-buffered reader over the lines of one text file, or of the byte
/// range one input split owns. Every reader of the text formats goes
/// through it, so they share one line rule: lines come back trimmed of
/// whitespace (CRLF endings read like LF ones) and blank lines are
/// skipped. A line is a view into the 64 KiB block buffer, valid until
/// the next call; no line is copied.
///
/// A byte range keeps Hadoop TextInputFormat's ownership rule, so the
/// ranges of consecutive splits yield every line of the file exactly once:
///   - a range that does not start the file skips its first, partial
///     line (the previous range finishes it);
///   - a range owns every line that starts at or before offset + length,
///     and reads the last one to completion past the range end.
class LineReader {
 public:
  /// Reads the whole file.
  explicit LineReader(std::string path);
  /// Reads the lines that the range [offset, offset + length] owns.
  LineReader(std::string path, int64_t offset, int64_t length);
  ~LineReader();

  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// Opens the file; must be called before Next() or CountLines().
  Status Open();

  /// Points `line` at the next non-blank line. Returns false at the end
  /// of the range, or on a read error (then status() is not OK).
  bool Next(std::string_view* line);

  /// Lines the range owns, blank ones included: its newline count, taken
  /// by one vectorized pass over its bytes that leaves the read position
  /// alone. Equals what Next() yields when no line is blank, so a caller
  /// can reserve exactly before parsing.
  Result<size_t> CountLines() const;

  /// Re-labels a status about the last line Next() returned with where
  /// that line is: "<path>:<line> (byte <offset>): <message>", the line
  /// number given only when the range starts the file.
  Status Annotate(const Status& status) const;

  const Status& status() const { return status_; }

  /// 1-based line number of the last line returned, counted from the
  /// range start (blank lines included).
  size_t line_number() const { return line_number_; }

 private:
  std::string path_;
  int64_t offset_;
  /// Offset + length: the last byte a line owned by the range may start at.
  int64_t limit_;
  int fd_ = -1;
  /// Holds the file bytes [buffer_base_, buffer_base_ + buffer_.size());
  /// buffer_[buffer_pos_..] is unread.
  std::string buffer_;
  int64_t buffer_base_ = 0;
  size_t buffer_pos_ = 0;
  bool eof_ = false;
  bool done_ = false;
  bool skip_partial_ = false;
  /// File byte offset of the first character of the last line returned.
  int64_t line_offset_ = 0;
  size_t line_number_ = 0;
  Status status_;
};

/// Streaming reader of reading-per-line rows over one CSV file or one
/// split's byte range (see LineReader); used by the engines that process
/// data without materializing a full dataset.
class ReadingCsvReader {
 public:
  explicit ReadingCsvReader(std::string path);
  ReadingCsvReader(std::string path, int64_t offset, int64_t length);
  ~ReadingCsvReader();

  ReadingCsvReader(const ReadingCsvReader&) = delete;
  ReadingCsvReader& operator=(const ReadingCsvReader&) = delete;

  /// Opens the file; must be called before Next().
  Status Open();

  /// Reads the next row into `row`. Returns false at EOF. Malformed rows
  /// surface through status() as "<path>:<line> (byte <offset>): <field
  /// error at column N>".
  bool Next(ReadingRow* row);

  /// Rows the reader will yield when no line is blank (LineReader's
  /// CountLines), for an exact reserve.
  Result<size_t> CountRows() const { return lines_.CountLines(); }

  const Status& status() const { return status_; }

  /// 1-based number of the last line read (0 before the first Next()).
  size_t line_number() const { return lines_.line_number(); }

 private:
  LineReader lines_;
  int64_t rows_ = 0;
  Status status_;
};

/// Parses a single reading-per-line row in one pass (fields sliced in
/// place, from_chars numeric fast path). Errors name the failing field
/// and its 1-based column; an hour must lie in [0, INT32_MAX].
Result<ReadingRow> ParseReadingRow(std::string_view line);

/// Parses one household-per-line row, "id,c0,c1,...", in one pass.
/// Errors name the failing field and its 1-based column.
Result<ConsumerSeries> ParseHouseholdLine(std::string_view line);

}  // namespace smartmeter::storage

#endif  // SMARTMETER_STORAGE_CSV_H_
