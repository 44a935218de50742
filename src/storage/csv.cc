#include "storage/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "simd/simd.h"

namespace smartmeter::storage {

namespace fs = std::filesystem;

namespace {

/// Block size of the line reader and the writers: big enough that the
/// SIMD newline scan amortizes the system call, small enough to stay
/// cache-friendly.
constexpr size_t kCsvBlock = size_t{64} * 1024;

/// Reads up to `count` bytes at `offset`, retrying on EINTR; -1 on error.
ssize_t ReadAt(int fd, char* out, size_t count, int64_t offset) {
  ssize_t got;
  do {
    got = ::pread(fd, out, count, static_cast<off_t>(offset));
  } while (got < 0 && errno == EINTR);
  return got;
}

Status ReadError(const std::string& path) {
  return Status::IOError(
      StringPrintf("cannot read %s: %s", path.c_str(), std::strerror(errno)));
}

/// Block-buffered text writer. Values are formatted with to_chars into a
/// 64 KiB buffer that goes out one fwrite at a time; the bytes are those
/// of the printf conversions "%lld", "%zu", "%.4f" and "%.2f".
class BlockWriter {
 public:
  explicit BlockWriter(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")), path_(path) {
    buffer_.resize(kCsvBlock);
  }
  ~BlockWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  bool ok() const { return file_ != nullptr; }
  Status OpenError() const {
    return Status::IOError("cannot open for writing: " + path_);
  }

  void Int(long long value) {
    Room();
    pos_ = std::to_chars(Cursor(), End(), value).ptr - buffer_.data();
  }
  /// printf's "%.<precision>f": the same correctly rounded digits.
  void Fixed(double value, int precision) {
    Room();
    pos_ = std::to_chars(Cursor(), End(), value, std::chars_format::fixed,
                         precision)
               .ptr -
           buffer_.data();
  }
  void Char(char c) {
    Room();
    buffer_[pos_++] = c;
  }

  /// Writes what is buffered and closes the file; a short write anywhere
  /// is an IOError.
  Status Close() {
    Flush();
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (failed_ || !closed) return Status::IOError("short write: " + path_);
    return Status::OK();
  }

 private:
  /// Widest field: a fixed-notation double has up to 309 integer digits.
  static constexpr size_t kMaxField = 512;

  char* Cursor() { return buffer_.data() + pos_; }
  char* End() { return buffer_.data() + buffer_.size(); }
  void Room() {
    if (buffer_.size() - pos_ < kMaxField) Flush();
  }
  void Flush() {
    if (pos_ > 0 && std::fwrite(buffer_.data(), 1, pos_, file_) != pos_) {
      failed_ = true;
    }
    pos_ = 0;
  }

  FILE* file_;
  std::string path_;
  std::string buffer_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// One reading-per-line row: "<id>,<hour>,<consumption>,<temperature>\n".
void WriteReading(BlockWriter* out, int64_t household_id, size_t hour,
                  double consumption, double temperature) {
  out->Int(household_id);
  out->Char(',');
  out->Int(static_cast<long long>(hour));
  out->Char(',');
  out->Fixed(consumption, 4);
  out->Char(',');
  out->Fixed(temperature, 2);
  out->Char('\n');
}

void WriteConsumerReadings(BlockWriter* out, const ConsumerSeries& consumer,
                           const std::vector<double>& temperature) {
  for (size_t h = 0; h < consumer.consumption.size(); ++h) {
    WriteReading(out, consumer.household_id, h, consumer.consumption[h],
                 temperature[h]);
  }
}

Status FieldError(std::string_view line, std::string_view field,
                  const char* what) {
  return Status::Corruption(StringPrintf(
      "bad %s '%.*s' at column %zu", what, static_cast<int>(field.size()),
      field.data(), static_cast<size_t>(field.data() - line.data()) + 1));
}

}  // namespace

Result<ReadingRow> ParseReadingRow(std::string_view line) {
  // Single pass over the line: slice the four comma-separated fields in
  // place (no per-row split vector) and parse each with the from_chars
  // fast path. Errors carry the 1-based column of the offending field.
  std::string_view fields[4];
  size_t num_fields = 0;
  size_t start = 0;
  for (;;) {
    const size_t comma = simd::FindByte(line, start, ',');
    const size_t end = comma == std::string_view::npos ? line.size() : comma;
    if (num_fields == 4) {
      return Status::Corruption(StringPrintf(
          "expected 4 fields, extra field starts at column %zu", start + 1));
    }
    fields[num_fields++] = line.substr(start, end - start);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (num_fields != 4) {
    return Status::Corruption(
        StringPrintf("expected 4 fields, got %zu (line ends at column %zu)",
                     num_fields, line.size() + 1));
  }
  ReadingRow row;
  const auto id = ParseInt64(fields[0]);
  if (!id.ok()) return FieldError(line, fields[0], "household id");
  row.household_id = *id;
  const auto hour = ParseInt64(fields[1]);
  if (!hour.ok() || *hour < 0 ||
      *hour > std::numeric_limits<int32_t>::max()) {
    return FieldError(line, fields[1], "hour");
  }
  row.hour = static_cast<int32_t>(*hour);
  const auto consumption = ParseDouble(fields[2]);
  if (!consumption.ok()) return FieldError(line, fields[2], "consumption");
  row.consumption = *consumption;
  const auto temperature = ParseDouble(fields[3]);
  if (!temperature.ok()) return FieldError(line, fields[3], "temperature");
  row.temperature = *temperature;
  return row;
}

Result<ConsumerSeries> ParseHouseholdLine(std::string_view line) {
  // Single pass over the line: no field vector is materialized. A format
  // 2 line holds a whole year (8760 values), so splitting it first would
  // allocate a ~9k-entry vector per household just to throw it away.
  const size_t id_end = simd::FindByte(line, 0, ',');
  if (id_end == std::string_view::npos) {
    return Status::Corruption(
        StringPrintf("household line with no readings (line ends at column "
                     "%zu)",
                     line.size() + 1));
  }
  ConsumerSeries series;
  const auto id = ParseInt64(line.substr(0, id_end));
  if (!id.ok()) {
    return FieldError(line, line.substr(0, id_end), "household id");
  }
  series.household_id = *id;
  // Exact field count (= comma count) in one vector pass before the
  // reserve, so a whole-year line never reallocates mid-parse.
  series.consumption.reserve(simd::CountByte(line, ','));
  size_t pos = id_end + 1;
  for (;;) {
    const size_t comma = simd::FindByte(line, pos, ',');
    const std::string_view field =
        comma == std::string_view::npos ? line.substr(pos)
                                        : line.substr(pos, comma - pos);
    const auto value = ParseDouble(field);
    if (!value.ok()) return FieldError(line, field, "reading");
    series.consumption.push_back(*value);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return series;
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

Status WriteReadingsCsv(const MeterDataset& dataset,
                        const std::string& path) {
  BlockWriter out(path);
  if (!out.ok()) return out.OpenError();
  // Timestamp-major order: hour 0 of every household, then hour 1, ...
  // This is what a metering head-end actually exports, and it is what
  // makes the single big file painful for consumer-at-a-time platforms
  // (Figure 5) and leaves a bulk-loaded row table un-clustered by
  // household (Section 5.3).
  const std::vector<double>& temperature = dataset.temperature();
  for (size_t h = 0; h < dataset.hours(); ++h) {
    for (const ConsumerSeries& c : dataset.consumers()) {
      WriteReading(&out, c.household_id, h, c.consumption[h], temperature[h]);
    }
  }
  return out.Close();
}

Result<std::vector<std::string>> WritePartitionedCsv(
    const MeterDataset& dataset, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create dir " + dir);
  std::vector<std::string> paths;
  paths.reserve(dataset.num_consumers());
  for (const ConsumerSeries& c : dataset.consumers()) {
    std::string path = dir + "/" +
                       std::to_string(c.household_id) + ".csv";
    BlockWriter out(path);
    if (!out.ok()) return out.OpenError();
    WriteConsumerReadings(&out, c, dataset.temperature());
    SM_RETURN_IF_ERROR(out.Close());
    paths.push_back(std::move(path));
  }
  return paths;
}

Result<std::vector<std::string>> WriteWholeHouseholdFiles(
    const MeterDataset& dataset, const std::string& dir, int num_files) {
  if (num_files < 1) {
    return Status::InvalidArgument("num_files must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create dir " + dir);

  const int files =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(num_files),
                                        dataset.num_consumers()));
  // Write one file at a time (a Figure 18 sweep can ask for thousands of
  // files, far beyond the open-descriptor limit). Household i goes to
  // file i % files, so gather each file's households first.
  std::vector<std::string> paths;
  paths.reserve(static_cast<size_t>(files));
  for (int file_idx = 0; file_idx < files; ++file_idx) {
    std::string path = dir + "/part-" + std::to_string(file_idx) + ".csv";
    BlockWriter out(path);
    if (!out.ok()) return out.OpenError();
    for (size_t i = static_cast<size_t>(file_idx);
         i < dataset.num_consumers(); i += static_cast<size_t>(files)) {
      WriteConsumerReadings(&out, dataset.consumer(i), dataset.temperature());
    }
    SM_RETURN_IF_ERROR(out.Close());
    paths.push_back(std::move(path));
  }
  return paths;
}

Status WriteHouseholdLinesCsv(const MeterDataset& dataset,
                              const std::string& path) {
  {
    BlockWriter out(path);
    if (!out.ok()) return out.OpenError();
    for (const ConsumerSeries& c : dataset.consumers()) {
      out.Int(c.household_id);
      for (double v : c.consumption) {
        out.Char(',');
        out.Fixed(v, 4);
      }
      out.Char('\n');
    }
    SM_RETURN_IF_ERROR(out.Close());
  }
  BlockWriter temp_out(path + ".temperature");
  if (!temp_out.ok()) return temp_out.OpenError();
  for (double t : dataset.temperature()) {
    temp_out.Fixed(t, 2);
    temp_out.Char('\n');
  }
  return temp_out.Close();
}

// ---------------------------------------------------------------------------
// LineReader
// ---------------------------------------------------------------------------

LineReader::LineReader(std::string path)
    : path_(std::move(path)),
      offset_(0),
      limit_(std::numeric_limits<int64_t>::max()) {}

LineReader::LineReader(std::string path, int64_t offset, int64_t length)
    : path_(std::move(path)), offset_(offset), limit_(offset + length) {}

LineReader::~LineReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status LineReader::Open() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    return Status::IOError("cannot open for reading: " + path_);
  }
  buffer_.clear();
  buffer_base_ = offset_;
  buffer_pos_ = 0;
  eof_ = false;
  done_ = false;
  skip_partial_ = offset_ > 0;
  line_offset_ = 0;
  line_number_ = 0;
  status_ = Status::OK();
  return Status::OK();
}

bool LineReader::Next(std::string_view* line) {
  if (fd_ < 0) return false;
  for (;;) {
    if (done_) return false;
    const int64_t start = buffer_base_ + static_cast<int64_t>(buffer_pos_);
    if (!skip_partial_ && start > limit_) {
      done_ = true;
      return false;
    }
    // Slice the next line out of the block buffer; refill in 64 KiB
    // reads while no newline is buffered. A line longer than one block
    // just keeps accumulating.
    size_t newline = simd::FindByte(buffer_, buffer_pos_, '\n');
    while (newline == std::string_view::npos && !eof_) {
      buffer_.erase(0, buffer_pos_);
      buffer_base_ += static_cast<int64_t>(buffer_pos_);
      buffer_pos_ = 0;
      const size_t scan_from = buffer_.size();
      buffer_.resize(scan_from + kCsvBlock);
      const ssize_t got =
          ReadAt(fd_, buffer_.data() + scan_from, kCsvBlock,
                 buffer_base_ + static_cast<int64_t>(scan_from));
      if (got < 0) {
        status_ = ReadError(path_);
        done_ = true;
        return false;
      }
      buffer_.resize(scan_from + static_cast<size_t>(got));
      if (got == 0) {
        eof_ = true;
        break;
      }
      // The buffered bytes before scan_from held no newline, so the
      // rescan only covers the fresh ones.
      newline = simd::FindByte(buffer_, scan_from, '\n');
    }
    const std::string_view buffered(buffer_);
    std::string_view raw;
    if (newline != std::string_view::npos) {
      raw = buffered.substr(buffer_pos_, newline - buffer_pos_);
      buffer_pos_ = newline + 1;
    } else {
      // EOF with an unterminated final line (or nothing left at all).
      if (buffer_pos_ >= buffer_.size()) {
        done_ = true;
        return false;
      }
      raw = buffered.substr(buffer_pos_);
      buffer_pos_ = buffer_.size();
    }
    if (skip_partial_) {
      // The previous range owns the line this range starts inside.
      skip_partial_ = false;
      continue;
    }
    ++line_number_;
    const std::string_view trimmed = TrimWhitespace(raw);
    if (trimmed.empty()) continue;
    line_offset_ = start + (trimmed.data() - raw.data());
    *line = trimmed;
    return true;
  }
}

Result<size_t> LineReader::CountLines() const {
  if (fd_ < 0) return Status::Internal("line reader not open: " + path_);
  struct stat st;
  if (::fstat(fd_, &st) != 0) return ReadError(path_);
  const int64_t size = static_cast<int64_t>(st.st_size);
  const int64_t end = std::min(size, limit_);
  // A line starts at byte 0 and after every newline but the file's last
  // byte; the range owns the starts in (offset, offset + length], i.e.
  // the newlines in [offset, offset + length).
  size_t lines = offset_ == 0 && size > 0 ? 1 : 0;
  std::string block(kCsvBlock, '\0');
  for (int64_t pos = offset_; pos < end;) {
    const size_t want =
        static_cast<size_t>(std::min<int64_t>(end - pos, kCsvBlock));
    const ssize_t got = ReadAt(fd_, block.data(), want, pos);
    if (got < 0) return ReadError(path_);
    if (got == 0) break;
    const std::string_view bytes(block.data(), static_cast<size_t>(got));
    lines += simd::CountByte(bytes, '\n');
    pos += got;
    if (pos == size && bytes.back() == '\n') --lines;
  }
  return lines;
}

Status LineReader::Annotate(const Status& status) const {
  const std::string where =
      offset_ == 0 ? StringPrintf("%s:%zu", path_.c_str(), line_number_)
                   : path_;
  return Status(status.code(),
                StringPrintf("%s (byte %lld): %s", where.c_str(),
                             static_cast<long long>(line_offset_),
                             status.message().c_str()));
}

// ---------------------------------------------------------------------------
// ReadingCsvReader
// ---------------------------------------------------------------------------

ReadingCsvReader::ReadingCsvReader(std::string path)
    : lines_(std::move(path)) {}

ReadingCsvReader::ReadingCsvReader(std::string path, int64_t offset,
                                   int64_t length)
    : lines_(std::move(path), offset, length) {}

ReadingCsvReader::~ReadingCsvReader() {
  static obs::Counter* rows_scanned =
      obs::MetricsRegistry::Global().GetCounter("csv.rows_scanned");
  rows_scanned->Add(rows_);
}

Status ReadingCsvReader::Open() {
  status_ = Status::OK();
  return lines_.Open();
}

bool ReadingCsvReader::Next(ReadingRow* row) {
  if (!status_.ok()) return false;
  std::string_view line;
  if (!lines_.Next(&line)) {
    status_ = lines_.status();
    return false;
  }
  Result<ReadingRow> parsed = ParseReadingRow(line);
  if (!parsed.ok()) {
    status_ = lines_.Annotate(parsed.status());
    return false;
  }
  *row = *parsed;
  ++rows_;
  return true;
}

// ---------------------------------------------------------------------------
// Dense assembly and the loaders
// ---------------------------------------------------------------------------

ReadingAssembler::Household& ReadingAssembler::Slot(int64_t household_id) {
  if (!households_.empty()) {
    if (households_[last_slot_].id == household_id) {
      return households_[last_slot_];
    }
    const size_t next =
        last_slot_ + 1 == households_.size() ? 0 : last_slot_ + 1;
    if (households_[next].id == household_id) {
      last_slot_ = next;
      return households_[next];
    }
  }
  const auto [it, inserted] =
      slot_of_.try_emplace(household_id, households_.size());
  if (inserted) households_.push_back({household_id, {}, {}});
  last_slot_ = it->second;
  return households_[last_slot_];
}

void ReadingAssembler::Add(const ReadingRow& row) {
  Household& household = Slot(row.household_id);
  if (household.parked.empty() && row.hour >= 0 &&
      static_cast<size_t>(row.hour) == household.consumption.size()) {
    household.consumption.push_back(row.consumption);
  } else {
    household.parked.emplace_back(row.hour, row.consumption);
  }
  if (row.hour >= 0 && static_cast<size_t>(row.hour) < temperature_.size()) {
    return;  // Seen before: the first temperature wins.
  }
  if (row.hour >= 0 && static_cast<size_t>(row.hour) == temperature_.size()) {
    const auto parked = parked_temperature_.find(row.hour);
    if (parked == parked_temperature_.end()) {
      temperature_.push_back(row.temperature);
    } else {
      temperature_.push_back(parked->second);
      parked_temperature_.erase(parked);
    }
    return;
  }
  parked_temperature_.emplace(row.hour, row.temperature);
}

Result<MeterDataset> ReadingAssembler::Finish() {
  if (households_.empty()) {
    return Status::InvalidArgument("CSV contained no readings");
  }
  // Hours must be dense from 0: pull in parked hours that continue the
  // prefix; any left over sit past a gap.
  for (;;) {
    const auto it =
        parked_temperature_.find(static_cast<int32_t>(temperature_.size()));
    if (it == parked_temperature_.end()) break;
    temperature_.push_back(it->second);
    parked_temperature_.erase(it);
  }
  if (!parked_temperature_.empty()) {
    int32_t first = std::numeric_limits<int32_t>::max();
    for (const auto& [hour, value] : parked_temperature_) {
      first = std::min(first, hour);
    }
    return Status::Corruption(
        StringPrintf("temperature hours not dense at %d", first));
  }
  std::sort(households_.begin(), households_.end(),
            [](const Household& a, const Household& b) {
              return a.id < b.id;
            });
  MeterDataset dataset;
  const size_t hours = temperature_.size();
  temperature_.shrink_to_fit();
  dataset.SetTemperature(std::move(temperature_));
  for (Household& household : households_) {
    if (!household.parked.empty()) {
      // Out-of-order arrivals: merge with the in-order prefix, sort, and
      // require the hours to run 0, 1, 2, ... with no gap or duplicate.
      std::vector<std::pair<int32_t, double>> readings;
      readings.reserve(household.consumption.size() +
                       household.parked.size());
      for (size_t h = 0; h < household.consumption.size(); ++h) {
        readings.emplace_back(static_cast<int32_t>(h),
                              household.consumption[h]);
      }
      readings.insert(readings.end(), household.parked.begin(),
                      household.parked.end());
      household.parked = {};
      std::sort(readings.begin(), readings.end());
      household.consumption.clear();
      int32_t expect_hour = 0;
      for (const auto& [hour, value] : readings) {
        if (hour != expect_hour) {
          return Status::Corruption(StringPrintf(
              "household %lld: hour %d out of sequence (expected %d)",
              static_cast<long long>(household.id), hour, expect_hour));
        }
        household.consumption.push_back(value);
        ++expect_hour;
      }
    }
    if (household.consumption.size() != hours) {
      return Status::Corruption(StringPrintf(
          "household %lld has %zu hours, expected %zu",
          static_cast<long long>(household.id), household.consumption.size(),
          hours));
    }
    household.consumption.shrink_to_fit();
    dataset.AddConsumer({household.id, std::move(household.consumption)});
  }
  SM_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Result<MeterDataset> ReadReadingsCsv(const std::string& path) {
  return ReadReadingsCsvFiles({path});
}

Result<MeterDataset> ReadReadingsCsvFiles(
    const std::vector<std::string>& paths) {
  ReadingAssembler assembler;
  for (const std::string& path : paths) {
    ReadingCsvReader reader(path);
    SM_RETURN_IF_ERROR(reader.Open());
    ReadingRow row;
    while (reader.Next(&row)) assembler.Add(row);
    SM_RETURN_IF_ERROR(reader.status());
  }
  return assembler.Finish();
}

Result<MeterDataset> AssembleReadingRows(std::span<const ReadingRow> rows) {
  ReadingAssembler assembler;
  for (const ReadingRow& row : rows) assembler.Add(row);
  return assembler.Finish();
}

Result<MeterDataset> ReadPartitionedCsv(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return Status::IOError("cannot list dir " + dir);
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".csv") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return ReadReadingsCsvFiles(paths);
}

Result<MeterDataset> ReadHouseholdLinesCsv(const std::string& path) {
  LineReader lines(path);
  SM_RETURN_IF_ERROR(lines.Open());
  SM_ASSIGN_OR_RETURN(std::vector<double> temperature,
                      ReadTemperatureSidecar(path + ".temperature"));
  MeterDataset dataset;
  dataset.SetTemperature(std::move(temperature));
  std::string_view line;
  while (lines.Next(&line)) {
    Result<ConsumerSeries> series = ParseHouseholdLine(line);
    if (!series.ok()) return lines.Annotate(series.status());
    if (series->consumption.size() != dataset.hours()) {
      return lines.Annotate(Status::Corruption(StringPrintf(
          "household %lld has %zu readings, the temperature sidecar has %zu",
          static_cast<long long>(series->household_id),
          series->consumption.size(), dataset.hours())));
    }
    dataset.AddConsumer(std::move(*series));
  }
  SM_RETURN_IF_ERROR(lines.status());
  SM_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Result<std::vector<double>> ReadTemperatureSidecar(const std::string& path) {
  LineReader lines(path);
  if (!lines.Open().ok()) {
    return Status::IOError("missing temperature sidecar " + path);
  }
  std::vector<double> values;
  std::string_view line;
  while (lines.Next(&line)) {
    const auto value = ParseDouble(line);
    if (!value.ok()) {
      return lines.Annotate(FieldError(line, line, "temperature"));
    }
    values.push_back(*value);
  }
  SM_RETURN_IF_ERROR(lines.status());
  return values;
}

}  // namespace smartmeter::storage
