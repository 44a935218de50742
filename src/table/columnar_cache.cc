#include "table/columnar_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/column_store.h"

namespace smartmeter::table {

namespace fs = std::filesystem;

namespace {

constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t FnvMixU64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= value & 0xff;
    hash *= kFnvPrime;
    value >>= 8;
  }
  return hash;
}

/// Mixes a bounded content sample — the first and last 4 KiB — into the
/// hash. Filesystem mtimes tick in whole seconds on some systems, so a
/// source rewritten within one tick keeps the same path+size+mtime
/// triple; the sample makes such rewrites produce a different key
/// (unless the edit is confined to the middle of a file that also kept
/// its exact size, which no text regeneration path does).
uint64_t FnvMixFileSample(uint64_t hash, const std::string& path) {
  constexpr size_t kSample = 4096;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return FnvMixU64(hash, 0);
  char head[kSample];
  const size_t head_read = std::fread(head, 1, kSample, f);
  hash = FnvMix(hash, std::string_view(head, head_read));
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long end = std::ftell(f);
    if (end > static_cast<long>(2 * kSample) &&
        std::fseek(f, end - static_cast<long>(kSample), SEEK_SET) == 0) {
      char tail[kSample];
      const size_t tail_read = std::fread(tail, 1, kSample, f);
      hash = FnvMix(hash, std::string_view(tail, tail_read));
    }
  }
  std::fclose(f);
  return hash;
}

}  // namespace

ColumnarCache::ColumnarCache(std::string cache_dir)
    : cache_dir_(std::move(cache_dir)) {}

ColumnarCache::ColumnarCache(std::string cache_dir, Options options)
    : cache_dir_(std::move(cache_dir)), options_(options) {}

uint64_t ColumnarCache::KeyFor(const DataSource& source, uint64_t seed) const {
  uint64_t hash = seed == 0 ? kFnvOffsetBasis : seed;
  hash = FnvMix(hash, DataSourceLayoutName(source.layout));
  for (const std::string& file : source.files) {
    hash = FnvMix(hash, file);
    hash = FnvMixU64(hash, 0);  // Separator between path and identity.
    std::error_code ec;
    const uint64_t size = static_cast<uint64_t>(fs::file_size(file, ec));
    hash = FnvMixU64(hash, ec ? 0 : size);
    const fs::file_time_type mtime = fs::last_write_time(file, ec);
    hash = FnvMixU64(
        hash, ec ? 0
                 : static_cast<uint64_t>(mtime.time_since_epoch().count()));
    hash = FnvMixFileSample(hash, file);
  }
  return hash;
}

Result<std::string> ColumnarCache::CacheFilePath(
    const DataSource& source) const {
  SM_RETURN_IF_ERROR(source.Validate());
  const uint64_t key = KeyFor(source, 0);
  return StringPrintf("%s/%016llx.smcol", cache_dir_.c_str(),
                      static_cast<unsigned long long>(key));
}

Result<std::unique_ptr<TableReader>> ColumnarCache::OpenOrBuild(
    const DataSource& source) {
  static obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("table.cache.hits");
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("table.cache.misses");

  SM_ASSIGN_OR_RETURN(std::string cache_path, CacheFilePath(source));

  std::error_code ec;
  if (!fs::is_regular_file(cache_path, ec)) {
    misses->Increment();
    // Cold path: one parse of the text source, then persist. Write to a
    // temp file and rename so a concurrent reader never maps a torn
    // file and a failed build leaves no entry behind.
    fs::create_directories(cache_dir_, ec);
    if (ec) {
      return Status::IOError(StringPrintf("cannot create cache dir %s: %s",
                                          cache_dir_.c_str(),
                                          ec.message().c_str()));
    }
    SM_ASSIGN_OR_RETURN(MeterDataset dataset, ReadDatasetFromSource(source));
    const std::string tmp_path = cache_path + ".tmp";
    const Status written =
        storage::ColumnFileWriter::WriteFile(dataset, tmp_path);
    if (!written.ok()) {
      fs::remove(tmp_path, ec);
      return written;
    }
    fs::rename(tmp_path, cache_path, ec);
    if (ec) {
      fs::remove(tmp_path, ec);
      return Status::IOError(StringPrintf("cannot install cache file %s: %s",
                                          cache_path.c_str(),
                                          ec.message().c_str()));
    }
    EnforceBudget(cache_path);
  } else {
    hits->Increment();
    // Re-touch the entry so the LRU sweep sees it as recently used.
    fs::last_write_time(cache_path, fs::file_time_type::clock::now(), ec);
  }

  auto reader = std::make_unique<ColumnFileReader>(cache_path);
  SM_RETURN_IF_ERROR(reader->Open());

  static obs::Counter* bytes_on_disk =
      obs::MetricsRegistry::Global().GetCounter("table.cache.bytes_on_disk");
  static obs::Counter* bytes_decoded =
      obs::MetricsRegistry::Global().GetCounter("table.cache.bytes_decoded");
  const uint64_t file_bytes = static_cast<uint64_t>(fs::file_size(
      cache_path, ec));
  bytes_on_disk->Add(ec ? 0 : static_cast<int64_t>(file_bytes));
  bytes_decoded->Add(static_cast<int64_t>(reader->open_stats().bytes_decoded));
  return std::unique_ptr<TableReader>(std::move(reader));
}

void ColumnarCache::EnforceBudget(const std::string& keep) {
  if (options_.byte_budget <= 0) return;
  static obs::Counter* evictions =
      obs::MetricsRegistry::Global().GetCounter("table.cache.evictions");

  struct Entry {
    std::string path;
    fs::file_time_type mtime;
    int64_t bytes = 0;
  };
  std::vector<Entry> entries;
  int64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& item :
       fs::directory_iterator(cache_dir_, ec)) {
    if (!item.is_regular_file(ec)) continue;
    if (item.path().extension() != ".smcol") continue;
    Entry entry;
    entry.path = item.path().string();
    entry.mtime = item.last_write_time(ec);
    if (ec) entry.mtime = fs::file_time_type::min();
    entry.bytes = static_cast<int64_t>(item.file_size(ec));
    if (ec) entry.bytes = 0;
    total += entry.bytes;
    entries.push_back(std::move(entry));
  }
  if (total <= options_.byte_budget) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& entry : entries) {
    if (total <= options_.byte_budget) break;
    if (entry.path == keep) continue;
    if (!fs::remove(entry.path, ec) || ec) continue;
    total -= entry.bytes;
    evictions->Increment();
  }
}

}  // namespace smartmeter::table
