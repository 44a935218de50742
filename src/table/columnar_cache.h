#ifndef SMARTMETER_TABLE_COLUMNAR_CACHE_H_
#define SMARTMETER_TABLE_COLUMNAR_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "table/data_source.h"
#include "table/table_reader.h"

namespace smartmeter::table {

/// Binary columnar cache: parse any text DataSource once, persist the
/// result as an SMCOLV2 column file (the same format System C's native
/// store uses), and serve every later scan from the reader that maps it
/// and decodes it once. This gives all five engines one shared cold→warm
/// story — the Figure 6 distinction — instead of five private re-parsers.
///
/// Cache files live under `cache_dir` as "<key>.smcol" where the key is
/// an FNV-1a hash over the source's layout and every file's path, byte
/// size, and mtime. Touching or rewriting any input file changes the
/// key, so a stale entry is simply never looked up again; dead entries
/// are reclaimed by the byte-budget sweep below.
///
/// When `options.byte_budget` is positive the directory is bounded:
/// after each miss installs a new entry, least-recently-used cache files
/// (by mtime — hits re-touch their entry) are evicted until the
/// directory fits the budget again. The just-installed entry is never
/// evicted, even when it alone exceeds the budget.
///
/// Observability: every OpenOrBuild() bumps "table.cache.hits" or
/// "table.cache.misses"; each evicted file bumps "table.cache.evictions".
class ColumnarCache {
 public:
  struct Options {
    /// Maximum total bytes of cache files kept in `cache_dir`;
    /// 0 = unbounded.
    int64_t byte_budget = 0;
  };

  explicit ColumnarCache(std::string cache_dir);
  ColumnarCache(std::string cache_dir, Options options);

  /// The cache file a source maps to (stats every input file).
  Result<std::string> CacheFilePath(const DataSource& source) const;

  /// Hit: open the existing cache file — no parsing. Miss: parse the
  /// source through the text reader, write the column file (atomically,
  /// via a temp file + rename), then open it. Either way the returned
  /// reader is already open and serves contiguous zero-copy batches.
  Result<std::unique_ptr<TableReader>> OpenOrBuild(const DataSource& source);

  /// Key hash, exposed for tests: FNV-1a over layout + file identities.
  uint64_t KeyFor(const DataSource& source, uint64_t seed) const;

  const std::string& cache_dir() const { return cache_dir_; }
  const Options& options() const { return options_; }

 private:
  /// Evicts least-recently-used ".smcol" files until the directory fits
  /// the byte budget; `keep` is never evicted.
  void EnforceBudget(const std::string& keep);

  std::string cache_dir_;
  Options options_;
};

}  // namespace smartmeter::table

#endif  // SMARTMETER_TABLE_COLUMNAR_CACHE_H_
