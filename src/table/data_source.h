#ifndef SMARTMETER_TABLE_DATA_SOURCE_H_
#define SMARTMETER_TABLE_DATA_SOURCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace smartmeter::table {

/// Where a table's input data lives on disk.
///
/// Prefer the validated named constructors (SingleCsv, PartitionedDir,
/// HouseholdLines, WholeFileDir): they check each layout's invariants —
/// file existence, file-count rules, the temperature sidecar, a common
/// parent directory — once at construction, so neither the engines nor
/// the serving layer discover a malformed source halfway into Attach.
struct DataSource {
  enum class Layout {
    kSingleCsv,        // One reading-per-line CSV file.
    kPartitionedDir,   // One CSV file per household (single-server "part.").
    kHouseholdLines,   // One household per line + temperature sidecar.
    kWholeFileDir,     // Many reading-per-line files, households not split.
    kColumnFile,       // One binary SMCOLV2 column file.
  };
  Layout layout = Layout::kSingleCsv;
  /// The file (kSingleCsv / kHouseholdLines) or every file of the
  /// directory layouts.
  std::vector<std::string> files;

  /// One reading-per-line CSV. Fails unless `path` is a regular file.
  static Result<DataSource> SingleCsv(std::string path);

  /// One CSV per household, all in the same directory (System C derives
  /// the partition directory from the first file). Fails on an empty
  /// list, a missing file, or files spread across directories.
  static Result<DataSource> PartitionedDir(std::vector<std::string> files);

  /// Directory form: uses every regular file inside `dir`, sorted.
  static Result<DataSource> PartitionedDir(const std::string& dir);

  /// One household per line. Fails unless both `path` and its
  /// "<path>.temperature" sidecar exist (the cluster engines broadcast
  /// the sidecar; checking here beats failing mid-job).
  static Result<DataSource> HouseholdLines(std::string path);

  /// Many reading-per-line files, households not aligned to files.
  static Result<DataSource> WholeFileDir(std::vector<std::string> files);

  /// One binary SMCOLV2 column file. Fails unless `path` is a regular
  /// file; readers refuse any other format with Corruption.
  static Result<DataSource> ColumnFile(std::string path);

  /// Re-checks this source's invariants; the named constructors call it,
  /// and engines call it again in Attach so hand-aggregated sources get
  /// the same screening.
  Status Validate() const;
};

std::string_view DataSourceLayoutName(DataSource::Layout layout);

}  // namespace smartmeter::table

#endif  // SMARTMETER_TABLE_DATA_SOURCE_H_
