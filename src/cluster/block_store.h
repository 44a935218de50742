#ifndef SMARTMETER_CLUSTER_BLOCK_STORE_H_
#define SMARTMETER_CLUSTER_BLOCK_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/scan_scope.h"

namespace smartmeter::cluster {

/// One unit of map-task input: a byte range of a file. Text readers align
/// it to lines with TextInputFormat's rule (storage::LineReader).
struct InputSplit {
  std::string path;
  int64_t offset = 0;  // First byte this split may consider.
  int64_t length = 0;  // Bytes from offset this split owns.
  /// Node that stores the primary replica (for locality accounting).
  int home_node = 0;
  /// True when this split opens the file (charged the open penalty).
  bool opens_file = true;
};

/// One registered block of an SMCOLV2 column file: a
/// row-disjoint household range plus its modeled on-disk bytes. The
/// registrar (who has the file open) derives these from the format's
/// block index; the block store only places and prunes them.
struct ColumnarBlock {
  int64_t bytes = 0;     // Modeled encoded bytes this block occupies.
  size_t row_begin = 0;  // First household row the block covers.
  size_t row_end = 0;    // One past the last covered household row.
};

/// One unit of columnar map-task input: the placed InputSplit (its
/// `offset` is the block ordinal within the file, not a byte offset)
/// plus the household row range the task must decode.
struct ColumnarSplit {
  InputSplit split;
  size_t block_index = 0;
  size_t row_begin = 0;
  size_t row_end = 0;
};

/// An HDFS-like view over local files: files are registered, divided into
/// fixed-size blocks, and blocks are placed on nodes round-robin. The
/// execution frameworks ask it for input splits.
class BlockStore {
 public:
  /// `block_bytes` models the HDFS block size (the paper's cluster would
  /// use 64-128 MB; benches use smaller blocks so scaled-down data still
  /// produces multi-task jobs).
  BlockStore(int num_nodes, int64_t block_bytes);

  /// Registers a file; it is logically divided into ceil(size/block)
  /// blocks placed round-robin starting at a hash of the name.
  Status AddFile(const std::string& path);

  Status AddFiles(const std::vector<std::string>& paths);

  /// Splits for a splittable text file format (cluster data formats 1
  /// and 2): one split per block, line-aligned at read time.
  std::vector<InputSplit> SplittableSplits() const;

  /// Splits for the non-splittable format (format 3, the paper's
  /// isSplitable() == false input format): one split per whole file.
  std::vector<InputSplit> WholeFileSplits() const;

  /// Registers a columnar file whose block layout the caller derived
  /// from the format's own index (so HDFS "blocks" align with the
  /// format's compression blocks, not an arbitrary byte grid). Blocks
  /// are placed round-robin like AddFile's.
  Status AddColumnarFile(const std::string& path,
                         std::vector<ColumnarBlock> blocks);

  /// Splits over the registered columnar blocks, one per block. When
  /// `scope` is non-null, blocks whose household range misses the
  /// scope's rows are pruned before any task is created — the cluster
  /// twin of the single-node reader's block-index pruning.
  std::vector<ColumnarSplit> ColumnarSplits(
      const storage::ScanScope* scope) const;

  /// Registered columnar blocks across all columnar files.
  size_t num_columnar_blocks() const;

  int64_t total_bytes() const { return total_bytes_; }
  size_t num_files() const { return files_.size() + columnar_files_.size(); }
  int num_nodes() const { return num_nodes_; }

 private:
  struct FileEntry {
    std::string path;
    int64_t size = 0;
    int first_node = 0;
  };
  struct ColumnarFileEntry {
    std::string path;
    int first_node = 0;
    std::vector<ColumnarBlock> blocks;
  };

  int num_nodes_;
  int64_t block_bytes_;
  int64_t total_bytes_ = 0;
  int next_node_ = 0;
  std::vector<FileEntry> files_;
  std::vector<ColumnarFileEntry> columnar_files_;
};

}  // namespace smartmeter::cluster

#endif  // SMARTMETER_CLUSTER_BLOCK_STORE_H_
