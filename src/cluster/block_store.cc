#include "cluster/block_store.h"

#include <sys/stat.h>

#include <algorithm>

namespace smartmeter::cluster {

BlockStore::BlockStore(int num_nodes, int64_t block_bytes)
    : num_nodes_(num_nodes < 1 ? 1 : num_nodes),
      block_bytes_(block_bytes < 1 ? 1 : block_bytes) {}

Status BlockStore::AddFile(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  FileEntry entry;
  entry.path = path;
  entry.size = static_cast<int64_t>(st.st_size);
  entry.first_node = next_node_;
  // Advance placement round-robin by the number of blocks in this file.
  const int64_t blocks =
      entry.size == 0 ? 1 : (entry.size + block_bytes_ - 1) / block_bytes_;
  next_node_ = static_cast<int>((next_node_ + blocks) % num_nodes_);
  total_bytes_ += entry.size;
  files_.push_back(std::move(entry));
  return Status::OK();
}

Status BlockStore::AddFiles(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    SM_RETURN_IF_ERROR(AddFile(path));
  }
  return Status::OK();
}

std::vector<InputSplit> BlockStore::SplittableSplits() const {
  std::vector<InputSplit> splits;
  for (const FileEntry& file : files_) {
    int64_t offset = 0;
    int block = 0;
    while (offset < file.size || (file.size == 0 && block == 0)) {
      InputSplit split;
      split.path = file.path;
      split.offset = offset;
      split.length = std::min(block_bytes_, file.size - offset);
      split.home_node = (file.first_node + block) % num_nodes_;
      split.opens_file = (block == 0);
      splits.push_back(std::move(split));
      offset += block_bytes_;
      ++block;
    }
  }
  return splits;
}

Status BlockStore::AddColumnarFile(const std::string& path,
                                   std::vector<ColumnarBlock> blocks) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].row_end < blocks[i].row_begin ||
        (i > 0 && blocks[i].row_begin != blocks[i - 1].row_end)) {
      return Status::InvalidArgument(
          "columnar blocks must cover disjoint, contiguous row ranges");
    }
  }
  ColumnarFileEntry entry;
  entry.path = path;
  entry.first_node = next_node_;
  entry.blocks = std::move(blocks);
  const int64_t placed =
      entry.blocks.empty() ? 1 : static_cast<int64_t>(entry.blocks.size());
  next_node_ = static_cast<int>((next_node_ + placed) % num_nodes_);
  total_bytes_ += static_cast<int64_t>(st.st_size);
  columnar_files_.push_back(std::move(entry));
  return Status::OK();
}

std::vector<ColumnarSplit> BlockStore::ColumnarSplits(
    const storage::ScanScope* scope) const {
  std::vector<ColumnarSplit> splits;
  const bool scoped = scope != nullptr && !scope->whole_rows();
  for (const ColumnarFileEntry& file : columnar_files_) {
    bool first_kept = true;
    for (size_t i = 0; i < file.blocks.size(); ++i) {
      const ColumnarBlock& block = file.blocks[i];
      size_t row_begin = block.row_begin;
      size_t row_end = block.row_end;
      if (scoped) {
        // Prune against the unclamped scope range: a block is kept only
        // when [row_begin, row_end) intersects the scoped rows (count 0
        // means "through the last row"), and a kept block's task decodes
        // only the intersection, so scoped cluster runs produce exactly
        // the rows a scoped single-node decode would.
        const size_t begin = scope->row_begin;
        if (row_end <= begin) continue;
        if (scope->row_count != 0 && row_begin >= begin + scope->row_count) {
          continue;
        }
        row_begin = std::max(row_begin, begin);
        if (scope->row_count != 0) {
          row_end = std::min(row_end, begin + scope->row_count);
        }
      }
      ColumnarSplit columnar;
      columnar.split.path = file.path;
      columnar.split.offset = static_cast<int64_t>(i);
      columnar.split.length = block.bytes;
      columnar.split.home_node =
          static_cast<int>((file.first_node + i) % num_nodes_);
      columnar.split.opens_file = first_kept;
      columnar.block_index = i;
      columnar.row_begin = row_begin;
      columnar.row_end = row_end;
      splits.push_back(std::move(columnar));
      first_kept = false;
    }
  }
  return splits;
}

size_t BlockStore::num_columnar_blocks() const {
  size_t total = 0;
  for (const ColumnarFileEntry& file : columnar_files_) {
    total += file.blocks.size();
  }
  return total;
}

std::vector<InputSplit> BlockStore::WholeFileSplits() const {
  std::vector<InputSplit> splits;
  splits.reserve(files_.size());
  for (const FileEntry& file : files_) {
    InputSplit split;
    split.path = file.path;
    split.offset = 0;
    split.length = file.size;
    split.home_node = file.first_node;
    split.opens_file = true;
    splits.push_back(std::move(split));
  }
  return splits;
}

}  // namespace smartmeter::cluster
