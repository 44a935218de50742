#ifndef SMARTMETER_ENGINES_CLUSTER_TASK_UTIL_H_
#define SMARTMETER_ENGINES_CLUSTER_TASK_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smartmeter::engines::internal {

/// One reading as shuffled by the cluster engines' row-format plans:
/// hour + consumption + temperature keyed by household id.
struct HourRecord {
  int32_t hour;
  double consumption;
  double temperature;
};

/// Sorts records by hour and splits them into aligned consumption /
/// temperature arrays; the reduce-side assembly step of the row-format
/// plans.
void AssembleSeries(std::vector<HourRecord>* records,
                    std::vector<double>* consumption,
                    std::vector<double>* temperature);

/// Records driver-side columnar block pruning (blocks whose household
/// range missed a scoped scan, so no task was ever created for them) in
/// the `table.scan.blocks_pruned` counter the single-node reader also
/// feeds.
void CountPrunedClusterBlocks(size_t total_blocks, size_t kept_blocks);

}  // namespace smartmeter::engines::internal

#endif  // SMARTMETER_ENGINES_CLUSTER_TASK_UTIL_H_
