#include "engines/cluster_task_util.h"

#include <algorithm>

#include "obs/metrics.h"

namespace smartmeter::engines::internal {

void CountPrunedClusterBlocks(size_t total_blocks, size_t kept_blocks) {
  static obs::Counter* pruned =
      obs::MetricsRegistry::Global().GetCounter("table.scan.blocks_pruned");
  if (total_blocks > kept_blocks) {
    pruned->Add(static_cast<int64_t>(total_blocks - kept_blocks));
  }
}

void AssembleSeries(std::vector<HourRecord>* records,
                    std::vector<double>* consumption,
                    std::vector<double>* temperature) {
  std::sort(records->begin(), records->end(),
            [](const HourRecord& a, const HourRecord& b) {
              return a.hour < b.hour;
            });
  consumption->clear();
  temperature->clear();
  consumption->reserve(records->size());
  temperature->reserve(records->size());
  for (const HourRecord& r : *records) {
    consumption->push_back(r.consumption);
    temperature->push_back(r.temperature);
  }
}

}  // namespace smartmeter::engines::internal
