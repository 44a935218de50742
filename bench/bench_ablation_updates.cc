// Ablation (ours, the paper's Section 3 open question): what does it
// cost each storage architecture to absorb one new day of readings?
// "Read-optimized data structures that help improve running time may be
// expensive to update" -- this bench quantifies that trade:
//   * per-consumer CSV files (Matlab layout): append 24 lines per file;
//   * heap-file row store + B+-tree (MADLib layout): tuple appends into
//     the tail page, WAL included;
//   * SMCOLV2 column file (System C layout): the household-major
//     compressed image cannot be appended in place -- rebuild the file.
#include <cstdio>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "storage/column_store.h"
#include "storage/csv.h"
#include "storage/row_store.h"
#include "table/table_reader.h"
#include "timeseries/calendar.h"

namespace {

using namespace smartmeter;         // NOLINT
using namespace smartmeter::bench;  // NOLINT

int Run(BenchContext& ctx) {
  const int households =
      static_cast<int>(ctx.flags().GetInt("households", 150));
  PrintHeader(
      "Ablation: cost of appending one day of new readings",
      StringPrintf("%d households with a year loaded; appending 24 new "
                   "hourly readings each (%d rows)",
                   households, households * kHoursPerDay));

  auto dataset = ctx.GetDataset(households);
  if (!dataset.ok()) return 1;
  // The "new day": replay day 0 shifted to the next hour indexes.
  const int base_hour = static_cast<int>((*dataset)->hours());

  PrintRow({"storage (platform)", "append day (s)",
            "per reading (microsec)", "note"});
  PrintDivider(4);

  // --- Per-consumer CSV files (Matlab). ---------------------------------
  {
    // A private copy: appending to the shared bench cache would corrupt
    // other figures' inputs.
    auto files = storage::WritePartitionedCsv(
        **dataset, ctx.workdir() + "/updates_part");
    if (!files.ok()) return 1;
    Stopwatch clock;
    for (int i = 0; i < households; ++i) {
      FILE* f = std::fopen((*files)[static_cast<size_t>(i)].c_str(), "a");
      if (f == nullptr) return 1;
      const auto& c = (*dataset)->consumer(static_cast<size_t>(i));
      for (int h = 0; h < kHoursPerDay; ++h) {
        std::fprintf(f, "%lld,%d,%.4f,%.2f\n",
                     static_cast<long long>(c.household_id),
                     base_hour + h,
                     c.consumption[static_cast<size_t>(h)],
                     (*dataset)->temperature()[static_cast<size_t>(h)]);
      }
      std::fclose(f);
    }
    const double seconds = clock.ElapsedSeconds();
    PrintRow({"per-consumer CSV (matlab)", Cell(seconds),
              Cell(seconds * 1e6 / (households * kHoursPerDay)),
              "append 24 lines per file"});
  }

  // --- Heap-file row store (MADLib). -------------------------------------
  {
    storage::RowStore store;
    if (!store.LoadFromDataset(**dataset, /*interleave=*/true).ok()) {
      return 1;
    }
    Stopwatch clock;
    if (!store.ReopenForAppend().ok()) return 1;
    for (int h = 0; h < kHoursPerDay; ++h) {
      for (int i = 0; i < households; ++i) {
        const auto& c = (*dataset)->consumer(static_cast<size_t>(i));
        if (!store
                 .Append({c.household_id, base_hour + h,
                          c.consumption[static_cast<size_t>(h)],
                          (*dataset)->temperature()[static_cast<size_t>(
                              h)]})
                 .ok()) {
          return 1;
        }
      }
    }
    if (!store.FinishLoad().ok()) return 1;
    const double seconds = clock.ElapsedSeconds();
    PrintRow({"heap row store (madlib)", Cell(seconds),
              Cell(seconds * 1e6 / (households * kHoursPerDay)),
              "tail-page appends + WAL + index"});
  }

  // --- Column store (System C). -------------------------------------------
  {
    const std::string image = ctx.workdir() + "/updates.smcol";
    if (!storage::ColumnFileWriter::WriteFile(**dataset, image).ok()) return 1;
    // The update: extend every household's segment by one day. The
    // household-major layout leaves no room in place, so the engine
    // rebuilds the image from the merged data.
    MeterDataset merged = **dataset;
    std::vector<double> temp = merged.temperature();
    for (int h = 0; h < kHoursPerDay; ++h) {
      temp.push_back(temp[static_cast<size_t>(h)]);
    }
    Stopwatch clock;
    merged.SetTemperature(std::move(temp));
    for (auto& c : *merged.mutable_consumers()) {
      for (int h = 0; h < kHoursPerDay; ++h) {
        c.consumption.push_back(c.consumption[static_cast<size_t>(h)]);
      }
    }
    if (!storage::ColumnFileWriter::WriteFile(merged, image).ok()) return 1;
    table::ColumnFileReader reopened(image);
    if (!reopened.Open().ok()) return 1;
    const double seconds = clock.ElapsedSeconds();
    PrintRow({"column store (system-c)", Cell(seconds),
              Cell(seconds * 1e6 / (households * kHoursPerDay)),
              "full image rebuild + reopen"});
  }

  std::printf(
      "\nExpected: the read-optimized column store pays far more per new "
      "reading than the row store's tail-page\nappends -- and its rebuild "
      "is O(table), so the gap widens with data size (try --households). "
      "This is the\ntrade-off the paper flags when excluding updates from "
      "v1 of the benchmark.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_scale=*/80.0);
  return Run(ctx);
}
