#include "storage/row_store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/string_util.h"

namespace smartmeter::storage {

namespace {

std::string UniqueHeapPath() {
  static std::atomic<int> counter{0};
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / StringPrintf("smartmeter_rowstore_%d_%d.heap", getpid(),
                             counter.fetch_add(1)))
      .string();
}

}  // namespace

RowStore::RowStore(std::string heap_path)
    : heap_path_(heap_path.empty() ? UniqueHeapPath()
                                   : std::move(heap_path)) {}

RowStore::~RowStore() {
  heap_.reset();
  std::error_code ec;
  std::filesystem::remove(heap_path_, ec);
  std::filesystem::remove(heap_path_ + ".wal", ec);
}

RowStore::RowStore(RowStore&&) noexcept = default;
RowStore& RowStore::operator=(RowStore&&) noexcept = default;

Status RowStore::EnsureHeap() {
  if (heap_ == nullptr) {
    heap_ = std::make_unique<HeapFile>(heap_path_);
    SM_RETURN_IF_ERROR(heap_->Create());
    load_finished_ = false;
  }
  return Status::OK();
}

Status RowStore::Append(const Row& row) {
  if (load_finished_) {
    return Status::InvalidArgument("row store already finished loading");
  }
  SM_RETURN_IF_ERROR(EnsureHeap());
  Result<uint64_t> slot = index_.Lookup(row.household_id);
  size_t postings_slot;
  if (slot.ok()) {
    postings_slot = static_cast<size_t>(*slot);
  } else {
    postings_slot = postings_.size();
    postings_.emplace_back();
    SM_RETURN_IF_ERROR(
        index_.Insert(row.household_id, static_cast<uint64_t>(postings_slot)));
  }
  SM_ASSIGN_OR_RETURN(
      uint64_t row_id,
      heap_->Append({row.household_id, row.hour, row.consumption,
                     row.temperature}));
  postings_[postings_slot].push_back(row_id);
  return Status::OK();
}

Status RowStore::FinishLoad() {
  if (load_finished_) return Status::OK();
  SM_RETURN_IF_ERROR(EnsureHeap());  // An empty store still finalizes.
  SM_RETURN_IF_ERROR(heap_->FinishLoad());
  load_finished_ = true;
  return Status::OK();
}

Status RowStore::ReopenForAppend() {
  if (!load_finished_) return Status::OK();  // Already appendable.
  SM_RETURN_IF_ERROR(heap_->ReopenForAppend());
  load_finished_ = false;
  return Status::OK();
}

Status RowStore::LoadFromDataset(const MeterDataset& dataset,
                                 bool interleave) {
  SM_RETURN_IF_ERROR(dataset.Validate());
  const auto& temperature = dataset.temperature();
  if (interleave) {
    // Hour-major order: all households' hour 0, then hour 1, ...
    for (size_t h = 0; h < dataset.hours(); ++h) {
      for (const ConsumerSeries& c : dataset.consumers()) {
        SM_RETURN_IF_ERROR(Append({c.household_id, static_cast<int32_t>(h),
                                   c.consumption[h], temperature[h]}));
      }
    }
  } else {
    for (const ConsumerSeries& c : dataset.consumers()) {
      for (size_t h = 0; h < dataset.hours(); ++h) {
        SM_RETURN_IF_ERROR(Append({c.household_id, static_cast<int32_t>(h),
                                   c.consumption[h], temperature[h]}));
      }
    }
  }
  return FinishLoad();
}

Status RowStore::LoadFromCsv(const std::string& path) {
  ReadingCsvReader reader(path);
  SM_RETURN_IF_ERROR(reader.Open());
  ReadingRow csv_row;
  while (reader.Next(&csv_row)) {
    SM_RETURN_IF_ERROR(Append({csv_row.household_id, csv_row.hour,
                               csv_row.consumption, csv_row.temperature}));
  }
  return reader.status();
}

size_t RowStore::num_rows() const {
  return heap_ == nullptr ? 0 : static_cast<size_t>(heap_->num_rows());
}

std::vector<int64_t> RowStore::HouseholdIds() const {
  return index_.Keys();
}

Result<const std::vector<uint64_t>*> RowStore::Postings(
    int64_t household_id) const {
  SM_ASSIGN_OR_RETURN(uint64_t slot, index_.Lookup(household_id));
  return &postings_[static_cast<size_t>(slot)];
}

Result<std::span<const uint64_t>> RowStore::HouseholdRowIds(
    int64_t household_id) const {
  SM_ASSIGN_OR_RETURN(const std::vector<uint64_t>* postings,
                      Postings(household_id));
  return std::span<const uint64_t>(*postings);
}

Result<MeterDataset> RowStore::ScanAll() const {
  if (!load_finished_) {
    return Status::InvalidArgument(
        "row store still loading; call FinishLoad()");
  }
  std::map<int64_t, std::vector<std::pair<int32_t, double>>> groups;
  std::map<int32_t, double> temperature;
  SM_RETURN_IF_ERROR(heap_->Scan(
      [&groups, &temperature](uint64_t, const HeapFile::Tuple& tuple) {
        groups[tuple.household_id].emplace_back(tuple.hour,
                                                tuple.consumption);
        temperature.emplace(tuple.hour, tuple.temperature);
      }));
  if (groups.empty()) {
    return Status::InvalidArgument("row store is empty");
  }
  // Hours must run 0, 1, 2, ... everywhere, as the CSV loaders require.
  MeterDataset dataset;
  std::vector<double> temp;
  temp.reserve(temperature.size());
  for (const auto& [hour, value] : temperature) {
    if (hour != static_cast<int32_t>(temp.size())) {
      return Status::Corruption(
          StringPrintf("temperature hours not dense at %d", hour));
    }
    temp.push_back(value);
  }
  dataset.SetTemperature(std::move(temp));
  for (auto& [id, rows] : groups) {
    std::sort(rows.begin(), rows.end());
    ConsumerSeries series;
    series.household_id = id;
    series.consumption.reserve(rows.size());
    for (const auto& [hour, value] : rows) {
      if (hour != static_cast<int32_t>(series.consumption.size())) {
        return Status::Corruption(StringPrintf(
            "household %lld: hour %d out of sequence (expected %zu)",
            static_cast<long long>(id), hour, series.consumption.size()));
      }
      series.consumption.push_back(value);
    }
    if (series.consumption.size() != dataset.hours()) {
      return Status::Corruption(StringPrintf(
          "household %lld has %zu hours, expected %zu",
          static_cast<long long>(id), series.consumption.size(),
          dataset.hours()));
    }
    dataset.AddConsumer(std::move(series));
  }
  SM_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Result<std::vector<std::pair<int32_t, double>>> RowStore::GatherColumn(
    int64_t household_id, bool temperature) const {
  if (!load_finished_) {
    return Status::InvalidArgument(
        "row store still loading; call FinishLoad()");
  }
  SM_ASSIGN_OR_RETURN(const std::vector<uint64_t>* postings,
                      Postings(household_id));
  std::vector<std::pair<int32_t, double>> keyed;
  keyed.reserve(postings->size());
  for (uint64_t rid : *postings) {
    SM_ASSIGN_OR_RETURN(HeapFile::Tuple tuple, heap_->Read(rid));
    keyed.emplace_back(tuple.hour, temperature ? tuple.temperature
                                               : tuple.consumption);
  }
  std::sort(keyed.begin(), keyed.end());
  return keyed;
}

Result<std::vector<double>> RowStore::HouseholdConsumption(
    int64_t household_id) const {
  SM_ASSIGN_OR_RETURN(auto keyed,
                      GatherColumn(household_id, /*temperature=*/false));
  std::vector<double> out;
  out.reserve(keyed.size());
  for (const auto& [hour, value] : keyed) out.push_back(value);
  return out;
}

Result<std::vector<double>> RowStore::HouseholdTemperature(
    int64_t household_id) const {
  SM_ASSIGN_OR_RETURN(auto keyed,
                      GatherColumn(household_id, /*temperature=*/true));
  std::vector<double> out;
  out.reserve(keyed.size());
  for (const auto& [hour, value] : keyed) out.push_back(value);
  return out;
}

namespace {

std::string UniqueArrayPath() {
  static std::atomic<int> counter{0};
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / StringPrintf("smartmeter_arraystore_%d_%d.tbl", getpid(),
                             counter.fetch_add(1)))
      .string();
}

}  // namespace

ArrayStore::ArrayStore(std::string path)
    : path_(path.empty() ? UniqueArrayPath() : std::move(path)) {}

ArrayStore::~ArrayStore() {
  if (file_ != nullptr) std::fclose(file_);
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

ArrayStore::ArrayStore(ArrayStore&&) noexcept = default;
ArrayStore& ArrayStore::operator=(ArrayStore&&) noexcept = default;

Status ArrayStore::LoadFromDataset(const MeterDataset& dataset) {
  SM_RETURN_IF_ERROR(dataset.Validate());
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  offsets_.clear();
  index_ = BPlusTree();

  FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot create array table " + path_);
  }
  // Record: household_id, hours, consumption[hours], temperature[hours].
  const uint64_t hours = dataset.hours();
  int64_t offset = 0;
  for (const ConsumerSeries& c : dataset.consumers()) {
    const Status st = index_.Insert(
        c.household_id, static_cast<uint64_t>(offsets_.size()));
    if (!st.ok()) {
      std::fclose(out);
      return st;
    }
    offsets_.push_back(offset);
    bool ok = std::fwrite(&c.household_id, sizeof(c.household_id), 1, out)
                  == 1;
    ok = ok && std::fwrite(&hours, sizeof(hours), 1, out) == 1;
    ok = ok && std::fwrite(c.consumption.data(), sizeof(double), hours,
                           out) == hours;
    ok = ok && std::fwrite(dataset.temperature().data(), sizeof(double),
                           hours, out) == hours;
    if (!ok) {
      std::fclose(out);
      return Status::IOError("short write to " + path_);
    }
    offset += static_cast<int64_t>(sizeof(c.household_id) + sizeof(hours) +
                                   2 * hours * sizeof(double));
  }
  if (std::fclose(out) != 0) {
    return Status::IOError("close failed for " + path_);
  }
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::IOError("cannot reopen array table " + path_);
  }
  return Status::OK();
}

Result<ArrayStore::HouseholdRow> ArrayStore::ReadAt(int64_t offset) const {
  if (file_ == nullptr) {
    return Status::InvalidArgument("array table not loaded");
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IOError("seek failed in " + path_);
  }
  HouseholdRow row;
  uint64_t hours = 0;
  if (std::fread(&row.household_id, sizeof(row.household_id), 1, file_) !=
          1 ||
      std::fread(&hours, sizeof(hours), 1, file_) != 1) {
    return Status::IOError("short read in " + path_);
  }
  row.consumption.resize(hours);
  row.temperature.resize(hours);
  if (std::fread(row.consumption.data(), sizeof(double), hours, file_) !=
          hours ||
      std::fread(row.temperature.data(), sizeof(double), hours, file_) !=
          hours) {
    return Status::IOError("short read in " + path_);
  }
  return row;
}

Result<ArrayStore::HouseholdRow> ArrayStore::ReadRow(size_t i) const {
  if (i >= offsets_.size()) {
    return Status::OutOfRange("array row index out of range");
  }
  return ReadAt(offsets_[i]);
}

Result<ArrayStore::HouseholdRow> ArrayStore::Find(
    int64_t household_id) const {
  SM_ASSIGN_OR_RETURN(uint64_t slot, index_.Lookup(household_id));
  return ReadRow(static_cast<size_t>(slot));
}

Result<MeterDataset> ArrayStore::ReadAll() const {
  MeterDataset dataset;
  for (size_t i = 0; i < offsets_.size(); ++i) {
    SM_ASSIGN_OR_RETURN(HouseholdRow row, ReadRow(i));
    if (i == 0) {
      dataset.SetTemperature(std::move(row.temperature));
    }
    dataset.AddConsumer({row.household_id, std::move(row.consumption)});
  }
  SM_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace smartmeter::storage
