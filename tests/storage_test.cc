#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/csv.h"
#include "storage/row_store.h"
#include "timeseries/dataset.h"

namespace smartmeter::storage {
namespace {

namespace fs = std::filesystem;

/// Builds a small deterministic dataset: `n` households over `hours`.
MeterDataset MakeDataset(int n, int hours, uint64_t seed = 1) {
  Rng rng(seed);
  MeterDataset ds;
  std::vector<double> temp(static_cast<size_t>(hours));
  for (double& t : temp) t = rng.Uniform(-15, 30);
  ds.SetTemperature(std::move(temp));
  for (int i = 0; i < n; ++i) {
    ConsumerSeries c;
    c.household_id = 100 + i;
    c.consumption.reserve(static_cast<size_t>(hours));
    for (int h = 0; h < hours; ++h) {
      c.consumption.push_back(rng.Uniform(0.0, 5.0));
    }
    ds.AddConsumer(std::move(c));
  }
  return ds;
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("storage_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

void ExpectDatasetsNear(const MeterDataset& a, const MeterDataset& b,
                        double tolerance) {
  ASSERT_EQ(a.num_consumers(), b.num_consumers());
  ASSERT_EQ(a.hours(), b.hours());
  for (size_t h = 0; h < a.hours(); ++h) {
    // Temperature is serialized with 2 decimals.
    ASSERT_NEAR(a.temperature()[h], b.temperature()[h], 0.006) << h;
  }
  for (size_t i = 0; i < a.num_consumers(); ++i) {
    ASSERT_EQ(a.consumer(i).household_id, b.consumer(i).household_id);
    for (size_t h = 0; h < a.hours(); ++h) {
      ASSERT_NEAR(a.consumer(i).consumption[h], b.consumer(i).consumption[h],
                  tolerance)
          << "household " << i << " hour " << h;
    }
  }
}

// ---------------------------------------------------------------------------
// CSV round trips
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ReadingsCsvRoundTrip) {
  const MeterDataset ds = MakeDataset(5, 48);
  ASSERT_TRUE(WriteReadingsCsv(ds, Path("data.csv")).ok());
  auto loaded = ReadReadingsCsv(Path("data.csv"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsNear(ds, *loaded, 1e-3);  // CSV keeps 4 decimals.
}

TEST_F(StorageTest, PartitionedCsvRoundTrip) {
  const MeterDataset ds = MakeDataset(4, 24);
  auto paths = WritePartitionedCsv(ds, Path("parts"));
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 4u);
  auto loaded = ReadPartitionedCsv(Path("parts"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsNear(ds, *loaded, 1e-3);
}

TEST_F(StorageTest, HouseholdLinesRoundTrip) {
  const MeterDataset ds = MakeDataset(3, 30);
  ASSERT_TRUE(WriteHouseholdLinesCsv(ds, Path("wide.csv")).ok());
  auto loaded = ReadHouseholdLinesCsv(Path("wide.csv"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsNear(ds, *loaded, 1e-3);
}

TEST_F(StorageTest, WholeHouseholdFilesKeepHouseholdsIntact) {
  const MeterDataset ds = MakeDataset(7, 24);
  auto paths = WriteWholeHouseholdFiles(ds, Path("many"), 3);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 3u);
  // Each household's rows live in exactly one file.
  std::map<int64_t, std::set<std::string>> file_of;
  for (const std::string& path : *paths) {
    ReadingCsvReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    ReadingRow row;
    while (reader.Next(&row)) {
      file_of[row.household_id].insert(path);
    }
    ASSERT_TRUE(reader.status().ok());
  }
  EXPECT_EQ(file_of.size(), 7u);
  for (const auto& [id, files] : file_of) {
    EXPECT_EQ(files.size(), 1u) << "household " << id << " split";
  }
}

TEST_F(StorageTest, WholeHouseholdFilesClampedToHouseholdCount) {
  const MeterDataset ds = MakeDataset(2, 24);
  auto paths = WriteWholeHouseholdFiles(ds, Path("many2"), 10);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 2u);
}

TEST_F(StorageTest, ParseReadingRowValidatesShape) {
  EXPECT_TRUE(ParseReadingRow("1,0,2.5,-3.0").ok());
  EXPECT_FALSE(ParseReadingRow("1,0,2.5").ok());
  EXPECT_FALSE(ParseReadingRow("a,0,2.5,-3.0").ok());
  EXPECT_FALSE(ParseReadingRow("").ok());
}

TEST_F(StorageTest, ReaderSurfacesMalformedRows) {
  {
    FILE* f = fopen(Path("bad.csv").c_str(), "w");
    fputs("1,0,0.5,1.0\nnot,a,row\n", f);
    fclose(f);
  }
  ReadingCsvReader reader(Path("bad.csv"));
  ASSERT_TRUE(reader.Open().ok());
  ReadingRow row;
  EXPECT_TRUE(reader.Next(&row));
  EXPECT_FALSE(reader.Next(&row));
  EXPECT_FALSE(reader.status().ok());
}

TEST_F(StorageTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadReadingsCsv(Path("absent.csv")).status().code(),
            StatusCode::kIOError);
  ReadingCsvReader reader(Path("absent.csv"));
  EXPECT_EQ(reader.Open().code(), StatusCode::kIOError);
}

TEST_F(StorageTest, ReadRejectsRaggedHouseholds) {
  {
    FILE* f = fopen(Path("ragged.csv").c_str(), "w");
    fputs("1,0,0.5,1.0\n1,1,0.6,1.0\n2,0,0.2,1.0\n", f);
    fclose(f);
  }
  EXPECT_FALSE(ReadReadingsCsv(Path("ragged.csv")).ok());
}

TEST_F(StorageTest, ParseReadingRowBoundsTheHour) {
  EXPECT_TRUE(ParseReadingRow("1,2147483647,0.5,1.0").ok());
  EXPECT_EQ(ParseReadingRow("1,2147483648,0.5,1.0").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseReadingRow("1,-1,0.5,1.0").status().code(),
            StatusCode::kCorruption);
}

TEST_F(StorageTest, ReaderErrorNamesLineByteAndColumn) {
  {
    FILE* f = fopen(Path("bad.csv").c_str(), "w");
    fputs("1,0,0.5,1.0\n\n1,1,x,1.0\n", f);
    fclose(f);
  }
  ReadingCsvReader reader(Path("bad.csv"));
  ASSERT_TRUE(reader.Open().ok());
  ReadingRow row;
  EXPECT_TRUE(reader.Next(&row));
  EXPECT_FALSE(reader.Next(&row));
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(reader.status().message(),
            Path("bad.csv") +
                ":3 (byte 13): bad consumption 'x' at column 5");
}

std::vector<ReadingRow> RowsOf(const MeterDataset& ds) {
  std::vector<ReadingRow> rows;
  for (size_t h = 0; h < ds.hours(); ++h) {
    for (const ConsumerSeries& c : ds.consumers()) {
      rows.push_back({c.household_id, static_cast<int32_t>(h),
                      c.consumption[h], ds.temperature()[h]});
    }
  }
  return rows;
}

void ExpectSameDataset(const MeterDataset& a, const MeterDataset& b) {
  ASSERT_EQ(a.num_consumers(), b.num_consumers());
  EXPECT_EQ(a.temperature(), b.temperature());
  for (size_t i = 0; i < a.num_consumers(); ++i) {
    EXPECT_EQ(a.consumer(i).household_id, b.consumer(i).household_id);
    EXPECT_EQ(a.consumer(i).consumption, b.consumer(i).consumption);
  }
}

TEST_F(StorageTest, DenseAssemblyTakesRowsInAnyOrder) {
  const MeterDataset ds = MakeDataset(5, 30);
  std::vector<ReadingRow> rows = RowsOf(ds);
  Rng rng(9);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.UniformInt(i)]);
  }
  auto assembled = AssembleReadingRows(rows);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  ExpectSameDataset(*assembled, ds);
}

TEST_F(StorageTest, DenseAssemblyOrdersByIdAndKeepsFirstTemperature) {
  // Household 9 arrives first and out of hour order; hour 2's first
  // temperature (7.0) comes before the prefix reaches hour 2.
  const std::vector<ReadingRow> rows = {
      {9, 2, 0.3, 7.0}, {9, 0, 0.1, 5.0}, {9, 1, 0.2, 6.0},
      {3, 0, 1.1, 50.0}, {3, 1, 1.2, 60.0}, {3, 2, 1.3, 70.0},
  };
  auto assembled = AssembleReadingRows(rows);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  ASSERT_EQ(assembled->num_consumers(), 2u);
  EXPECT_EQ(assembled->consumer(0).household_id, 3);
  EXPECT_EQ(assembled->consumer(1).household_id, 9);
  EXPECT_EQ(assembled->consumer(1).consumption,
            (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_EQ(assembled->temperature(), (std::vector<double>{5.0, 6.0, 7.0}));
}

TEST_F(StorageTest, DenseAssemblyStatuses) {
  EXPECT_EQ(AssembleReadingRows({}).status().code(),
            StatusCode::kInvalidArgument);
  const auto status_of = [](std::vector<ReadingRow> rows) {
    return AssembleReadingRows(rows).status().code();
  };
  // Gap at hour 2.
  EXPECT_EQ(status_of({{1, 0, 0.1, 1}, {1, 1, 0.1, 1}, {1, 3, 0.1, 1}}),
            StatusCode::kCorruption);
  // Duplicate hour 1.
  EXPECT_EQ(status_of({{1, 0, 0.1, 1}, {1, 1, 0.1, 1}, {1, 1, 0.2, 1}}),
            StatusCode::kCorruption);
  // Ragged: household 2 stops an hour early.
  EXPECT_EQ(status_of({{1, 0, 0.1, 1}, {2, 0, 0.1, 1}, {1, 1, 0.1, 1}}),
            StatusCode::kCorruption);
  // A gap in one household that another household fills.
  EXPECT_EQ(status_of({{1, 0, 0.1, 1}, {1, 2, 0.1, 1}, {2, 0, 0.1, 1},
                       {2, 1, 0.1, 1}, {2, 2, 0.1, 1}}),
            StatusCode::kCorruption);
  // Hours no input could fill must not size an allocation.
  EXPECT_EQ(status_of({{1, 0, 0.1, 1}, {1, 2147483647, 0.1, 1}}),
            StatusCode::kCorruption);
  EXPECT_EQ(status_of({{1, -5, 0.1, 1}, {1, 0, 0.1, 1}}),
            StatusCode::kCorruption);
}

TEST_F(StorageTest, WritersMatchPrintfByteForByte) {
  // Values that round at the last printed digit, negative zero, large
  // ids, and hours 0 through 8759.
  const std::vector<double> edges = {
      -0.0,     0.0,         0.00005,      0.00015,    0.12345,
      1.00005,  0.99995,     9.99995,      -1.23455,   2.5e-5,
      -2.5e-5,  123456.7890, 1e15,         -0.004999,  0.005,
      0.015,    0.125,       -0.125,       2.675,      -40.005,
      1e-300,   4503599627370497.5};
  MeterDataset ds;
  const size_t hours = 8760;
  std::vector<double> temp(hours);
  for (size_t h = 0; h < hours; ++h) temp[h] = edges[(h * 7) % edges.size()];
  ds.SetTemperature(temp);
  for (int64_t id : {int64_t{1}, int64_t{123456789012},
                     int64_t{9223372036854775807}}) {
    ConsumerSeries c;
    c.household_id = id;
    for (size_t h = 0; h < hours; ++h) {
      c.consumption.push_back(
          edges[(h + static_cast<size_t>(id % 11)) % edges.size()]);
    }
    ds.AddConsumer(std::move(c));
  }
  const auto slurp = [](const std::string& path) {
    std::string out;
    FILE* f = fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return out;
    char chunk[4096];
    size_t got;
    while ((got = fread(chunk, 1, sizeof(chunk), f)) > 0) out.append(chunk, got);
    fclose(f);
    return out;
  };
  const auto reading = [&ds](const ConsumerSeries& c, size_t h) {
    char line[1024];
    snprintf(line, sizeof(line), "%lld,%zu,%.4f,%.2f\n",
             static_cast<long long>(c.household_id), h, c.consumption[h],
             ds.temperature()[h]);
    return std::string(line);
  };

  std::string expected;
  for (size_t h = 0; h < hours; ++h) {
    for (const ConsumerSeries& c : ds.consumers()) expected += reading(c, h);
  }
  ASSERT_TRUE(WriteReadingsCsv(ds, Path("all.csv")).ok());
  EXPECT_EQ(slurp(Path("all.csv")), expected);

  auto parts = WritePartitionedCsv(ds, Path("parts"));
  ASSERT_TRUE(parts.ok());
  for (size_t i = 0; i < ds.num_consumers(); ++i) {
    std::string one;
    for (size_t h = 0; h < hours; ++h) one += reading(ds.consumer(i), h);
    EXPECT_EQ(slurp((*parts)[i]), one) << (*parts)[i];
  }

  auto whole = WriteWholeHouseholdFiles(ds, Path("whole"), 2);
  ASSERT_TRUE(whole.ok());
  std::string first_file;
  for (size_t i : {size_t{0}, size_t{2}}) {
    for (size_t h = 0; h < hours; ++h) first_file += reading(ds.consumer(i), h);
  }
  EXPECT_EQ(slurp(whole->front()), first_file);

  ASSERT_TRUE(WriteHouseholdLinesCsv(ds, Path("lines.csv")).ok());
  std::string lines;
  std::string sidecar;
  char field[1024];
  for (const ConsumerSeries& c : ds.consumers()) {
    snprintf(field, sizeof(field), "%lld",
             static_cast<long long>(c.household_id));
    lines += field;
    for (double v : c.consumption) {
      snprintf(field, sizeof(field), ",%.4f", v);
      lines += field;
    }
    lines += "\n";
  }
  for (double t : ds.temperature()) {
    snprintf(field, sizeof(field), "%.2f\n", t);
    sidecar += field;
  }
  EXPECT_EQ(slurp(Path("lines.csv")), lines);
  EXPECT_EQ(slurp(Path("lines.csv") + ".temperature"), sidecar);
}

// ---------------------------------------------------------------------------
// RowStore
// ---------------------------------------------------------------------------

TEST_F(StorageTest, RowStoreExtractsOrderedSeries) {
  const MeterDataset ds = MakeDataset(3, 24);
  RowStore store;
  // Interleaved load: rows arrive hour-major like a utility feed.
  ASSERT_TRUE(store.LoadFromDataset(ds, /*interleave=*/true).ok());
  EXPECT_EQ(store.num_rows(), 3u * 24u);
  EXPECT_EQ(store.num_households(), 3u);
  for (const ConsumerSeries& c : ds.consumers()) {
    auto extracted = store.HouseholdConsumption(c.household_id);
    ASSERT_TRUE(extracted.ok());
    EXPECT_EQ(*extracted, c.consumption);
    auto temp = store.HouseholdTemperature(c.household_id);
    ASSERT_TRUE(temp.ok());
    EXPECT_EQ(*temp, ds.temperature());
  }
}

TEST_F(StorageTest, RowStoreUnknownHousehold) {
  RowStore store;
  ASSERT_TRUE(store.LoadFromDataset(MakeDataset(1, 4), false).ok());
  EXPECT_EQ(store.HouseholdConsumption(999).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StorageTest, RowStoreLoadFromCsvMatchesDataset) {
  const MeterDataset ds = MakeDataset(3, 24);
  ASSERT_TRUE(WriteReadingsCsv(ds, Path("rows.csv")).ok());
  RowStore store;
  ASSERT_TRUE(store.LoadFromCsv(Path("rows.csv")).ok());
  EXPECT_EQ(store.num_rows(), ds.consumers().size() * ds.hours());
  auto ids = store.HouseholdIds();
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST_F(StorageTest, ArrayStoreFindsHouseholds) {
  const MeterDataset ds = MakeDataset(4, 12);
  ArrayStore store;
  ASSERT_TRUE(store.LoadFromDataset(ds).ok());
  EXPECT_EQ(store.num_households(), 4u);
  auto row = store.Find(101);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->consumption, ds.consumer(1).consumption);
  EXPECT_EQ(row->temperature, ds.temperature());
  EXPECT_EQ(store.Find(12345).status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, ArrayStoreReadAllRoundTrips) {
  const MeterDataset ds = MakeDataset(6, 24);
  ArrayStore store;
  ASSERT_TRUE(store.LoadFromDataset(ds).ok());
  auto all = store.ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->num_consumers(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(all->consumer(i).household_id, ds.consumer(i).household_id);
    EXPECT_EQ(all->consumer(i).consumption, ds.consumer(i).consumption);
  }
  EXPECT_EQ(all->temperature(), ds.temperature());
}

TEST_F(StorageTest, ArrayStoreReadRowOutOfRange) {
  const MeterDataset ds = MakeDataset(2, 12);
  ArrayStore store;
  ASSERT_TRUE(store.LoadFromDataset(ds).ok());
  EXPECT_EQ(store.ReadRow(5).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace smartmeter::storage
