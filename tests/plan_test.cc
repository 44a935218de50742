// Physical-plan IR tests: the five engines' plan paths produce
// bit-identical results over the same input bytes, plan shapes are
// stable (DebugString goldens), per-stage timings are reported, and a
// stopped QueryContext aborts a plan at a partition boundary.
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cost_model.h"
#include "datagen/seed_generator.h"
#include "engines/engine_util.h"
#include "engines/hive_engine.h"
#include "engines/madlib_engine.h"
#include "engines/matlab_engine.h"
#include "engines/spark_engine.h"
#include "engines/systemc_engine.h"
#include "exec/plan.h"
#include "exec/plan_executor.h"
#include "exec/query_context.h"
#include "storage/column_store.h"
#include "table/delta_store.h"
#include "storage/csv.h"
#include "timeseries/calendar.h"

namespace smartmeter::engines {
namespace {

namespace fs = std::filesystem;

using table::DataSource;

class PlanTest : public ::testing::Test {
 protected:
  static constexpr int kHouseholds = 6;

  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::path(::testing::TempDir()) / "plan_test");
    fs::create_directories(*dir_);
    datagen::SeedGeneratorOptions options;
    options.num_households = kHouseholds;
    options.hours = kHoursPerYear;
    options.seed = 411;
    MeterDataset dataset = *datagen::GenerateSeedDataset(options);
    single_csv_ = (*dir_ / "data.csv").string();
    ASSERT_TRUE(storage::WriteReadingsCsv(dataset, single_csv_).ok());
    household_lines_ = (*dir_ / "lines.csv").string();
    ASSERT_TRUE(
        storage::WriteHouseholdLinesCsv(dataset, household_lines_).ok());
    auto part =
        storage::WritePartitionedCsv(dataset, (*dir_ / "part").string());
    ASSERT_TRUE(part.ok());
    partitioned_files_ = new std::vector<std::string>(std::move(*part));
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);
    delete partitioned_files_;
    delete dir_;
  }

  static cluster::ClusterConfig SmallCluster() {
    cluster::ClusterConfig config;
    config.num_nodes = 4;
    config.slots_per_node = 2;
    return config;
  }

  static SparkEngine::Options SparkOptions(int64_t block_bytes) {
    SparkEngine::Options options;
    options.cluster = SmallCluster();
    options.block_bytes = block_bytes;
    return options;
  }

  static HiveEngine::Options HiveOptions(int64_t block_bytes) {
    HiveEngine::Options options;
    options.cluster = SmallCluster();
    options.block_bytes = block_bytes;
    return options;
  }

  /// Exact equality: all five engines parse the same file bytes with the
  /// same parser and run the same kernels, so their plan paths must
  /// agree to the last bit, not to a tolerance.
  static void ExpectBitIdentical(const TaskResultSet& got,
                                 const TaskResultSet& want,
                                 core::TaskType task) {
    switch (task) {
      case core::TaskType::kHistogram: {
        const auto& g = got.Get<core::HistogramResult>();
        const auto& w = want.Get<core::HistogramResult>();
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i) {
          EXPECT_EQ(g[i].household_id, w[i].household_id);
          EXPECT_EQ(g[i].histogram.counts, w[i].histogram.counts);
        }
        break;
      }
      case core::TaskType::kThreeLine: {
        const auto& g = got.Get<core::ThreeLineResult>();
        const auto& w = want.Get<core::ThreeLineResult>();
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i) {
          EXPECT_EQ(g[i].household_id, w[i].household_id);
          EXPECT_EQ(g[i].heating_gradient, w[i].heating_gradient);
          EXPECT_EQ(g[i].cooling_gradient, w[i].cooling_gradient);
          EXPECT_EQ(g[i].base_load, w[i].base_load);
        }
        break;
      }
      case core::TaskType::kPar: {
        const auto& g = got.Get<core::DailyProfileResult>();
        const auto& w = want.Get<core::DailyProfileResult>();
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i) {
          EXPECT_EQ(g[i].household_id, w[i].household_id);
          EXPECT_EQ(g[i].profile, w[i].profile);
        }
        break;
      }
      case core::TaskType::kSimilarity: {
        const auto& g = got.Get<core::SimilarityResult>();
        const auto& w = want.Get<core::SimilarityResult>();
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i) {
          EXPECT_EQ(g[i].household_id, w[i].household_id);
          ASSERT_EQ(g[i].matches.size(), w[i].matches.size());
          for (size_t m = 0; m < g[i].matches.size(); ++m) {
            EXPECT_EQ(g[i].matches[m].household_id,
                      w[i].matches[m].household_id);
            EXPECT_EQ(g[i].matches[m].cosine, w[i].matches[m].cosine);
          }
        }
        break;
      }
    }
  }

  /// Map-only plans (format 2) have no shuffle stage to run.
  static void ExpectNoShuffleStage(AnalyticsEngine* engine) {
    TaskResultSet results;
    auto metrics = engine->RunTask(
        TaskOptions::Default(core::TaskType::kHistogram), &results);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    for (const exec::StageTiming& stage : metrics->stages) {
      EXPECT_NE(stage.name, "shuffle");
    }
  }

  static fs::path* dir_;
  static std::string single_csv_;
  static std::string household_lines_;
  static std::vector<std::string>* partitioned_files_;
};

fs::path* PlanTest::dir_ = nullptr;
std::string PlanTest::single_csv_;
std::string PlanTest::household_lines_;
std::vector<std::string>* PlanTest::partitioned_files_ = nullptr;

// ---------------------------------------------------------------------------
// Five-engine plan-path parity
// ---------------------------------------------------------------------------

TEST_F(PlanTest, FiveEnginesBitIdenticalOverSameBytes) {
  SystemCEngine systemc((*dir_ / "spool").string());
  MadlibEngine madlib;
  MatlabEngine matlab;
  SparkEngine spark(SparkOptions(64 << 10));
  HiveEngine hive(HiveOptions(64 << 10));
  const DataSource source = *DataSource::SingleCsv(single_csv_);
  ASSERT_TRUE(systemc.Attach(source).ok());
  ASSERT_TRUE(madlib.Attach(source).ok());
  ASSERT_TRUE(matlab.Attach(source).ok());
  ASSERT_TRUE(spark.Attach(source).ok());
  ASSERT_TRUE(hive.Attach(source).ok());
  std::vector<AnalyticsEngine*> others = {&madlib, &matlab, &spark, &hive};

  for (core::TaskType task : core::kAllTasks) {
    const TaskOptions options = TaskOptions::Default(task);
    TaskResultSet baseline;
    auto base_metrics = systemc.RunTask(options, &baseline);
    ASSERT_TRUE(base_metrics.ok()) << base_metrics.status().ToString();
    for (AnalyticsEngine* engine : others) {
      TaskResultSet results;
      auto metrics = engine->RunTask(options, &results);
      ASSERT_TRUE(metrics.ok())
          << engine->name() << "/" << core::TaskName(task) << ": "
          << metrics.status().ToString();
      SCOPED_TRACE(std::string(engine->name()) + "/" +
                   std::string(core::TaskName(task)));
      ExpectBitIdentical(results, baseline, task);
    }
  }
}

TEST_F(PlanTest, FiveEnginesAgreeOnTheSameBytes) {
  // The loaders and the Spark/Hive split scans read text through one line
  // reader, so they share one line rule (trim, skip blank lines) and one
  // set of statuses for bad rows.
  datagen::SeedGeneratorOptions options;
  options.num_households = 3;
  options.hours = 48;
  options.seed = 7;
  const MeterDataset dataset = *datagen::GenerateSeedDataset(options);
  const std::string lf_path = (*dir_ / "agree_lf.csv").string();
  ASSERT_TRUE(storage::WriteReadingsCsv(dataset, lf_path).ok());
  const auto read = [](const std::string& path) {
    std::string text;
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return text;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      text.append(chunk, got);
    }
    std::fclose(f);
    return text;
  };
  const std::string lf = read(lf_path);
  const auto write = [](const std::string& path, const std::string& text) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  };
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  crlf += "\r\n";  // The file ends in a blank line.

  // Tiny HDFS blocks, so the cluster scans split the file many times.
  const auto run = [this](const std::string& tag, const std::string& path,
                          std::vector<TaskResultSet>* results) {
    std::vector<std::unique_ptr<AnalyticsEngine>> engines;
    engines.push_back(
        std::make_unique<SystemCEngine>((*dir_ / ("spool_" + tag)).string()));
    engines.push_back(std::make_unique<MadlibEngine>());
    engines.push_back(std::make_unique<MatlabEngine>());
    engines.push_back(std::make_unique<SparkEngine>(SparkOptions(512)));
    engines.push_back(std::make_unique<HiveEngine>(HiveOptions(512)));
    const DataSource source = *DataSource::SingleCsv(path);
    std::vector<Status> statuses;
    for (auto& engine : engines) {
      TaskResultSet out;
      auto attach = engine->Attach(source);
      if (!attach.ok()) {
        statuses.push_back(attach.status());
      } else {
        statuses.push_back(
            engine
                ->RunTask(TaskOptions::Default(core::TaskType::kHistogram),
                          &out)
                .status());
      }
      if (results != nullptr) results->push_back(std::move(out));
    }
    return statuses;
  };

  // CRLF endings and a trailing blank line: every engine gives the
  // histogram System C gives over the plain LF file.
  std::vector<TaskResultSet> baseline;
  for (const Status& status : run("agree_lf", lf_path, &baseline)) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  const std::string crlf_path = (*dir_ / "agree_crlf.csv").string();
  write(crlf_path, crlf);
  std::vector<TaskResultSet> over_crlf;
  const std::vector<Status> crlf_statuses =
      run("agree_crlf", crlf_path, &over_crlf);
  for (size_t e = 0; e < crlf_statuses.size(); ++e) {
    ASSERT_TRUE(crlf_statuses[e].ok())
        << "engine " << e << ": " << crlf_statuses[e].ToString();
    SCOPED_TRACE("engine " + std::to_string(e));
    ExpectBitIdentical(over_crlf[e], baseline[0], core::TaskType::kHistogram);
  }

  // A malformed consumption field: Corruption everywhere, and the cluster
  // scans name the file, the line's byte offset and the column.
  const size_t bad_line = crlf.find("\r\n", crlf.size() / 2) + 2;
  const size_t bad_end = crlf.find("\r\n", bad_line);
  const std::string good_row = crlf.substr(bad_line, bad_end - bad_line);
  const size_t second_comma = good_row.find(',', good_row.find(',') + 1);
  std::string malformed = crlf;
  malformed.replace(bad_line, bad_end - bad_line,
                    good_row.substr(0, second_comma + 1) + "abc,1.00");
  const std::string malformed_path = (*dir_ / "agree_bad.csv").string();
  write(malformed_path, malformed);
  const std::vector<Status> bad_statuses =
      run("agree_bad", malformed_path, nullptr);
  for (size_t e = 0; e < bad_statuses.size(); ++e) {
    EXPECT_EQ(bad_statuses[e].code(), StatusCode::kCorruption)
        << "engine " << e << ": " << bad_statuses[e].ToString();
  }
  for (size_t e : {size_t{3}, size_t{4}}) {  // Spark, Hive.
    const std::string& message = bad_statuses[e].message();
    EXPECT_NE(message.find(malformed_path), std::string::npos) << message;
    EXPECT_NE(message.find("byte " + std::to_string(bad_line)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("column " + std::to_string(second_comma + 2)),
              std::string::npos)
        << message;
  }

  // An hour no file could fill: Corruption, never an allocation sized by
  // the hour.
  const std::string huge_hour_path = (*dir_ / "agree_hour.csv").string();
  write(huge_hour_path, lf + "1,2147483647,0.5000,1.00\n");
  const std::vector<Status> hour_statuses =
      run("agree_hour", huge_hour_path, nullptr);
  for (size_t e = 0; e < hour_statuses.size(); ++e) {
    EXPECT_EQ(hour_statuses[e].code(), StatusCode::kCorruption)
        << "engine " << e << ": " << hour_statuses[e].ToString();
  }

  // A ragged table: the rows are hour-major, so dropping the last row
  // leaves the last household one hour short. The loaders, Matlab's
  // extraction, MADLib's row scan and the Spark and Hive shuffles all
  // report Corruption.
  const std::string ragged_path = (*dir_ / "agree_ragged.csv").string();
  write(ragged_path, lf.substr(0, lf.rfind('\n', lf.size() - 2) + 1));
  const std::vector<Status> ragged_statuses =
      run("agree_ragged", ragged_path, nullptr);
  for (size_t e = 0; e < ragged_statuses.size(); ++e) {
    EXPECT_EQ(ragged_statuses[e].code(), StatusCode::kCorruption)
        << "engine " << e << ": " << ragged_statuses[e].ToString();
  }

  // The household-per-line layout, which Spark and Hive read: a line one
  // value short of the temperature sidecar is Corruption for every task,
  // and the split scan names the file. Ten days, so that every task is
  // valid on the households that are whole and Corruption is the only
  // status any partition can report.
  options.hours = 240;
  const MeterDataset ten_days = *datagen::GenerateSeedDataset(options);
  const std::string lines_path = (*dir_ / "agree_short_line.csv").string();
  ASSERT_TRUE(storage::WriteHouseholdLinesCsv(ten_days, lines_path).ok());
  std::string lines = read(lines_path);
  const size_t second_end = lines.find('\n', lines.find('\n') + 1);
  const size_t last_comma = lines.rfind(',', second_end);
  lines.erase(last_comma, second_end - last_comma);
  write(lines_path, lines);
  const DataSource lines_source = *DataSource::HouseholdLines(lines_path);
  SparkEngine spark(SparkOptions(512));
  HiveEngine hive(HiveOptions(512));
  const std::vector<AnalyticsEngine*> line_engines = {&spark, &hive};
  for (AnalyticsEngine* engine : line_engines) {
    ASSERT_TRUE(engine->Attach(lines_source).ok()) << engine->name();
    for (core::TaskType task : core::kAllTasks) {
      TaskResultSet out;
      const Status status =
          engine->RunTask(TaskOptions::Default(task), &out).status();
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << engine->name() << "/" << core::TaskName(task) << ": "
          << status.ToString();
      if (task == core::TaskType::kHistogram) {
        EXPECT_NE(status.message().find(lines_path), std::string::npos)
            << status.ToString();
      }
    }
  }
}

TEST_F(PlanTest, FiveEnginesBitIdenticalOverColumnFileAndCsv) {
  // Reading the SMCOLV2 column file instead of the CSV is a pure storage
  // change: every engine fed the compressed file must produce the same
  // bits as when fed the CSV it was written from, across all four tasks.
  // This is the non-negotiable parity pin for the compressed format. The
  // file is written from the CSV parse, so both inputs hold identical
  // values.
  auto parsed = storage::ReadReadingsCsv(single_csv_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string column_path = (*dir_ / "cols.smcol").string();
  ASSERT_TRUE(storage::ColumnFileWriter::WriteFile(*parsed, column_path).ok());

  const auto make_engines = [this](const char* spool) {
    std::vector<std::unique_ptr<AnalyticsEngine>> engines;
    engines.push_back(std::make_unique<SystemCEngine>((*dir_ / spool).string()));
    engines.push_back(std::make_unique<MadlibEngine>());
    engines.push_back(std::make_unique<MatlabEngine>());
    engines.push_back(std::make_unique<SparkEngine>(SparkOptions(64 << 10)));
    engines.push_back(std::make_unique<HiveEngine>(HiveOptions(64 << 10)));
    return engines;
  };
  auto csv_engines = make_engines("spool_fmt_csv");
  auto column_engines = make_engines("spool_fmt_column");
  const DataSource csv_source = *DataSource::SingleCsv(single_csv_);
  const DataSource column_source = *DataSource::ColumnFile(column_path);
  for (auto& engine : csv_engines) {
    auto attach = engine->Attach(csv_source);
    ASSERT_TRUE(attach.ok())
        << engine->name() << ": " << attach.status().ToString();
  }
  for (auto& engine : column_engines) {
    auto attach = engine->Attach(column_source);
    ASSERT_TRUE(attach.ok())
        << engine->name() << ": " << attach.status().ToString();
  }

  for (core::TaskType task : core::kAllTasks) {
    const TaskOptions task_options = TaskOptions::Default(task);
    TaskResultSet baseline;
    ASSERT_TRUE(csv_engines[0]->RunTask(task_options, &baseline).ok());
    for (size_t e = 0; e < csv_engines.size(); ++e) {
      TaskResultSet over_csv;
      TaskResultSet over_column;
      auto csv_metrics = csv_engines[e]->RunTask(task_options, &over_csv);
      auto column_metrics =
          column_engines[e]->RunTask(task_options, &over_column);
      ASSERT_TRUE(csv_metrics.ok())
          << csv_engines[e]->name() << "/" << core::TaskName(task) << ": "
          << csv_metrics.status().ToString();
      ASSERT_TRUE(column_metrics.ok())
          << column_engines[e]->name() << "/" << core::TaskName(task)
          << ": " << column_metrics.status().ToString();
      SCOPED_TRACE(std::string(csv_engines[e]->name()) + "/" +
                   std::string(core::TaskName(task)));
      // Same engine across the two inputs, and every engine against the
      // five-way baseline: one storage change, zero result drift.
      ExpectBitIdentical(over_column, over_csv, task);
      ExpectBitIdentical(over_csv, baseline, task);
    }
  }
}

TEST_F(PlanTest, DeltaMergedBatchMatchesRebuiltMonolithicAcrossEngines) {
  // Lambda-architecture parity pin: a base table plus live delta
  // columns, merged by the DeltaTableReader, must produce the same task
  // bits as rebuilding the monolithic column file from the full data
  // and running any of the five engines over it. The speed layer is a
  // storage change, not a semantics change.
  datagen::SeedGeneratorOptions options;
  options.num_households = kHouseholds;
  options.hours = kHoursPerYear;
  options.seed = 411;
  MeterDataset dataset = *datagen::GenerateSeedDataset(options);
  constexpr size_t kDeltaHours = 48;
  const size_t base_hours = dataset.hours() - kDeltaHours;

  // Base = the first base_hours of every series; the last two days
  // arrive through the append path, hour-major like a live feed.
  std::vector<int64_t> ids;
  std::vector<table::SeriesSlice> series;
  for (size_t i = 0; i < dataset.num_consumers(); ++i) {
    ids.push_back(dataset.consumer(i).household_id);
    series.emplace_back(dataset.consumer(i).consumption.data(), base_hours);
  }
  auto base = table::ColumnarBatch::FromSlices(
      ids, series, table::SeriesSlice(dataset.temperature().data(),
                                      base_hours));
  ASSERT_TRUE(base.ok());
  table::DeltaStore store;
  ASSERT_TRUE(store.AttachBase(*base).ok());
  for (size_t h = base_hours; h < dataset.hours(); ++h) {
    for (size_t i = 0; i < dataset.num_consumers(); ++i) {
      ASSERT_TRUE(store
                      .Append(dataset.consumer(i).household_id,
                              static_cast<int64_t>(h),
                              dataset.consumer(i).consumption[h],
                              dataset.temperature()[h])
                      .ok());
    }
  }
  table::DeltaTableReader reader(&store);
  ASSERT_TRUE(reader.Open().ok());
  auto merged = reader.NewBatch();
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->hours(), dataset.hours());

  // Batch layer: reseal the full dataset into a compressed column file.
  const std::string rebuilt_path = (*dir_ / "rebuilt.v2.smcol").string();
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(dataset, rebuilt_path).ok());
  auto engines = [this]() {
    std::vector<std::unique_ptr<AnalyticsEngine>> engines;
    engines.push_back(
        std::make_unique<SystemCEngine>((*dir_ / "spool_delta").string()));
    engines.push_back(std::make_unique<MadlibEngine>());
    engines.push_back(std::make_unique<MatlabEngine>());
    engines.push_back(std::make_unique<SparkEngine>(SparkOptions(64 << 10)));
    engines.push_back(std::make_unique<HiveEngine>(HiveOptions(64 << 10)));
    return engines;
  }();
  const DataSource rebuilt_source = *DataSource::ColumnFile(rebuilt_path);
  for (auto& engine : engines) {
    auto attach = engine->Attach(rebuilt_source);
    ASSERT_TRUE(attach.ok())
        << engine->name() << ": " << attach.status().ToString();
  }

  for (core::TaskType task : core::kAllTasks) {
    const TaskOptions task_options = TaskOptions::Default(task);
    TaskResultSet over_delta;
    auto delta_metrics =
        RunTaskOverBatch(exec::QueryContext::Background(), *merged,
                         task_options, /*num_threads=*/2, &over_delta);
    ASSERT_TRUE(delta_metrics.ok())
        << "delta/" << core::TaskName(task) << ": "
        << delta_metrics.status().ToString();
    for (auto& engine : engines) {
      TaskResultSet over_rebuilt;
      auto metrics = engine->RunTask(task_options, &over_rebuilt);
      ASSERT_TRUE(metrics.ok())
          << engine->name() << "/" << core::TaskName(task) << ": "
          << metrics.status().ToString();
      SCOPED_TRACE(std::string(engine->name()) + "/" +
                   std::string(core::TaskName(task)));
      ExpectBitIdentical(over_delta, over_rebuilt, task);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-stage timings
// ---------------------------------------------------------------------------

TEST_F(PlanTest, LocalPlanReportsStageRowsSummingToTaskSeconds) {
  SystemCEngine engine((*dir_ / "spool_stages").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  TaskResultSet results;
  auto metrics =
      engine.RunTask(TaskOptions::Default(core::TaskType::kHistogram),
                     &results);
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->stages.size(), 3u);
  EXPECT_EQ(metrics->stages[0].name, "scan");
  EXPECT_EQ(metrics->stages[1].name, "kernel");
  EXPECT_EQ(metrics->stages[2].name, "materialize");
  double sum = 0.0;
  for (const auto& stage : metrics->stages) sum += stage.seconds;
  // Wall-clock stage rows cover the whole task up to inter-stage glue.
  EXPECT_NEAR(sum, metrics->seconds, 0.3 * metrics->seconds + 0.05);
}

TEST_F(PlanTest, SimulatedPlanStageRowsSumExactly) {
  HiveEngine engine(HiveOptions(64 << 10));
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  TaskResultSet results;
  auto metrics = engine.RunTask(
      TaskOptions::Default(core::TaskType::kThreeLine), &results);
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics->simulated);
  ASSERT_FALSE(metrics->stages.empty());
  // Simulated time is exactly the sum of its priced stages (the driver
  // row carries the job overhead).
  EXPECT_EQ(metrics->stages[0].name, "driver");
  EXPECT_EQ(metrics->stages[0].seconds,
            cluster::CostModel().hive_job_overhead_seconds);
  double sum = 0.0;
  for (const auto& stage : metrics->stages) sum += stage.seconds;
  EXPECT_NEAR(sum, metrics->seconds, 1e-9);
}

// ---------------------------------------------------------------------------
// Plan shape goldens
// ---------------------------------------------------------------------------

TEST_F(PlanTest, SystemCPlanGolden) {
  SystemCEngine engine((*dir_ / "spool_golden").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  auto plan = engine.BuildPlan(TaskOptions::Default(core::TaskType::kHistogram));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->DebugString(),
            "plan system-c/histogram/resident {\n"
            "  scan: scan[batch source=columnar-mmap]\n"
            "  kernel: kernel[histogram]\n"
            "  materialize: materialize\n"
            "}");
}

TEST_F(PlanTest, MadlibPlanGolden) {
  MadlibEngine engine;
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  auto plan =
      engine.BuildPlan(TaskOptions::Default(core::TaskType::kThreeLine));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->DebugString(),
            "plan madlib/3line/cold {\n"
            "  scan: scan[batch source=row-store]\n"
            "  kernel: kernel[3line]\n"
            "  materialize: materialize\n"
            "}");
}

TEST_F(PlanTest, MatlabPlanGolden) {
  MatlabEngine engine;
  ASSERT_TRUE(
      engine.Attach(*DataSource::PartitionedDir(*partitioned_files_)).ok());
  auto plan = engine.BuildPlan(TaskOptions::Default(core::TaskType::kPar));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->DebugString(),
            "plan matlab/par/per-file {\n"
            "  scan: scan[series source=household-files partitions=6]\n"
            "  kernel: kernel[par fused-scan]\n"
            "  materialize: materialize\n"
            "}");
}

TEST_F(PlanTest, SparkPlanGolden) {
  // A block size larger than the file keeps the split count at one, so
  // the golden stays stable.
  SparkEngine engine(SparkOptions(256 << 20));
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  auto plan =
      engine.BuildPlan(TaskOptions::Default(core::TaskType::kHistogram));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->DebugString(),
            "plan spark/histogram/format1 {\n"
            "  scan: scan[readings source=hdfs-rows partitions=1]\n"
            "  shuffle: shuffle[dataflow partitions=per-slot]\n"
            "  kernel: kernel[histogram]\n"
            "  materialize: materialize\n"
            "  merge: merge[sort=household_id]\n"
            "}");
  // Format 2 is map-only: whole households per line, no shuffle.
  ASSERT_TRUE(
      engine.Attach(*DataSource::HouseholdLines(household_lines_)).ok());
  auto lines =
      engine.BuildPlan(TaskOptions::Default(core::TaskType::kHistogram));
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->DebugString(),
            "plan spark/histogram/format2 {\n"
            "  scan: scan[series source=hdfs-lines partitions=1]\n"
            "  kernel: kernel[histogram broadcast]\n"
            "  materialize: materialize\n"
            "  merge: merge[sort=household_id]\n"
            "}");
  ExpectNoShuffleStage(&engine);
}

TEST_F(PlanTest, SparkFormat2ChargesTheTemperatureBroadcast) {
  // The format-2 temperature sidecar ships to every node as a broadcast
  // variable, so its per-node price moves the simulated time by exactly
  // bytes x price x nodes.
  const auto simulated_seconds = [](double seconds_per_mb_per_node) {
    SparkEngine::Options options = SparkOptions(256 << 20);
    options.cluster.cost.use_measured_compute = false;  // Deterministic.
    options.cluster.cost.broadcast_seconds_per_mb_per_node =
        seconds_per_mb_per_node;
    SparkEngine engine(options);
    EXPECT_TRUE(
        engine.Attach(*DataSource::HouseholdLines(household_lines_)).ok());
    TaskResultSet results;
    auto metrics = engine.RunTask(
        TaskOptions::Default(core::TaskType::kHistogram), &results);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return metrics.ok() ? metrics->seconds : 0.0;
  };
  const double cheap = simulated_seconds(0.0);
  const double pricey = simulated_seconds(1.0);
  // A 16-byte vector header plus one double per hour, to each of 4 nodes.
  const double sidecar_mb = (16.0 + 8.0 * kHoursPerYear) / (1024.0 * 1024.0);
  EXPECT_GT(pricey, cheap);
  EXPECT_NEAR(pricey - cheap, sidecar_mb * SmallCluster().num_nodes, 1e-9);
}

TEST_F(PlanTest, HivePlanGoldens) {
  HiveEngine engine(HiveOptions(256 << 20));
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  auto udaf = engine.BuildPlan(TaskOptions::Default(core::TaskType::kPar));
  ASSERT_TRUE(udaf.ok());
  EXPECT_EQ(udaf->DebugString(),
            "plan hive/par/format1 {\n"
            "  scan: scan[readings source=hdfs-rows partitions=1]\n"
            "  shuffle: shuffle[sort-merge partitions=per-slot]\n"
            "  kernel: kernel[par]\n"
            "  materialize: materialize\n"
            "  merge: merge[sort=household_id]\n"
            "}");
  auto join =
      engine.BuildPlan(TaskOptions::Default(core::TaskType::kSimilarity));
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->DebugString(),
            "plan hive/similarity/format1 {\n"
            "  scan: scan[readings source=hdfs-rows partitions=1]\n"
            "  shuffle: shuffle[sort-merge partitions=per-slot]\n"
            "  kernel: kernel[similarity self-join-shuffle]\n"
            "  materialize: materialize\n"
            "  merge: merge[sort=household_id]\n"
            "}");
  // Format 2 is a map-only generic-UDF plan: no shuffle.
  ASSERT_TRUE(
      engine.Attach(*DataSource::HouseholdLines(household_lines_)).ok());
  auto lines =
      engine.BuildPlan(TaskOptions::Default(core::TaskType::kHistogram));
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->DebugString(),
            "plan hive/histogram/format2 {\n"
            "  scan: scan[series source=hdfs-lines partitions=1]\n"
            "  kernel: kernel[histogram fused-scan broadcast]\n"
            "  materialize: materialize\n"
            "  merge: merge[sort=household_id]\n"
            "}");
  ExpectNoShuffleStage(&engine);
}

// ---------------------------------------------------------------------------
// Cancellation at partition boundaries
// ---------------------------------------------------------------------------

TEST_F(PlanTest, ExpiredDeadlineAbortsPartitionedPlan) {
  MatlabEngine engine;
  ASSERT_TRUE(
      engine.Attach(*DataSource::PartitionedDir(*partitioned_files_)).ok());
  exec::QueryContext ctx;
  ctx.set_deadline(exec::QueryContext::Clock::now() -
                   std::chrono::milliseconds(1));
  TaskResultSet results;
  auto metrics = engine.RunTask(
      ctx, TaskOptions::Default(core::TaskType::kHistogram), &results);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDeadlineExceeded)
      << metrics.status().ToString();
}

TEST_F(PlanTest, CancelledContextAbortsSimulatedPlan) {
  SparkEngine engine(SparkOptions(64 << 10));
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  exec::QueryContext ctx;
  ctx.RequestCancel();
  TaskResultSet results;
  auto metrics = engine.RunTask(
      ctx, TaskOptions::Default(core::TaskType::kThreeLine), &results);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kCancelled)
      << metrics.status().ToString();
}

TEST_F(PlanTest, DeadlineDuringRetryBackoffShedsCleanly) {
  // Every simulated attempt fails and the attempt budget is effectively
  // infinite, so without the stop check polled between retries this
  // query would grind through 2^30 simulated attempts per task. The
  // deadline expires while tasks are in retry backoff; the query must
  // shed promptly with kDeadlineExceeded and no partial results.
  SparkEngine::Options options = SparkOptions(64 << 10);
  options.cluster.faults.seed = 13;
  options.cluster.faults.task_failure_probability = 1.0;
  options.cluster.faults.max_task_attempts = 1 << 30;
  SparkEngine engine(options);
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  exec::QueryContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(50));
  TaskResultSet results;
  auto metrics = engine.RunTask(
      ctx, TaskOptions::Default(core::TaskType::kHistogram), &results);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDeadlineExceeded)
      << metrics.status().ToString();
  EXPECT_TRUE(results.empty());  // Clean shed, nothing half-merged.
}

// ---------------------------------------------------------------------------
// Row scopes and scatter-gather
// ---------------------------------------------------------------------------

TEST_F(PlanTest, ScopedPartialsGatherBitIdenticalToFullRun) {
  // The serving layer's scatter path: run each task over two disjoint
  // row slices of the same table, gather the partials through the plan
  // IR's Materialize + Merge stages, and require the result to match an
  // unscoped run bit for bit.
  SystemCEngine engine((*dir_ / "spool_scope").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  for (core::TaskType task : core::kAllTasks) {
    SCOPED_TRACE(core::TaskName(task));
    TaskResultSet baseline;
    ASSERT_TRUE(engine.RunTask(TaskOptions::Default(task), &baseline).ok());

    std::vector<TaskResultSet> partials(2);
    TaskOptions low = TaskOptions::Default(task);
    low.set_scope({0, kHouseholds / 2});
    ASSERT_TRUE(engine.RunTask(low, &partials[0]).ok());
    TaskOptions high = TaskOptions::Default(task);
    high.set_scope({kHouseholds / 2, 0});  // count 0 = through the last row.
    ASSERT_TRUE(engine.RunTask(high, &partials[1]).ok());
    ASSERT_EQ(partials[0].size() + partials[1].size(), baseline.size());

    TaskResultSet gathered;
    exec::PlanExecutor executor;
    auto metrics =
        executor.RunGather(exec::QueryContext::Background(),
                           std::move(partials),
                           /*sort_by_household=*/true, &gathered);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    ASSERT_EQ(metrics->stages.size(), 2u);
    EXPECT_EQ(metrics->stages[0].name, "materialize");
    EXPECT_EQ(metrics->stages[1].name, "merge");
    ExpectBitIdentical(gathered, baseline, task);
  }
}

TEST_F(PlanTest, ScopedKernelRendersScopeInPlanGolden) {
  SystemCEngine engine((*dir_ / "spool_scope_golden").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  TaskOptions options = TaskOptions::Default(core::TaskType::kHistogram);
  options.set_scope({3, 0});
  auto plan = engine.BuildPlan(options);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->DebugString().find("kernel[histogram scope=3+rest]"),
            std::string::npos)
      << plan->DebugString();
}

TEST_F(PlanTest, SeriesPlanRejectsRowScope) {
  // The per-file series path re-partitions by household and loses row
  // positions, so a scoped request must be rejected, not half-honored.
  MatlabEngine engine;
  ASSERT_TRUE(
      engine.Attach(*DataSource::PartitionedDir(*partitioned_files_)).ok());
  TaskOptions options = TaskOptions::Default(core::TaskType::kHistogram);
  options.set_scope({0, 3});
  TaskResultSet results;
  auto metrics = engine.RunTask(options, &results);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kNotSupported)
      << metrics.status().ToString();
}

TEST_F(PlanTest, GatherSkipsEmptyPartials) {
  // A shard whose slice is empty contributes a monostate partial; the
  // gather must pass it through without disturbing the merged order.
  SystemCEngine engine((*dir_ / "spool_gather_empty").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  TaskResultSet baseline;
  ASSERT_TRUE(
      engine.RunTask(TaskOptions::Default(core::TaskType::kHistogram),
                     &baseline)
          .ok());
  std::vector<TaskResultSet> partials(3);  // [0] and [2] stay monostate.
  ASSERT_TRUE(
      engine.RunTask(TaskOptions::Default(core::TaskType::kHistogram),
                     &partials[1])
          .ok());
  TaskResultSet gathered;
  exec::PlanExecutor executor;
  auto metrics = executor.RunGather(exec::QueryContext::Background(),
                                    std::move(partials),
                                    /*sort_by_household=*/true, &gathered);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ExpectBitIdentical(gathered, baseline, core::TaskType::kHistogram);
}

}  // namespace
}  // namespace smartmeter::engines
