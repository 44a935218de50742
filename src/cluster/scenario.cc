#include "cluster/scenario.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/seed_generator.h"
#include "engines/engine.h"
#include "engines/hive_engine.h"
#include "engines/madlib_engine.h"
#include "engines/matlab_engine.h"
#include "engines/spark_engine.h"
#include "engines/systemc_engine.h"
#include "engines/task_api.h"
#include "exec/serving_runner.h"
#include "storage/column_store.h"
#include "storage/csv.h"
#include "table/data_source.h"
#include "table/table_reader.h"

namespace smartmeter::scenario {

namespace {

namespace fs = std::filesystem;

using engines::TaskOptions;
using engines::TaskResultSet;

std::string FormatDouble(double value) {
  return StringPrintf("%.17g", value);
}

Result<core::TaskType> ParseTask(std::string_view name) {
  for (core::TaskType task : core::kAllTasks) {
    if (core::TaskName(task) == name) return task;
  }
  return Status::InvalidArgument("unknown scenario task: " +
                                 std::string(name));
}

Result<ScenarioSpec::ClusterLayout> ParseLayout(std::string_view name) {
  for (ScenarioSpec::ClusterLayout layout :
       {ScenarioSpec::ClusterLayout::kSingleCsv,
        ScenarioSpec::ClusterLayout::kHouseholdLines,
        ScenarioSpec::ClusterLayout::kWholeFileDir}) {
    if (ClusterLayoutName(layout) == name) return layout;
  }
  return Status::InvalidArgument("unknown scenario layout: " +
                                 std::string(name));
}

}  // namespace

std::string_view ClusterLayoutName(ScenarioSpec::ClusterLayout layout) {
  switch (layout) {
    case ScenarioSpec::ClusterLayout::kSingleCsv:
      return "single-csv";
    case ScenarioSpec::ClusterLayout::kHouseholdLines:
      return "household-lines";
    case ScenarioSpec::ClusterLayout::kWholeFileDir:
      return "whole-files";
  }
  return "unknown";
}

ScenarioSpec ScenarioSpec::Random(uint64_t seed) {
  Rng rng(seed ^ 0x5CEA2A105EEDULL);
  ScenarioSpec spec;
  spec.seed = seed;
  spec.households = 4 + static_cast<int>(rng.UniformInt(9));  // 4..12
  // 2..4 weeks; PAR needs at least 9 days of history per household.
  spec.hours = 24 * (14 + static_cast<int>(rng.UniformInt(15)));
  spec.task = core::kAllTasks[rng.UniformInt(4)];
  switch (rng.UniformInt(3)) {
    case 0:
      spec.cluster_layout = ClusterLayout::kSingleCsv;
      break;
    case 1:
      spec.cluster_layout = ClusterLayout::kHouseholdLines;
      break;
    default:
      spec.cluster_layout = ClusterLayout::kWholeFileDir;
      break;
  }
  // Spark rejects similarity over whole files by design (mirrors the
  // paper); don't generate the combination the engine refuses.
  if (spec.task == core::TaskType::kSimilarity &&
      spec.cluster_layout == ClusterLayout::kWholeFileDir) {
    spec.cluster_layout = ClusterLayout::kSingleCsv;
  }
  spec.wholefile_count = 2 + static_cast<int>(rng.UniformInt(3));
  spec.nodes = 2 + static_cast<int>(rng.UniformInt(15));  // 2..16
  spec.slots_per_node = 1 + static_cast<int>(rng.UniformInt(4));
  spec.block_bytes = int64_t{16} << (10 + rng.UniformInt(5));  // 16KB..256KB
  spec.num_racks = 1 + static_cast<int>(rng.UniformInt(4));
  if (spec.num_racks > 1) {
    spec.intra_rack_mb_per_s = rng.Uniform(50.0, 200.0);
    spec.cross_rack_mb_per_s = rng.Uniform(10.0, 50.0);
  }
  if (rng.NextDouble() < 0.5) {
    spec.failure_probability = rng.Uniform(0.05, 0.3);
    spec.max_task_attempts = 3 + static_cast<int>(rng.UniformInt(4));
    spec.retry_backoff_seconds = rng.Uniform(0.1, 1.0);
  }
  if (rng.NextDouble() < 0.5) {
    spec.straggler_probability = rng.Uniform(0.05, 0.4);
    spec.straggler_multiplier_min = rng.Uniform(1.5, 3.0);
    spec.straggler_multiplier_max =
        spec.straggler_multiplier_min + rng.Uniform(1.0, 7.0);
  }
  spec.speculation = rng.NextDouble() < 0.5;
  spec.speculation_slow_factor = rng.Uniform(1.2, 2.5);
  return spec;
}

cluster::ClusterConfig ScenarioSpec::ToClusterConfig() const {
  cluster::ClusterConfig config;
  config.num_nodes = nodes;
  config.slots_per_node = slots_per_node;
  // Deterministic simulated cost: modeled compute instead of measured
  // host CPU time, so same seed ⇒ same wall-clock to the last bit.
  config.cost.use_measured_compute = false;
  config.topology.num_racks = num_racks;
  config.topology.intra_rack_mb_per_s = intra_rack_mb_per_s;
  config.topology.cross_rack_mb_per_s = cross_rack_mb_per_s;
  config.faults.seed = seed;
  config.faults.task_failure_probability = failure_probability;
  config.faults.max_task_attempts = max_task_attempts;
  config.faults.retry_backoff_seconds = retry_backoff_seconds;
  config.faults.straggler_probability = straggler_probability;
  config.faults.straggler_multiplier_min = straggler_multiplier_min;
  config.faults.straggler_multiplier_max = straggler_multiplier_max;
  config.faults.speculative_execution = speculation;
  config.faults.speculation_slow_factor = speculation_slow_factor;
  return config;
}

std::string ScenarioSpec::ToSeedText() const {
  std::ostringstream out;
  out << "# smartmeter-scenario/v1\n";
  out << "seed=" << seed << "\n";
  out << "households=" << households << "\n";
  out << "hours=" << hours << "\n";
  out << "task=" << core::TaskName(task) << "\n";
  out << "layout=" << ClusterLayoutName(cluster_layout) << "\n";
  out << "wholefile_count=" << wholefile_count << "\n";
  out << "nodes=" << nodes << "\n";
  out << "slots=" << slots_per_node << "\n";
  out << "block_bytes=" << block_bytes << "\n";
  out << "racks=" << num_racks << "\n";
  out << "intra_rack_mb_per_s=" << FormatDouble(intra_rack_mb_per_s) << "\n";
  out << "cross_rack_mb_per_s=" << FormatDouble(cross_rack_mb_per_s) << "\n";
  out << "failure_probability=" << FormatDouble(failure_probability) << "\n";
  out << "max_task_attempts=" << max_task_attempts << "\n";
  out << "retry_backoff_seconds=" << FormatDouble(retry_backoff_seconds)
      << "\n";
  out << "straggler_probability=" << FormatDouble(straggler_probability)
      << "\n";
  out << "straggler_multiplier_min="
      << FormatDouble(straggler_multiplier_min) << "\n";
  out << "straggler_multiplier_max="
      << FormatDouble(straggler_multiplier_max) << "\n";
  out << "speculation=" << (speculation ? 1 : 0) << "\n";
  out << "speculation_slow_factor=" << FormatDouble(speculation_slow_factor)
      << "\n";
  return out.str();
}

Result<ScenarioSpec> ScenarioSpec::FromSeedText(const std::string& text) {
  ScenarioSpec spec;
  for (std::string_view line : SplitString(text, '\n')) {
    line = TrimWhitespace(line);
    if (line.empty() || line.front() == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("scenario line without '=': " +
                                     std::string(line));
    }
    const std::string_view key = TrimWhitespace(line.substr(0, eq));
    const std::string_view value = TrimWhitespace(line.substr(eq + 1));
    if (key == "seed") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.seed = static_cast<uint64_t>(v);
    } else if (key == "households") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.households = static_cast<int>(v);
    } else if (key == "hours") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.hours = static_cast<int>(v);
    } else if (key == "task") {
      SM_ASSIGN_OR_RETURN(spec.task, ParseTask(value));
    } else if (key == "layout") {
      SM_ASSIGN_OR_RETURN(spec.cluster_layout, ParseLayout(value));
    } else if (key == "wholefile_count") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.wholefile_count = static_cast<int>(v);
    } else if (key == "nodes") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.nodes = static_cast<int>(v);
    } else if (key == "slots") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.slots_per_node = static_cast<int>(v);
    } else if (key == "block_bytes") {
      SM_ASSIGN_OR_RETURN(spec.block_bytes, ParseInt64(value));
    } else if (key == "racks") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.num_racks = static_cast<int>(v);
    } else if (key == "intra_rack_mb_per_s") {
      SM_ASSIGN_OR_RETURN(spec.intra_rack_mb_per_s, ParseDouble(value));
    } else if (key == "cross_rack_mb_per_s") {
      SM_ASSIGN_OR_RETURN(spec.cross_rack_mb_per_s, ParseDouble(value));
    } else if (key == "failure_probability") {
      SM_ASSIGN_OR_RETURN(spec.failure_probability, ParseDouble(value));
    } else if (key == "max_task_attempts") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.max_task_attempts = static_cast<int>(v);
    } else if (key == "retry_backoff_seconds") {
      SM_ASSIGN_OR_RETURN(spec.retry_backoff_seconds, ParseDouble(value));
    } else if (key == "straggler_probability") {
      SM_ASSIGN_OR_RETURN(spec.straggler_probability, ParseDouble(value));
    } else if (key == "straggler_multiplier_min") {
      SM_ASSIGN_OR_RETURN(spec.straggler_multiplier_min, ParseDouble(value));
    } else if (key == "straggler_multiplier_max") {
      SM_ASSIGN_OR_RETURN(spec.straggler_multiplier_max, ParseDouble(value));
    } else if (key == "speculation") {
      SM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      spec.speculation = v != 0;
    } else if (key == "speculation_slow_factor") {
      SM_ASSIGN_OR_RETURN(spec.speculation_slow_factor, ParseDouble(value));
    } else {
      return Status::InvalidArgument("unknown scenario key: " +
                                     std::string(key));
    }
  }
  return spec;
}

Status ScenarioSpec::WriteSeedFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write scenario file: " + path);
  out << ToSeedText();
  out.close();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<ScenarioSpec> ScenarioSpec::ReadSeedFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read scenario file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return FromSeedText(text.str());
}

namespace {

/// Bit-exact result comparison across engines; returns "" on agreement,
/// otherwise a description of the first mismatch.
std::string CompareResults(const TaskResultSet& got,
                           const TaskResultSet& want, core::TaskType task) {
  switch (task) {
    case core::TaskType::kHistogram: {
      const auto& g = got.Get<core::HistogramResult>();
      const auto& w = want.Get<core::HistogramResult>();
      if (g.size() != w.size()) return "histogram result count differs";
      for (size_t i = 0; i < g.size(); ++i) {
        if (g[i].household_id != w[i].household_id ||
            g[i].histogram.counts != w[i].histogram.counts) {
          return "histogram row " + std::to_string(i) + " differs";
        }
      }
      return "";
    }
    case core::TaskType::kThreeLine: {
      const auto& g = got.Get<core::ThreeLineResult>();
      const auto& w = want.Get<core::ThreeLineResult>();
      if (g.size() != w.size()) return "3line result count differs";
      for (size_t i = 0; i < g.size(); ++i) {
        if (g[i].household_id != w[i].household_id ||
            g[i].heating_gradient != w[i].heating_gradient ||
            g[i].cooling_gradient != w[i].cooling_gradient ||
            g[i].base_load != w[i].base_load) {
          return "3line row " + std::to_string(i) + " differs";
        }
      }
      return "";
    }
    case core::TaskType::kPar: {
      const auto& g = got.Get<core::DailyProfileResult>();
      const auto& w = want.Get<core::DailyProfileResult>();
      if (g.size() != w.size()) return "par result count differs";
      for (size_t i = 0; i < g.size(); ++i) {
        if (g[i].household_id != w[i].household_id ||
            g[i].profile != w[i].profile) {
          return "par row " + std::to_string(i) + " differs";
        }
      }
      return "";
    }
    case core::TaskType::kSimilarity: {
      const auto& g = got.Get<core::SimilarityResult>();
      const auto& w = want.Get<core::SimilarityResult>();
      if (g.size() != w.size()) return "similarity result count differs";
      for (size_t i = 0; i < g.size(); ++i) {
        if (g[i].household_id != w[i].household_id ||
            g[i].matches.size() != w[i].matches.size()) {
          return "similarity row " + std::to_string(i) + " differs";
        }
        for (size_t m = 0; m < g[i].matches.size(); ++m) {
          if (g[i].matches[m].household_id != w[i].matches[m].household_id ||
              g[i].matches[m].cosine != w[i].matches[m].cosine) {
            return "similarity row " + std::to_string(i) + " match " +
                   std::to_string(m) + " differs";
          }
        }
      }
      return "";
    }
  }
  return "unknown task";
}

EngineRunSummary Summarize(
    std::string engine,
    const Result<engines::TaskRunMetrics>& metrics) {
  EngineRunSummary summary;
  summary.engine = std::move(engine);
  if (!metrics.ok()) {
    summary.status = metrics.status().ToString();
    return summary;
  }
  summary.simulated_seconds = metrics->seconds;
  summary.retries = metrics->faults.retries;
  summary.stragglers = metrics->faults.stragglers;
  summary.speculative_launched = metrics->faults.speculative_launched;
  summary.speculative_wins = metrics->faults.speculative_wins;
  summary.stage_rows.reserve(metrics->stages.size());
  for (const exec::StageTiming& stage : metrics->stages) {
    summary.stage_rows.push_back(StringPrintf(
        "%s p=%d t=%.17g r=%lld sg=%lld sl=%lld sw=%lld",
        stage.name.c_str(), stage.partitions, stage.seconds,
        static_cast<long long>(stage.retries),
        static_cast<long long>(stage.stragglers),
        static_cast<long long>(stage.speculative_launched),
        static_cast<long long>(stage.speculative_wins)));
  }
  return summary;
}

/// Plan invariants every successful simulated run must satisfy.
std::string CheckInvariants(const ScenarioSpec& spec,
                            const engines::TaskRunMetrics& metrics) {
  if (!metrics.simulated) return "cluster engine reported unsimulated time";
  if (metrics.stages.empty()) return "simulated run has no stage rows";
  double sum = 0.0;
  for (const exec::StageTiming& stage : metrics.stages) {
    sum += stage.seconds;
  }
  const double tolerance = 1e-9 * std::max(1.0, metrics.seconds);
  if (std::fabs(sum - metrics.seconds) > tolerance) {
    return StringPrintf("stage seconds %.17g do not sum to task %.17g", sum,
                        metrics.seconds);
  }
  const auto& faults = metrics.faults;
  if (spec.failure_probability == 0.0 && faults.retries != 0) {
    return "retries injected with failure_probability=0";
  }
  if (spec.straggler_probability == 0.0 && faults.stragglers != 0) {
    return "stragglers injected with straggler_probability=0";
  }
  if (!spec.speculation && (faults.speculative_launched != 0 ||
                            faults.speculative_wins != 0)) {
    return "speculation ran while disabled";
  }
  if (faults.speculative_wins > faults.speculative_launched) {
    return "more speculative wins than launches";
  }
  return "";
}

}  // namespace

std::string EngineRunSummary::DebugString() const {
  std::ostringstream out;
  out << engine << ": " << status
      << " seconds=" << FormatDouble(simulated_seconds)
      << " retries=" << retries << " stragglers=" << stragglers
      << " spec=" << speculative_launched << "/" << speculative_wins;
  for (const std::string& row : stage_rows) out << "\n    " << row;
  return out.str();
}

Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    const std::string& workdir) {
  if (spec.households < 1 || spec.hours < 24 || spec.nodes < 1 ||
      spec.slots_per_node < 1 || spec.block_bytes < 1) {
    return Status::InvalidArgument("degenerate scenario spec");
  }
  std::error_code ec;
  fs::create_directories(workdir, ec);
  if (ec) return Status::IOError("cannot create workdir: " + workdir);

  datagen::SeedGeneratorOptions gen;
  gen.num_households = spec.households;
  gen.hours = spec.hours;
  gen.seed = spec.seed;
  SM_ASSIGN_OR_RETURN(MeterDataset dataset,
                      datagen::GenerateSeedDataset(gen));
  const std::string single_csv = workdir + "/data.csv";
  SM_RETURN_IF_ERROR(storage::WriteReadingsCsv(dataset, single_csv));
  SM_ASSIGN_OR_RETURN(table::DataSource base_source,
                      table::DataSource::SingleCsv(single_csv));

  table::DataSource cluster_source = base_source;
  switch (spec.cluster_layout) {
    case ScenarioSpec::ClusterLayout::kSingleCsv:
      break;
    case ScenarioSpec::ClusterLayout::kHouseholdLines: {
      const std::string lines = workdir + "/lines.csv";
      SM_RETURN_IF_ERROR(storage::WriteHouseholdLinesCsv(dataset, lines));
      SM_ASSIGN_OR_RETURN(cluster_source,
                          table::DataSource::HouseholdLines(lines));
      break;
    }
    case ScenarioSpec::ClusterLayout::kWholeFileDir: {
      SM_ASSIGN_OR_RETURN(
          std::vector<std::string> files,
          storage::WriteWholeHouseholdFiles(dataset, workdir + "/files",
                                            spec.wholefile_count));
      SM_ASSIGN_OR_RETURN(cluster_source,
                          table::DataSource::WholeFileDir(std::move(files)));
      break;
    }
  }

  const TaskOptions options = TaskOptions::Default(spec.task);
  ScenarioOutcome outcome;

  // System C is the parity baseline (same file bytes, same kernels).
  engines::SystemCEngine systemc(workdir + "/spool");
  SM_RETURN_IF_ERROR(systemc.Attach(base_source).status());
  TaskResultSet baseline;
  SM_RETURN_IF_ERROR(systemc.RunTask(options, &baseline).status());

  // Local engines: faults never touch them; parity must always hold.
  {
    engines::MadlibEngine madlib;
    engines::MatlabEngine matlab;
    std::pair<const char*, engines::AnalyticsEngine*> locals[] = {
        {"madlib", &madlib}, {"matlab", &matlab}};
    for (auto& [name, engine] : locals) {
      SM_RETURN_IF_ERROR(engine->Attach(base_source).status());
      TaskResultSet results;
      SM_RETURN_IF_ERROR(engine->RunTask(options, &results).status());
      const std::string diff = CompareResults(results, baseline, spec.task);
      if (!diff.empty()) {
        outcome.violation =
            std::string(name) + " parity vs system-c: " + diff;
        return outcome;
      }
    }
  }

  // Storage parity: the dataset the engines actually parse, rendered as
  // an SMCOLV2 column file, must reproduce the CSV baseline bit for bit —
  // compression may not change a single result bit. The column file is
  // written from the CSV parse (not the pre-quantization dataset) so both
  // inputs hold identical values.
  {
    SM_ASSIGN_OR_RETURN(MeterDataset parsed,
                        table::ReadDatasetFromSource(base_source));
    const std::string path = workdir + "/cols.smcol";
    SM_RETURN_IF_ERROR(storage::ColumnFileWriter::WriteFile(parsed, path));
    SM_ASSIGN_OR_RETURN(table::DataSource column_source,
                        table::DataSource::ColumnFile(path));
    engines::SystemCEngine engine(workdir + "/spool_columns");
    SM_RETURN_IF_ERROR(engine.Attach(column_source).status());
    TaskResultSet results;
    SM_RETURN_IF_ERROR(engine.RunTask(options, &results).status());
    const std::string diff = CompareResults(results, baseline, spec.task);
    if (!diff.empty()) {
      outcome.violation = "smcolv2 parity vs csv baseline: " + diff;
      return outcome;
    }
  }

  // Sharded serving: a 4-shard scatter-gather over the same bytes must
  // reproduce the unsharded baseline bit for bit (the serving layer's
  // routing, scoped kernels, and gather merge are all on this path).
  {
    exec::ServingOptions serving_options;
    serving_options.num_shards = 4;
    serving_options.keep_results = true;
    exec::ServingRunner runner(serving_options);
    SM_RETURN_IF_ERROR(runner.OpenRouting(base_source, workdir + "/routing"));
    std::vector<std::unique_ptr<engines::SystemCEngine>> sessions;
    for (int s = 0; s < 4; ++s) {
      sessions.push_back(std::make_unique<engines::SystemCEngine>(
          workdir + "/spool_shard" + std::to_string(s)));
      SM_RETURN_IF_ERROR(sessions.back()->Attach(base_source).status());
      runner.AddSession(sessions.back().get());
    }
    SM_ASSIGN_OR_RETURN(exec::QueryRequest request,
                        exec::QueryRequest::Builder()
                            .Task(options)
                            .Tenant("scenario")
                            .Label("sharded-parity")
                            .Build());
    SM_ASSIGN_OR_RETURN(std::shared_ptr<exec::QueryTicket> ticket,
                        runner.Submit(request));
    const exec::QueryOutcome& serving_outcome = ticket->Wait();
    runner.Shutdown();
    if (!serving_outcome.status.ok()) {
      outcome.violation = "sharded serving failed: " +
                          serving_outcome.status.ToString();
      return outcome;
    }
    const std::string diff =
        CompareResults(serving_outcome.results, baseline, spec.task);
    if (!diff.empty()) {
      outcome.violation = "sharded serving parity vs system-c: " + diff;
      return outcome;
    }
  }

  // Cluster engines run the scenario layout under fault injection,
  // twice each: run 1 is the verdict, run 2 the determinism witness.
  const cluster::ClusterConfig config = spec.ToClusterConfig();
  for (const char* name : {"spark", "hive"}) {
    EngineRunSummary runs[2];
    TaskResultSet results[2];
    bool ok[2] = {false, false};
    // A rejected Attach (layout an engine refuses) or an aborted job is a
    // deterministic scenario outcome, recorded in the summary status; the
    // determinism assertion still applies to it.
    const auto run_once =
        [&](TaskResultSet* out) -> Result<engines::TaskRunMetrics> {
      if (std::string_view(name) == "spark") {
        engines::SparkEngine::Options engine_options;
        engine_options.cluster = config;
        engine_options.block_bytes = spec.block_bytes;
        engines::SparkEngine engine(engine_options);
        SM_RETURN_IF_ERROR(engine.Attach(cluster_source).status());
        return engine.RunTask(options, out);
      }
      engines::HiveEngine::Options engine_options;
      engine_options.cluster = config;
      engine_options.block_bytes = spec.block_bytes;
      engines::HiveEngine engine(engine_options);
      SM_RETURN_IF_ERROR(engine.Attach(cluster_source).status());
      return engine.RunTask(options, out);
    };
    for (int attempt = 0; attempt < 2; ++attempt) {
      Result<engines::TaskRunMetrics> metrics = run_once(&results[attempt]);
      ok[attempt] = metrics.ok();
      runs[attempt] = Summarize(name, metrics);
      if (metrics.ok()) {
        const std::string bad = CheckInvariants(spec, *metrics);
        if (!bad.empty()) {
          outcome.violation = std::string(name) + " invariant: " + bad;
          outcome.cluster_runs.push_back(runs[attempt]);
          return outcome;
        }
      }
    }
    if (!(runs[0] == runs[1])) {
      outcome.violation = std::string(name) +
                          " is not seed-deterministic:\n  run1 " +
                          runs[0].DebugString() + "\n  run2 " +
                          runs[1].DebugString();
      outcome.cluster_runs.push_back(runs[0]);
      return outcome;
    }
    if (ok[0]) {
      const std::string diff =
          CompareResults(results[0], baseline, spec.task);
      if (!diff.empty()) {
        outcome.violation =
            std::string(name) + " parity vs system-c: " + diff;
        outcome.cluster_runs.push_back(runs[0]);
        return outcome;
      }
    }
    outcome.cluster_runs.push_back(runs[0]);
  }
  return outcome;
}

}  // namespace smartmeter::scenario
