#include "ledger.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "datagen/generator.h"
#include "datagen/seed_generator.h"

namespace smartmeter::ledger {

namespace fs = std::filesystem;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Metrics / Checks
// ---------------------------------------------------------------------------

void Metrics::Set(MetricKind kind, const std::string& name, double value,
                  const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.name == name) {
      e = {kind, name, value, unit};
      return;
    }
  }
  entries_.push_back({kind, name, value, unit});
}

void Metrics::Print(std::initializer_list<MetricKind> kinds) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (std::find(kinds.begin(), kinds.end(), e.kind) == kinds.end()) {
      continue;
    }
    std::printf("%s %.9g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::fflush(stdout);
}

void Checks::Expect(bool ok, const std::string& name,
                    const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back({name, ok, detail});
}

bool Checks::all_ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::all_of(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return e.ok; });
}

void Checks::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    std::printf("# check %s: %s %s\n", e.name.c_str(), e.ok ? "ok" : "FAIL",
                e.detail.c_str());
  }
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

/// Innermost open span on this thread, the parent of the next one.
thread_local uint64_t current_span = 0;

std::string Layer(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNanos() const {
  return ToNanos(std::chrono::steady_clock::now());
}

int64_t Tracer::ToNanos(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

uint64_t Tracer::Record(std::string name, int64_t begin_ns, int64_t end_ns,
                        uint64_t parent, uint64_t query_id) {
  const uint64_t id = NewId();
  RecordWithId(id, std::move(name), begin_ns, end_ns, parent, query_id);
  return id;
}

void Tracer::RecordWithId(uint64_t id, std::string name, int64_t begin_ns,
                          int64_t end_ns, uint64_t parent,
                          uint64_t query_id) {
  SpanRecord span{std::move(name), begin_ns, end_ns,     id,
                  parent,          query_id, ThreadIndex()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write trace " + path);
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    // Span names are the benchmark's own identifiers: no characters
    // that need JSON escaping.
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"query_id\":%llu}}%s\n",
                 s.name.c_str(), Layer(s.name).c_str(), s.thread,
                 static_cast<double>(s.begin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return Status::IOError("cannot close " + path);
  return Status::OK();
}

void Tracer::PrintSelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.begin_ns;
  }
  std::map<std::string, int64_t> self_ns;
  for (const SpanRecord& s : spans_) {
    const auto it = child_ns.find(s.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    self_ns[Layer(s.name)] +=
        std::max<int64_t>(0, s.end_ns - s.begin_ns - children);
  }
  for (const auto& [layer, ns] : self_ns) {
    std::printf("# self %s %.3f ms\n", layer.c_str(),
                static_cast<double>(ns) / 1e6);
  }
}

Span::Span(Tracer* tracer, const char* name, uint64_t query_id)
    : tracer_(tracer), name_(name), query_id_(query_id) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NewId();
  parent_ = current_span;
  current_span = id_;
  begin_ns_ = tracer_->NowNanos();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->RecordWithId(id_, name_, begin_ns_, tracer_->NowNanos(), parent_,
                        query_id_);
  current_span = parent_;
}

// ---------------------------------------------------------------------------
// Inputs and result checks
// ---------------------------------------------------------------------------

Result<MeterDataset> GenerateDataset(int households, int hours,
                                     uint64_t seed) {
  datagen::SeedGeneratorOptions seed_options;
  seed_options.num_households = std::min(households, 100);
  seed_options.hours = hours;
  seed_options.seed = seed;
  SM_ASSIGN_OR_RETURN(MeterDataset seed_data,
                      datagen::GenerateSeedDataset(seed_options));
  datagen::DataGeneratorOptions gen_options;
  gen_options.num_clusters = 8;
  gen_options.noise_sigma = 0.08;
  SM_ASSIGN_OR_RETURN(datagen::DataGenerator generator,
                      datagen::DataGenerator::Train(seed_data, gen_options));
  return generator.Generate(households, seed_data.temperature(), seed + 1);
}

namespace {

class Hasher {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const std::vector<double>& v) {
    Add(static_cast<uint64_t>(v.size()));
    for (double x : v) Add(x);
  }
  void Add(const stats::LinearFit& fit) {
    Add(fit.slope);
    Add(fit.intercept);
    Add(fit.r_squared);
    Add(static_cast<uint64_t>(fit.n));
  }
  void Add(const core::PiecewiseLines& lines) {
    for (const core::LineSegment* seg : {&lines.left, &lines.mid, &lines.right}) {
      Add(seg->t_low);
      Add(seg->t_high);
      Add(seg->fit);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t Fingerprint(const engines::TaskResultSet& results) {
  Hasher h;
  std::visit(
      [&h](const auto& rows) {
        using T = std::decay_t<decltype(rows)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          h.Add(uint64_t{0});
        } else {
          h.Add(static_cast<uint64_t>(rows.size()));
          for (const auto& r : rows) {
            h.Add(r.household_id);
            using Row = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<Row, core::HistogramResult>) {
              h.Add(r.histogram.min);
              h.Add(r.histogram.max);
              for (int64_t c : r.histogram.counts) h.Add(c);
            } else if constexpr (std::is_same_v<Row, core::ThreeLineResult>) {
              h.Add(r.p90);
              h.Add(r.p10);
              h.Add(r.heating_gradient);
              h.Add(r.cooling_gradient);
              h.Add(r.base_load);
            } else if constexpr (std::is_same_v<Row,
                                                core::DailyProfileResult>) {
              h.Add(r.profile);
              for (const auto& c : r.coefficients) h.Add(c);
              h.Add(r.temperature_beta);
            } else {
              for (const auto& m : r.matches) {
                h.Add(m.household_id);
                h.Add(m.cosine);
              }
            }
          }
        }
      },
      results.variant());
  return h.value();
}

std::string TaskKey(core::TaskType task) {
  return task == core::TaskType::kThreeLine ? "threeline"
                                            : std::string(core::TaskName(task));
}

Status FreshDirectory(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path, ec);
  if (ec) return Status::IOError("cannot create " + path + ": " + ec.message());
  return Status::OK();
}

RemoveOnExit::~RemoveOnExit() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

}  // namespace smartmeter::ledger
