#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/histogram_task.h"
#include "core/par_task.h"
#include "core/similarity_task.h"
#include "core/three_line_task.h"
#include "datagen/temperature_model.h"
#include "simd/simd.h"
#include "storage/block_codec.h"
#include "timeseries/calendar.h"

namespace smartmeter::core {
namespace {

// ---------------------------------------------------------------------------
// Synthetic consumers with known ground truth
// ---------------------------------------------------------------------------

struct SyntheticConsumer {
  std::vector<double> consumption;
  std::vector<double> temperature;
};

/// A consumer with an exactly known thermal response:
///   load = base + heat_g * max(0, heat_bal - T) + cool_g * max(0, T - cool_bal)
///        + activity(hour) + noise
SyntheticConsumer MakeThermalConsumer(double base, double heat_gradient,
                                      double heat_balance,
                                      double cool_gradient,
                                      double cool_balance,
                                      double noise_sigma, uint64_t seed) {
  datagen::TemperatureModelOptions temp_options;
  temp_options.seed = seed;
  SyntheticConsumer consumer;
  consumer.temperature =
      datagen::GenerateTemperatureSeries(kHoursPerYear, temp_options);
  Rng rng(seed + 1);
  consumer.consumption.reserve(kHoursPerYear);
  for (int t = 0; t < kHoursPerYear; ++t) {
    const double temp = consumer.temperature[static_cast<size_t>(t)];
    const double heating = heat_gradient * std::max(0.0, heat_balance - temp);
    const double cooling = cool_gradient * std::max(0.0, temp - cool_balance);
    const double noise = noise_sigma * rng.NextDouble();  // One-sided.
    consumer.consumption.push_back(base + heating + cooling + noise);
  }
  return consumer;
}

// ---------------------------------------------------------------------------
// Histogram task
// ---------------------------------------------------------------------------

TEST(HistogramTaskTest, DefaultIsTenBuckets) {
  std::vector<double> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  auto hist = ComputeConsumptionHistogram(v);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->counts.size(), 10u);
  EXPECT_EQ(hist->TotalCount(), 100);
}

TEST(HistogramTaskTest, YearOfDataCountsEveryHour) {
  Rng rng(2);
  std::vector<double> v(kHoursPerYear);
  for (double& x : v) x = rng.Uniform(0, 4);
  auto hist = ComputeConsumptionHistogram(v);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->TotalCount(), kHoursPerYear);
}

// ---------------------------------------------------------------------------
// 3-line task
// ---------------------------------------------------------------------------

TEST(ThreeLineTaskTest, RecoversGradientsAndBaseLoad) {
  // Heating 0.15 kWh/C below 12C, cooling 0.10 kWh/C above 20C,
  // base 0.4 kWh, modest noise.
  const SyntheticConsumer c = MakeThermalConsumer(
      0.4, 0.15, 12.0, 0.10, 20.0, 0.05, /*seed=*/7);
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->heating_gradient, 0.15, 0.03);
  EXPECT_NEAR(result->cooling_gradient, 0.10, 0.03);
  EXPECT_NEAR(result->base_load, 0.4, 0.08);
}

TEST(ThreeLineTaskTest, FlatConsumerHasNoGradients) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.5, 0.0, 12.0, 0.0, 20.0, 0.02, /*seed=*/11);
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->heating_gradient, 0.0, 0.01);
  EXPECT_NEAR(result->cooling_gradient, 0.0, 0.01);
  EXPECT_NEAR(result->base_load, 0.5, 0.03);
}

TEST(ThreeLineTaskTest, PiecewiseModelIsContinuous) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.3, 0.2, 13.0, 0.12, 19.0, 0.1, /*seed=*/13);
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok());
  for (const PiecewiseLines* lines : {&result->p90, &result->p10}) {
    const double t1 = lines->left.t_high;
    const double t2 = lines->mid.t_high;
    EXPECT_NEAR(lines->left.ValueAt(t1), lines->mid.ValueAt(t1), 1e-9);
    EXPECT_NEAR(lines->mid.ValueAt(t2), lines->right.ValueAt(t2), 1e-9);
    EXPECT_LT(lines->left.t_low, t1);
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, lines->right.t_high);
  }
}

TEST(ThreeLineTaskTest, P90DominatesP10) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.3, 0.15, 12.0, 0.1, 20.0, 0.3, /*seed=*/17);
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok());
  // Evaluate both bands across the range: the 90th percentile band must
  // sit above the 10th.
  for (double t = -10; t <= 30; t += 2.5) {
    EXPECT_GE(result->p90.ValueAt(t), result->p10.ValueAt(t) - 1e-6) << t;
  }
}

TEST(ThreeLineTaskTest, PhaseTimesAccumulate) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.4, 0.1, 12.0, 0.1, 20.0, 0.05, /*seed=*/19);
  ThreeLinePhases phases;
  ASSERT_TRUE(
      ComputeThreeLine(c.consumption, c.temperature, 1, {}, &phases).ok());
  EXPECT_GT(phases.quantile_seconds, 0.0);
  EXPECT_GT(phases.regression_seconds, 0.0);
  EXPECT_GE(phases.adjust_seconds, 0.0);
}

TEST(ThreeLineTaskTest, SkewedInputNeverReallocatesBandVectors) {
  // A near-constant consumer is the pathological case for the old
  // size()/8 reserve heuristic: almost every reading sits at or beyond
  // both percentile thresholds, so both bands hold close to ALL of the
  // readings and the vectors regrew repeatedly. The counting pass sizes
  // them exactly; the phases counter proves it.
  std::vector<double> consumption, temperature;
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    temperature.push_back(rng.Uniform(0.0, 10.0));
    consumption.push_back(1.0);  // Constant: p10 == p90 == 1.0.
  }
  ThreeLinePhases phases;
  auto result =
      ComputeThreeLine(consumption, temperature, 1, {}, &phases);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(phases.band_reallocs, 0u);
  // Every reading is in both bands: 2 * 3000 band points.
  EXPECT_EQ(phases.band_points, 6000u);
}

TEST(ThreeLineTaskTest, JunkTemperaturesAreIgnored) {
  // NaN / infinite temperatures used to hit an undefined float->int
  // cast in the binning; now they saturate into a sentinel bin that
  // never defines thresholds, so the fit just ignores them.
  SyntheticConsumer c = MakeThermalConsumer(
      0.4, 0.1, 12.0, 0.1, 20.0, 0.05, /*seed=*/41);
  c.temperature[10] = std::numeric_limits<double>::quiet_NaN();
  c.temperature[20] = std::numeric_limits<double>::infinity();
  c.temperature[30] = -std::numeric_limits<double>::infinity();
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::isfinite(result->heating_gradient));
  EXPECT_TRUE(std::isfinite(result->cooling_gradient));
}

TEST(ThreeLineTaskTest, RejectsDegenerateInput) {
  EXPECT_FALSE(ComputeThreeLine({}, {}, 1).ok());
  const std::vector<double> c = {1.0, 2.0};
  const std::vector<double> t = {1.0};
  EXPECT_FALSE(ComputeThreeLine(c, t, 1).ok());
  // Single temperature bin cannot support three lines.
  const std::vector<double> c2(100, 1.0);
  const std::vector<double> t2(100, 5.0);
  EXPECT_FALSE(ComputeThreeLine(c2, t2, 1).ok());
}

TEST(ThreeLineTaskTest, MinPointsPerBinFiltersSparseBins) {
  // 30 readings spread over 3 bins + 1 outlier reading at T=50.
  std::vector<double> consumption, temperature;
  Rng rng(23);
  for (int bin = 0; bin < 6; ++bin) {
    for (int i = 0; i < 30; ++i) {
      temperature.push_back(bin * 2.0 + 0.3);
      consumption.push_back(1.0 + rng.NextDouble() * 0.1);
    }
  }
  temperature.push_back(50.0);
  consumption.push_back(99.0);
  ThreeLineOptions options;
  options.min_points_per_bin = 5;
  options.temperature_bin_width = 2.0;
  auto result = ComputeThreeLine(consumption, temperature, 1, options);
  ASSERT_TRUE(result.ok());
  // The outlier bin was dropped: the fitted range ends well below 50 C.
  EXPECT_LT(result->p90.right.t_high, 20.0);
}

// ---------------------------------------------------------------------------
// 3-line bitwise golden: a hash over every output bit of seeded
// households. Engine-vs-engine parity moves both sides when the kernel
// changes; this pins the kernel itself.
// ---------------------------------------------------------------------------

constexpr int kGoldenHouseholds = 32;

/// |x| without libm, so the inputs below are built from Rng draws and
/// +, -, *, / only and are bit-identical on every compiler and SIMD
/// level CI builds.
double Abs(double x) { return x < 0.0 ? -x : x; }

struct GoldenInputs {
  std::vector<double> temperature;
  std::vector<std::vector<double>> consumption;
};

GoldenInputs MakeGoldenInputs() {
  Rng rng(20150323);
  GoldenInputs in;
  in.temperature.resize(kHoursPerYear);
  for (int t = 0; t < kHoursPerYear; ++t) {
    // Triangle-wave seasons (cold at the year's ends) and days (coldest
    // at midnight), plus uniform weather noise: about -7 C to 31 C.
    const double season = Abs(2.0 * t / kHoursPerYear - 1.0);
    const double day = Abs((t % kHoursPerDay) - 12.0) / 12.0;
    in.temperature[static_cast<size_t>(t)] =
        26.0 - 24.0 * season - 6.0 * day + rng.Uniform(-3.0, 3.0);
  }
  for (int h = 0; h < kGoldenHouseholds; ++h) {
    const double base = rng.Uniform(0.2, 0.6);
    const double heat_gradient = rng.Uniform(0.02, 0.2);
    const double heat_balance = rng.Uniform(10.0, 15.0);
    const double cool_gradient = rng.Uniform(0.02, 0.2);
    const double cool_balance = rng.Uniform(18.0, 23.0);
    const double noise = rng.Uniform(0.05, 0.5);
    std::vector<double> consumption(kHoursPerYear);
    for (size_t t = 0; t < consumption.size(); ++t) {
      const double temp = in.temperature[t];
      consumption[t] = base +
                       heat_gradient * std::max(0.0, heat_balance - temp) +
                       cool_gradient * std::max(0.0, temp - cool_balance) +
                       noise * rng.NextDouble();
    }
    in.consumption.push_back(std::move(consumption));
  }
  return in;
}

/// Chains the raw bytes of every output field into an FNV-1a hash.
uint64_t HashThreeLine(const ThreeLineResult& r, uint64_t hash) {
  const auto mix = [&hash](const auto& field) {
    hash = storage::codec::Fnv1a(
        std::span(reinterpret_cast<const uint8_t*>(&field), sizeof(field)),
        hash);
  };
  for (const PiecewiseLines* lines : {&r.p90, &r.p10}) {
    for (const LineSegment* s : {&lines->left, &lines->mid, &lines->right}) {
      mix(s->t_low);
      mix(s->t_high);
      mix(s->fit.slope);
      mix(s->fit.intercept);
      mix(s->fit.r_squared);
      mix(s->fit.n);
    }
  }
  mix(r.heating_gradient);
  mix(r.cooling_gradient);
  mix(r.base_load);
  return hash;
}

TEST(ThreeLineGoldenTest, OutputBitsPinnedAtEverySimdLevel) {
  constexpr uint64_t kGolden = 0x97b9ff5e855b7626;
  const GoldenInputs in = MakeGoldenInputs();
  for (const simd::Level level : {simd::ActiveLevel(), simd::Level::kScalar}) {
    const simd::ScopedLevel scoped(level);
    SCOPED_TRACE(simd::LevelName(level));
    uint64_t hash = storage::codec::Fnv1aSeed();
    for (int h = 0; h < kGoldenHouseholds; ++h) {
      auto result = ComputeThreeLine(in.consumption[static_cast<size_t>(h)],
                                     in.temperature, h);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      hash = HashThreeLine(*result, hash);
    }
    EXPECT_EQ(hash, kGolden) << "got 0x" << std::hex << hash;
  }
}

// ---------------------------------------------------------------------------
// PAR (daily profile) task
// ---------------------------------------------------------------------------

TEST(ParTaskTest, RecoversActivityProfileShape) {
  // A consumer whose temperature-independent load is a fixed 24-hour
  // pattern; temperature effect is linear with known coefficient.
  datagen::TemperatureModelOptions temp_options;
  temp_options.seed = 31;
  const std::vector<double> temperature =
      datagen::GenerateTemperatureSeries(kHoursPerYear, temp_options);
  std::vector<double> profile(24);
  for (int h = 0; h < 24; ++h) {
    profile[static_cast<size_t>(h)] =
        1.0 + 0.5 * std::sin(2.0 * M_PI * h / 24.0);
  }
  const double temp_beta = 0.02;
  Rng rng(37);
  std::vector<double> consumption(kHoursPerYear);
  for (int t = 0; t < kHoursPerYear; ++t) {
    consumption[static_cast<size_t>(t)] =
        profile[static_cast<size_t>(t % 24)] +
        temp_beta * temperature[static_cast<size_t>(t)] +
        rng.Gaussian(0.0, 0.02);
  }
  auto result = ComputeDailyProfile(consumption, temperature, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->profile.size(), 24u);
  for (int h = 0; h < 24; ++h) {
    EXPECT_NEAR(result->profile[static_cast<size_t>(h)],
                profile[static_cast<size_t>(h)], 0.06)
        << "hour " << h;
    EXPECT_NEAR(result->temperature_beta[static_cast<size_t>(h)], temp_beta,
                0.01)
        << "hour " << h;
  }
}

TEST(ParTaskTest, CoefficientLayoutMatchesOptions) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.5, 0.1, 12.0, 0.05, 20.0, 0.05, /*seed=*/41);
  ParOptions options;
  options.lags = 3;
  auto result = ComputeDailyProfile(c.consumption, c.temperature, 9,
                                    options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->household_id, 9);
  ASSERT_EQ(result->coefficients.size(), 24u);
  for (const auto& coeffs : result->coefficients) {
    EXPECT_EQ(coeffs.size(), 5u);  // intercept + 3 lags + temperature.
  }
}

TEST(ParTaskTest, ClampsNegativeProfileValues) {
  // Strong negative temperature effect on a tiny base can push the naive
  // profile negative; clamping keeps it at zero.
  const std::vector<double> temperature(24 * 30, 25.0);
  std::vector<double> consumption(24 * 30, 0.01);
  auto result = ComputeDailyProfile(consumption, temperature, 1);
  ASSERT_TRUE(result.ok());
  for (double v : result->profile) EXPECT_GE(v, 0.0);
}

TEST(ParTaskTest, RejectsTooLittleData) {
  const std::vector<double> shorty(24 * 4, 1.0);
  EXPECT_FALSE(ComputeDailyProfile(shorty, shorty, 1).ok());
  const std::vector<double> c(48, 1.0);
  const std::vector<double> t(24, 1.0);
  EXPECT_FALSE(ComputeDailyProfile(c, t, 1).ok());
}

TEST(ParTaskTest, LagCountValidated) {
  const std::vector<double> v(kHoursPerYear, 1.0);
  ParOptions options;
  options.lags = 0;
  EXPECT_FALSE(ComputeDailyProfile(v, v, 1, options).ok());
}

// ---------------------------------------------------------------------------
// Similarity task
// ---------------------------------------------------------------------------

std::vector<SeriesView> MakeViews(
    const std::vector<std::pair<int64_t, std::vector<double>>>& data) {
  std::vector<SeriesView> views;
  views.reserve(data.size());
  for (const auto& [id, series] : data) {
    views.push_back({id, series});
  }
  return views;
}

TEST(SimilarityTaskTest, FindsParallelSeries) {
  const std::vector<std::pair<int64_t, std::vector<double>>> data = {
      {1, {1.0, 2.0, 3.0}},
      {2, {2.0, 4.0, 6.0}},   // Parallel to 1.
      {3, {3.0, 2.0, 1.0}},   // Reversed.
      {4, {-1.0, -2.0, -3.0}},  // Anti-parallel to 1.
  };
  SimilarityOptions options;
  options.k = 1;
  auto results = ComputeSimilarityTopK(MakeViews(data), options);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  EXPECT_EQ((*results)[0].household_id, 1);
  ASSERT_EQ((*results)[0].matches.size(), 1u);
  EXPECT_EQ((*results)[0].matches[0].household_id, 2);
  EXPECT_NEAR((*results)[0].matches[0].cosine, 1.0, 1e-12);
  EXPECT_EQ((*results)[1].matches[0].household_id, 1);
}

TEST(SimilarityTaskTest, SelfIsExcluded) {
  const std::vector<std::pair<int64_t, std::vector<double>>> data = {
      {1, {1.0, 0.0}}, {2, {0.0, 1.0}}, {3, {1.0, 1.0}}};
  auto results = ComputeSimilarityTopK(MakeViews(data));
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) {
    for (const auto& m : r.matches) {
      EXPECT_NE(m.household_id, r.household_id);
    }
  }
}

TEST(SimilarityTaskTest, KCapsMatchCount) {
  Rng rng(43);
  std::vector<std::pair<int64_t, std::vector<double>>> data;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> v(8);
    for (double& x : v) x = rng.Gaussian(0, 1);
    data.emplace_back(i, std::move(v));
  }
  SimilarityOptions options;
  options.k = 10;
  auto results = ComputeSimilarityTopK(MakeViews(data), options);
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) {
    EXPECT_EQ(r.matches.size(), 10u);
    // Matches sorted best-first.
    for (size_t i = 1; i < r.matches.size(); ++i) {
      EXPECT_GE(r.matches[i - 1].cosine, r.matches[i].cosine);
    }
  }
}

TEST(SimilarityTaskTest, RangeMatchesFull) {
  Rng rng(47);
  std::vector<std::pair<int64_t, std::vector<double>>> data;
  for (int i = 0; i < 12; ++i) {
    std::vector<double> v(16);
    for (double& x : v) x = rng.Gaussian(0, 1);
    data.emplace_back(100 + i, std::move(v));
  }
  const auto views = MakeViews(data);
  const std::vector<double> norms = ComputeNorms(views);
  auto full = ComputeSimilarityTopK(views);
  ASSERT_TRUE(full.ok());
  auto part1 = ComputeSimilarityTopKRange(views, norms, 0, 6, {});
  auto part2 = ComputeSimilarityTopKRange(views, norms, 6, 12, {});
  ASSERT_TRUE(part1.ok());
  ASSERT_TRUE(part2.ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*part1)[i].matches[0].household_id,
              (*full)[i].matches[0].household_id);
    EXPECT_EQ((*part2)[i].matches[0].household_id,
              (*full)[i + 6].matches[0].household_id);
  }
}

TEST(SimilarityTaskTest, RejectsBadInput) {
  EXPECT_FALSE(ComputeSimilarityTopK({}).ok());
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  std::vector<SeriesView> views = {{1, a}, {2, b}};
  EXPECT_FALSE(ComputeSimilarityTopK(views).ok());
  std::vector<SeriesView> ok_views = {{1, a}, {2, a}};
  SimilarityOptions options;
  options.k = 0;
  EXPECT_FALSE(ComputeSimilarityTopK(ok_views, options).ok());
}

// Property sweep: the 3-line model recovers known thermal parameters
// across a grid of gradient / balance-point / noise configurations.
struct ThermalCase {
  double heat_g, heat_bal, cool_g, cool_bal, noise;
};

class ThreeLineRecoveryTest
    : public ::testing::TestWithParam<ThermalCase> {};

TEST_P(ThreeLineRecoveryTest, RecoversConfiguredThermalResponse) {
  const ThermalCase& tc = GetParam();
  const SyntheticConsumer c = MakeThermalConsumer(
      0.35, tc.heat_g, tc.heat_bal, tc.cool_g, tc.cool_bal, tc.noise,
      /*seed=*/static_cast<uint64_t>(tc.heat_g * 1000 + tc.cool_g * 100 +
                                     tc.noise * 10 + 3));
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double tol = 0.02 + tc.noise / 2.0;
  EXPECT_NEAR(result->heating_gradient, tc.heat_g, tol);
  EXPECT_NEAR(result->cooling_gradient, tc.cool_g, tol);
  EXPECT_NEAR(result->base_load, 0.35, 0.1 + tc.noise);
}

INSTANTIATE_TEST_SUITE_P(
    ThermalGrid, ThreeLineRecoveryTest,
    ::testing::Values(ThermalCase{0.05, 12, 0.05, 20, 0.02},
                      ThermalCase{0.20, 10, 0.05, 22, 0.02},
                      ThermalCase{0.05, 14, 0.20, 18, 0.02},
                      ThermalCase{0.15, 12, 0.15, 20, 0.05},
                      ThermalCase{0.10, 8, 0.02, 24, 0.02},
                      ThermalCase{0.25, 13, 0.10, 19, 0.10},
                      ThermalCase{0.02, 12, 0.02, 20, 0.02},
                      ThermalCase{0.30, 11, 0.25, 21, 0.05}));

TEST(TaskTypesTest, NamesAreStable) {
  EXPECT_EQ(TaskName(TaskType::kHistogram), "histogram");
  EXPECT_EQ(TaskName(TaskType::kThreeLine), "3line");
  EXPECT_EQ(TaskName(TaskType::kPar), "par");
  EXPECT_EQ(TaskName(TaskType::kSimilarity), "similarity");
}

}  // namespace
}  // namespace smartmeter::core
