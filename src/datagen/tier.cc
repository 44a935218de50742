#include "datagen/tier.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/string_util.h"
#include "datagen/generator.h"
#include "datagen/seed_generator.h"
#include "storage/column_store.h"

namespace smartmeter::datagen {

namespace {

// Households synthesized per generator call while streaming a tier. The
// chunk size is part of the tier's definition: chunk i draws from seed
// mix(spec.seed, i), so the same spec produces the same bytes however
// large the tier is.
constexpr int kTierChunkHouseholds = 4096;

// Households in the small "real" seed the generator trains on.
constexpr int kTierSeedHouseholds = 96;

// The CSV writers print consumption with %.4f and temperature with
// %.2f; quantizing to the same grid keeps SMCOLV2's decimal fixed-point
// codec lossless on tier data.
double QuantizeConsumption(double v) {
  return static_cast<double>(std::llround(v * 1e4)) / 1e4;
}
double QuantizeTemperature(double v) {
  return static_cast<double>(std::llround(v * 1e2)) / 1e2;
}

uint64_t ChunkSeed(uint64_t base, int chunk) {
  // SplitMix64-style mix so chunk streams are decorrelated.
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(chunk + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status GenerateTier(const TierSpec& spec, const std::string& path) {
  // Train the Section 4 generator once on a small synthetic seed drawn
  // from the same RNG seed, then synthesize the tier chunk by chunk. The
  // seed always spans at least a year: feature extraction (the 3-line
  // fit) needs the full seasonal temperature range, while Generate()
  // works against a temperature window of any length.
  SeedGeneratorOptions seed_options;
  seed_options.num_households = kTierSeedHouseholds;
  seed_options.hours = std::max(spec.hours, 365 * 24);
  seed_options.seed = spec.seed;
  SM_ASSIGN_OR_RETURN(MeterDataset seed_dataset,
                      GenerateSeedDataset(seed_options));
  SM_ASSIGN_OR_RETURN(
      DataGenerator generator,
      DataGenerator::Train(seed_dataset, DataGeneratorOptions{}));

  std::vector<double> temperature(
      seed_dataset.temperature().begin(),
      seed_dataset.temperature().begin() + spec.hours);
  for (double& v : temperature) v = QuantizeTemperature(v);

  storage::ColumnFileWriter writer(path);
  SM_RETURN_IF_ERROR(writer.Open(static_cast<size_t>(spec.hours)));

  for (int begin = 0, chunk = 0; begin < spec.households;
       begin += kTierChunkHouseholds, ++chunk) {
    const int count =
        std::min(kTierChunkHouseholds, spec.households - begin);
    SM_ASSIGN_OR_RETURN(
        MeterDataset generated,
        generator.Generate(count, temperature, ChunkSeed(spec.seed, chunk),
                           /*first_household_id=*/begin + 1));
    for (const ConsumerSeries& consumer : generated.consumers()) {
      std::vector<double> quantized = consumer.consumption;
      for (double& v : quantized) v = QuantizeConsumption(v);
      SM_RETURN_IF_ERROR(
          writer.AppendHousehold(consumer.household_id, quantized));
    }
  }
  return writer.Finish(temperature);
}

}  // namespace

std::string TierFileName(const TierSpec& spec) {
  return StringPrintf("tier-%llu-%dx%d-v2.smcol",
                      static_cast<unsigned long long>(spec.seed),
                      spec.households, spec.hours);
}

Result<std::string> EnsureTierColumnFile(const TierSpec& spec,
                                         const std::string& cache_dir) {
  if (spec.households < 1 || spec.hours < 1) {
    return Status::InvalidArgument("invalid tier spec");
  }
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  if (ec) {
    return Status::IOError("cannot create tier cache dir " + cache_dir);
  }
  const std::string path = cache_dir + "/" + TierFileName(spec);
  if (std::filesystem::exists(path, ec)) {
    // Cached hit: the name encodes the full spec, so a file that opens
    // as SMCOLV2 is the right file.
    storage::CompressedColumnFile cached;
    if (cached.Open(path).ok()) return path;
    std::filesystem::remove(path, ec);
  }
  SM_RETURN_IF_ERROR(GenerateTier(spec, path));
  return path;
}

}  // namespace smartmeter::datagen
