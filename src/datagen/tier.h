#ifndef SMARTMETER_DATAGEN_TIER_H_
#define SMARTMETER_DATAGEN_TIER_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace smartmeter::datagen {

/// One cached large-tier SMCOLV2 column file: a deterministic function
/// of (seed, households, hours). Tiers exist so storage benches can
/// sweep realistic sizes (100k households locally, 1M on CI) without
/// regenerating data on every run — the file name doubles as the CI
/// cache key.
struct TierSpec {
  uint64_t seed = 7;
  int households = 100000;
  int hours = 24 * 30;
};

/// The cache key / file name of a tier: "tier-<seed>-<households>x<hours>
/// -v2.smcol". Same spec, same bytes, so cached files are safe to reuse
/// across runs and CI jobs.
std::string TierFileName(const TierSpec& spec);

/// Ensures the tier's column file exists under `cache_dir` (created if
/// needed) and returns its path. A present file that opens as SMCOLV2 is
/// reused as-is; otherwise the tier is generated with the paper's
/// Section 4 generator — trained once on a small synthetic seed, then
/// synthesized and streamed to disk in fixed-size household chunks, so a
/// 1M-household tier never materializes in memory.
///
/// All values are quantized to the CSV writers' precision (consumption
/// %.4f, temperature %.2f) before writing: the tier then measures the
/// compression the format achieves on data it could actually have
/// ingested, and SMCOLV2's decimal fixed-point codec stays lossless.
Result<std::string> EnsureTierColumnFile(const TierSpec& spec,
                                         const std::string& cache_dir);

}  // namespace smartmeter::datagen

#endif  // SMARTMETER_DATAGEN_TIER_H_
