#include "core/similarity_task.h"

#include <algorithm>

#include "stats/distance.h"
#include "stats/topk.h"

namespace smartmeter::core {

std::vector<double> ComputeNorms(std::span<const SeriesView> series) {
  std::vector<double> norms;
  norms.reserve(series.size());
  for (const SeriesView& s : series) norms.push_back(stats::Norm(s.values));
  return norms;
}

Result<std::vector<SimilarityResult>> ComputeSimilarityTopKRange(
    std::span<const SeriesView> series, std::span<const double> norms,
    size_t query_begin, size_t query_end, const SimilarityOptions& options,
    const exec::QueryContext* ctx) {
  if (series.size() < 2) {
    return Status::InvalidArgument("similarity: need at least two series");
  }
  if (norms.size() != series.size()) {
    return Status::InvalidArgument("similarity: norms size mismatch");
  }
  if (query_end > series.size() || query_begin > query_end) {
    return Status::InvalidArgument("similarity: bad query range");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("similarity: k must be >= 1");
  }
  const size_t length = series[0].values.size();
  for (const SeriesView& s : series) {
    if (s.values.size() != length) {
      return Status::InvalidArgument("similarity: series length mismatch");
    }
  }

  std::vector<SimilarityResult> results;
  results.reserve(query_end - query_begin);
  for (size_t q = query_begin; q < query_end; ++q) {
    if (ctx != nullptr && ctx->ShouldStop()) return ctx->CheckNotStopped();
    stats::TopK<int64_t> top(static_cast<size_t>(options.k));
    for (size_t o = 0; o < series.size(); ++o) {
      if (o == q) continue;
      const double cosine = stats::CosineSimilarityPrenormed(
          series[q].values, norms[q], series[o].values, norms[o]);
      top.Offer(cosine, series[o].household_id);
    }
    SimilarityResult result;
    result.household_id = series[q].household_id;
    const auto sorted = top.Sorted();
    result.matches.reserve(sorted.size());
    for (const auto& entry : sorted) {
      result.matches.push_back({entry.id, entry.score});
    }
    results.push_back(std::move(result));
  }
  return results;
}

Result<std::vector<SimilarityResult>> ComputeSimilarityTopK(
    std::span<const SeriesView> series, const SimilarityOptions& options,
    const exec::QueryContext* ctx) {
  const std::vector<double> norms = ComputeNorms(series);
  return ComputeSimilarityTopKRange(series, norms, 0, series.size(), options,
                                    ctx);
}

std::vector<SeriesView> BuildSeriesViews(const table::ColumnarBatch& batch,
                                         size_t limit) {
  size_t n = batch.count();
  if (limit > 0) n = std::min(n, limit);
  std::vector<SeriesView> views;
  views.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    views.push_back({batch.household_id(i), batch.consumption(i)});
  }
  return views;
}

}  // namespace smartmeter::core
