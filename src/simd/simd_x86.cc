// AVX2 backend. Compiled into every x86-64 build (the functions carry
// target attributes, so no file-wide -mavx2 is needed and no AVX code
// leaks into other translation units); only dispatched to when cpuid
// reports AVX2. FMA is deliberately NOT enabled: vmulpd + vaddpd round
// exactly like the scalar lanes, which is what makes the vector paths
// bit-identical to the *Scalar kernels.
#include "simd/simd_arch.h"

#if SM_SIMD_X86

#include <immintrin.h>

#include <limits>

#include "simd/simd_internal.h"

#define SM_AVX2 __attribute__((target("avx2,popcnt")))

namespace smartmeter::simd::arch {

SM_AVX2 double DotAvx2(const double* x, const double* y, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[0] += x[i] * y[i];
  return internal::ReduceLanes(lanes);
}

SM_AVX2 void MinMaxAvx2(const double* values, size_t n, double* min,
                        double* max) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  __m256d min_acc = _mm256_set1_pd(kInf);
  __m256d max_acc = _mm256_set1_pd(-kInf);
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    // min_pd(v, acc) = v < acc ? v : acc, with NaN v keeping acc —
    // exactly the scalar lane update.
    min_acc = _mm256_min_pd(v, min_acc);
    max_acc = _mm256_max_pd(v, max_acc);
  }
  alignas(32) double mins[4];
  alignas(32) double maxs[4];
  _mm256_store_pd(mins, min_acc);
  _mm256_store_pd(maxs, max_acc);
  for (; i < n; ++i) {
    const double v = values[i];
    mins[0] = v < mins[0] ? v : mins[0];
    maxs[0] = v > maxs[0] ? v : maxs[0];
  }
  const double min01 = mins[1] < mins[0] ? mins[1] : mins[0];
  const double min23 = mins[3] < mins[2] ? mins[3] : mins[2];
  *min = min23 < min01 ? min23 : min01;
  const double max01 = maxs[1] > maxs[0] ? maxs[1] : maxs[0];
  const double max23 = maxs[3] > maxs[2] ? maxs[3] : maxs[2];
  *max = max23 > max01 ? max23 : max01;
}

SM_AVX2 void HistogramBinAvx2(const double* values, size_t n, double min,
                              double width, int64_t* counts,
                              size_t num_buckets) {
  // The per-element division dominates; vdivpd retires four offsets for
  // the price of one divsd. The bucket clamp is vectorized too, mirroring
  // BucketOf lane-for-lane: `offset > 0` is false for NaN (so the and
  // zeroes NaN and non-positive lanes into bucket 0), the min caps every
  // remaining offset — including +inf — at the last bucket, and cvttpd's
  // truncation is floor for the non-negative survivors.
  const __m256d min_v = _mm256_set1_pd(min);
  const __m256d width_v = _mm256_set1_pd(width);
  const __m256d zero_v = _mm256_setzero_pd();
  const __m256d cap_v = _mm256_set1_pd(static_cast<double>(num_buckets - 1));
  size_t i = 0;
  const size_t n8 = n & ~size_t{7};
  alignas(16) int32_t lanes[8];
  for (; i < n8; i += 8) {
    __m256d a = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(values + i), min_v), width_v);
    __m256d b = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(values + i + 4), min_v), width_v);
    a = _mm256_min_pd(_mm256_and_pd(a, _mm256_cmp_pd(a, zero_v, _CMP_GT_OQ)),
                      cap_v);
    b = _mm256_min_pd(_mm256_and_pd(b, _mm256_cmp_pd(b, zero_v, _CMP_GT_OQ)),
                      cap_v);
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                    _mm256_cvttpd_epi32(a));
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 4),
                    _mm256_cvttpd_epi32(b));
    for (size_t j = 0; j < 8; ++j) {
      ++counts[static_cast<size_t>(lanes[j])];
    }
  }
  for (; i < n; ++i) {
    ++counts[internal::BucketOf((values[i] - min) / width, num_buckets)];
  }
}

SM_AVX2 void BinIndicesInt32Avx2(const double* values, size_t n,
                                 double divisor, int32_t* out) {
  const __m256d div_v = _mm256_set1_pd(divisor);
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const __m256d floored = _mm256_floor_pd(
        _mm256_div_pd(_mm256_loadu_pd(values + i), div_v));
    // cvttpd saturates NaN / out-of-range lanes to INT32_MIN — the same
    // sentinel FloorDivInt32 produces.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_cvttpd_epi32(floored));
  }
  for (; i < n; ++i) out[i] = internal::FloorDivInt32(values[i], divisor);
}

SM_AVX2 void AddResidualAvx2(double* acc, const double* c, const double* t,
                             const double* beta, size_t n) {
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const __m256d residual = _mm256_sub_pd(
        _mm256_loadu_pd(c + i),
        _mm256_mul_pd(_mm256_loadu_pd(beta + i), _mm256_loadu_pd(t + i)));
    _mm256_storeu_pd(acc + i,
                     _mm256_add_pd(_mm256_loadu_pd(acc + i), residual));
  }
  for (; i < n; ++i) acc[i] += c[i] - beta[i] * t[i];
}

SM_AVX2 size_t FindByteAvx2(const char* data, size_t size, size_t pos,
                            char needle) {
  const __m256i needle_v = _mm256_set1_epi8(needle);
  size_t i = pos;
  for (; i + 32 <= size; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(chunk, needle_v)));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  for (; i < size; ++i) {
    if (data[i] == needle) return i;
  }
  return static_cast<size_t>(-1);
}

SM_AVX2 size_t FindEitherByteAvx2(const char* data, size_t size, size_t pos,
                                  char a, char b) {
  const __m256i a_v = _mm256_set1_epi8(a);
  const __m256i b_v = _mm256_set1_epi8(b);
  size_t i = pos;
  for (; i + 32 <= size; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i eq = _mm256_or_si256(_mm256_cmpeq_epi8(chunk, a_v),
                                       _mm256_cmpeq_epi8(chunk, b_v));
    const uint32_t mask =
        static_cast<uint32_t>(_mm256_movemask_epi8(eq));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  for (; i < size; ++i) {
    if (data[i] == a || data[i] == b) return i;
  }
  return static_cast<size_t>(-1);
}

SM_AVX2 size_t CountByteAvx2(const char* data, size_t size, char needle) {
  const __m256i needle_v = _mm256_set1_epi8(needle);
  size_t count = 0;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(chunk, needle_v)));
    count += static_cast<size_t>(__builtin_popcount(mask));
  }
  for (; i < size; ++i) count += data[i] == needle ? 1 : 0;
  return count;
}

}  // namespace smartmeter::simd::arch

#endif  // SM_SIMD_X86
