#include "util/kernels.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPROUT_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SPROUT_KERNELS_HAVE_AVX2 0
#endif

namespace sprout::kernels {

namespace {

// --- scalar path ---------------------------------------------------------
//
// The weighted_sum4 lanes are independent sequential sums, so whatever the
// compiler does with them (SSE2, unrolling) cannot change results — IEEE
// add/mul per element, and FMA contraction is off by default without
// -ffast-math.  The dot loop spells out the same four-accumulator pattern
// the AVX2 path uses so both reduce in the same order.

void weighted_sum4_scalar(const double* vals, std::size_t rows,
                          const double* const* coeffs, std::size_t k,
                          double* const* outs) {
  for (std::size_t f = 0; f < k; ++f) {
    const double* c = coeffs[f];
    // One accumulator per lane, rows ascending — the AVX2 path's vector
    // lanes follow exactly this order.
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double w = c[r];
      const double* v = vals + 4 * r;
      acc0 += w * v[0];
      acc1 += w * v[1];
      acc2 += w * v[2];
      acc3 += w * v[3];
    }
    outs[f][0] = acc0;
    outs[f][1] = acc1;
    outs[f][2] = acc2;
    outs[f][3] = acc3;
  }
}

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc0 += a[j] * b[j];
    acc1 += a[j + 1] * b[j + 1];
    acc2 += a[j + 2] * b[j + 2];
    acc3 += a[j + 3] * b[j + 3];
  }
  double sum = (acc0 + acc2) + (acc1 + acc3);
  for (; j < n; ++j) sum += a[j] * b[j];
  return sum;
}

// --- AVX2 path -----------------------------------------------------------

#if SPROUT_KERNELS_HAVE_AVX2

// K is a compile-time flow count so the K accumulators stay pinned in ymm
// registers across the whole row sweep (K ≤ 8: 8 accumulators + the shared
// value tile + a broadcast temporary fit the 16 ymm registers).
template <int K>
__attribute__((target("avx2"))) void weighted_sum4_avx2_k(
    const double* vals, std::size_t rows, const double* const* coeffs,
    double* const* outs) {
  __m256d acc[K];
  for (int f = 0; f < K; ++f) acc[f] = _mm256_setzero_pd();
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256d v = _mm256_loadu_pd(vals + 4 * r);
    for (int f = 0; f < K; ++f) {
      // Deliberately mul + add, not FMA: bit-identity with the scalar path.
      acc[f] = _mm256_add_pd(acc[f],
                             _mm256_mul_pd(_mm256_set1_pd(coeffs[f][r]), v));
    }
  }
  for (int f = 0; f < K; ++f) _mm256_storeu_pd(outs[f], acc[f]);
}

__attribute__((target("avx2"))) void weighted_sum4_avx2(
    const double* vals, std::size_t rows, const double* const* coeffs,
    std::size_t k, double* const* outs) {
  while (k >= 8) {
    weighted_sum4_avx2_k<8>(vals, rows, coeffs, outs);
    coeffs += 8;
    outs += 8;
    k -= 8;
  }
  switch (k) {
    case 7: weighted_sum4_avx2_k<7>(vals, rows, coeffs, outs); break;
    case 6: weighted_sum4_avx2_k<6>(vals, rows, coeffs, outs); break;
    case 5: weighted_sum4_avx2_k<5>(vals, rows, coeffs, outs); break;
    case 4: weighted_sum4_avx2_k<4>(vals, rows, coeffs, outs); break;
    case 3: weighted_sum4_avx2_k<3>(vals, rows, coeffs, outs); break;
    case 2: weighted_sum4_avx2_k<2>(vals, rows, coeffs, outs); break;
    case 1: weighted_sum4_avx2_k<1>(vals, rows, coeffs, outs); break;
    default: break;
  }
}

__attribute__((target("avx2"))) double dot_avx2(const double* a,
                                                const double* b,
                                                std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j)));
  }
  // Reduce lanes [0,1,2,3] as (l0 + l2) + (l1 + l3) — the scalar path's
  // accumulators map to lanes, so the tree must match it exactly.
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; j < n; ++j) sum += a[j] * b[j];
  return sum;
}

#endif  // SPROUT_KERNELS_HAVE_AVX2

using WeightedSum4Fn = void (*)(const double*, std::size_t,
                                const double* const*, std::size_t,
                                double* const*);
using DotFn = double (*)(const double*, const double*, std::size_t);

struct Backend {
  WeightedSum4Fn weighted_sum4;
  DotFn dot;
  const char* name;
};

constexpr Backend kScalar{weighted_sum4_scalar, dot_scalar, "scalar"};
#if SPROUT_KERNELS_HAVE_AVX2
constexpr Backend kAvx2{weighted_sum4_avx2, dot_avx2, "avx2"};
#endif

bool avx2_supported() {
#if SPROUT_KERNELS_HAVE_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Backend pick_auto() {
#if SPROUT_KERNELS_HAVE_AVX2
  if (avx2_supported()) return kAvx2;
#endif
  return kScalar;
}

Backend resolve_startup() {
  if (const char* env = std::getenv("SPROUT_KERNELS")) {
    if (std::strcmp(env, "scalar") == 0) return kScalar;
#if SPROUT_KERNELS_HAVE_AVX2
    if (std::strcmp(env, "avx2") == 0 && avx2_supported()) return kAvx2;
#endif
  }
  return pick_auto();
}

// Dispatch state.  Resolved once before main() (static init is
// single-threaded here: no other static initializer in this TU); only
// force_backend — a bench/test entry — mutates it afterwards.
Backend g_backend = resolve_startup();

}  // namespace

// NOTE: these wrappers are the hottest call sites in the tree and carry NO
// instrumentation — not even a disabled-branch check.  The per-backend
// dispatch tallies ("kernels.weighted_sum4.avx2", ...) are counted per PASS
// at the call sites (TransitionMatrix's evolve passes, the forecaster's
// quantile search), which know how many kernel invocations a pass makes;
// the perf trajectory's obs-overhead guard (< 1% on the banded-evolve
// bench) exists to keep it that way.

void weighted_sum4(const double* vals, std::size_t rows,
                   const double* const* coeffs, std::size_t k,
                   double* const* outs) {
  g_backend.weighted_sum4(vals, rows, coeffs, k, outs);
}

double dot(const double* a, const double* b, std::size_t n) {
  return g_backend.dot(a, b, n);
}

const char* active_backend() { return g_backend.name; }

bool force_backend(const char* name) {
  if (std::strcmp(name, "scalar") == 0) {
    g_backend = kScalar;
    return true;
  }
  if (std::strcmp(name, "auto") == 0) {
    g_backend = pick_auto();
    return true;
  }
#if SPROUT_KERNELS_HAVE_AVX2
  if (std::strcmp(name, "avx2") == 0 && avx2_supported()) {
    g_backend = kAvx2;
    return true;
  }
#endif
  return false;
}

}  // namespace sprout::kernels
