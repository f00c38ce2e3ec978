// Vectorized inner-loop kernels for the inference hot path.
//
// Two primitives carry nearly all of Sprout's per-tick arithmetic:
//   weighted_sum4:  block-column evolve accumulation (one or many flows)
//   dot:            Σ_j a[j] * b[j]  (the mixture-CDF weighted sum)
//
// Both ship in two builds: a portable scalar path the compiler is free to
// auto-vectorize, and a hand-written AVX2 path selected by RUNTIME cpuid
// dispatch.  Release artifacts are never compiled with -march=native — the
// AVX2 code is emitted behind a per-function target attribute, so one
// binary runs (and picks the fast path) anywhere.
//
// Determinism contract: both paths produce BIT-IDENTICAL results.
// weighted_sum4 accumulates each lane sequentially (no reassociation, no
// FMA contraction), and dot uses a fixed four-accumulator summation tree —
// the scalar path mimics the vector lanes' order exactly — so golden
// metrics and content-addressed shard merges do not depend on which
// machine ran the sweep.
#pragma once

#include <cstddef>

namespace sprout::kernels {

// outs[f][l] = Σ_r coeffs[f][r] * vals[4r + l] for f in [0, k), l in
// [0, 4): k weighted sums of a sequence of 4-wide value tiles, one
// sequential accumulator per output lane, rows ascending.
//
// The banded-evolve workhorse, for one flow (k = 1) or a batch.  The
// accumulators live in registers for the whole row sweep — the inner loop
// does no scratch loads or stores at all — and each value tile is loaded
// once and shared by every flow.  Per lane the arithmetic is `acc += c * v`
// in ascending-row order with acc starting at +0.0, so a flow's result does
// not depend on how many flows share the call.
void weighted_sum4(const double* vals, std::size_t rows,
                   const double* const* coeffs, std::size_t k,
                   double* const* outs);

// Σ_j a[j] * b[j] for j in [0, n), fixed 4-lane summation tree.
double dot(const double* a, const double* b, std::size_t n);

// Name of the dispatched backend: "avx2" or "scalar".
const char* active_backend();

// Force a backend for benches/tests: "avx2", "scalar" or "auto".  Returns
// false (and changes nothing) if the request is unknown or unsupported on
// this CPU.  The SPROUT_KERNELS environment variable applies the same
// override at startup.
bool force_backend(const char* name);

}  // namespace sprout::kernels
