#include "util/kernels.h"

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sprout::kernels {
namespace {

std::vector<double> random_vec(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = u(rng);
  return v;
}

// Restores whatever backend was active on entry, so tests compose.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend()) {}
  ~BackendGuard() { force_backend(saved_.c_str()); }

 private:
  std::string saved_;
};

// The backends this host can run: scalar always, avx2 when cpuid has it.
std::vector<std::string> runnable_backends() {
  BackendGuard guard;
  std::vector<std::string> out = {"scalar"};
  if (force_backend("avx2")) out.emplace_back("avx2");
  return out;
}

// One flow through weighted_sum4 — the single-posterior banded evolve —
// against the naive per-lane loop, bit for bit in every backend.  The
// all-zero tile is a block no band reaches: zero coefficients against zero
// values must leave the lanes at +0.0 exactly, not -0.0.
TEST(Kernels, WeightedSum4SingleFlowMatchesNaiveLoop) {
  BackendGuard guard;
  for (const std::string& backend : runnable_backends()) {
    ASSERT_TRUE(force_backend(backend.c_str()));
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (const bool zero_tile : {false, true}) {
      for (const std::size_t rows : {0UL, 1UL, 3UL, 97UL}) {
        std::vector<double> vals(rows * 4, 0.0);
        std::vector<double> coeff(rows, 0.0);
        if (!zero_tile) {
          for (double& x : vals) x = u(rng);
          for (double& c : coeff) c = u(rng);
          if (rows > 2) coeff[1] = 0.0;  // a row the posterior has no mass on
        }
        const double* coeffs[] = {coeff.data()};
        double got[4] = {-1.0, -1.0, -1.0, -1.0};
        double* outs[] = {got};
        weighted_sum4(vals.data(), rows, coeffs, 1, outs);
        for (std::size_t l = 0; l < 4; ++l) {
          double want = 0.0;
          for (std::size_t r = 0; r < rows; ++r) {
            want += coeff[r] * vals[4 * r + l];
          }
          EXPECT_EQ(std::memcmp(&got[l], &want, sizeof(double)), 0)
              << backend << " rows=" << rows << " zero_tile=" << zero_tile
              << " l=" << l << ": " << got[l] << " vs " << want;
        }
      }
    }
  }
}

TEST(Kernels, DotMatchesNaiveSumWithinTolerance) {
  std::mt19937_64 rng(2);
  for (const std::size_t n : {0UL, 1UL, 5UL, 64UL, 109UL, 257UL}) {
    const std::vector<double> a = random_vec(rng, n);
    const std::vector<double> b = random_vec(rng, n);
    double naive = 0.0;
    for (std::size_t j = 0; j < n; ++j) naive += a[j] * b[j];
    EXPECT_NEAR(dot(a.data(), b.data(), n), naive, 1e-12 * (1.0 + n));
  }
}

TEST(Kernels, WeightedSum4MatchesSequentialAccumulation) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (const std::size_t rows : {0UL, 1UL, 3UL, 17UL, 96UL}) {
    for (const std::size_t k : {1UL, 2UL, 5UL, 8UL, 11UL}) {
      std::vector<double> vals(rows * 4);
      for (double& x : vals) x = u(rng);
      std::vector<std::vector<double>> coeff_store(k);
      std::vector<std::vector<double>> out_store(k, std::vector<double>(4));
      std::vector<const double*> coeffs(k);
      std::vector<double*> outs(k);
      for (std::size_t f = 0; f < k; ++f) {
        coeff_store[f] = random_vec(rng, rows);
        for (double& c : coeff_store[f]) c = std::abs(c);
        coeffs[f] = coeff_store[f].data();
        outs[f] = out_store[f].data();
      }
      weighted_sum4(vals.data(), rows, coeffs.data(), k, outs.data());
      for (std::size_t f = 0; f < k; ++f) {
        for (std::size_t l = 0; l < 4; ++l) {
          // The contract is a bit-exact sequential sum per lane, ascending
          // rows — not just "close": the batched evolve depends on it.
          double acc = 0.0;
          for (std::size_t r = 0; r < rows; ++r) {
            acc += coeff_store[f][r] * vals[4 * r + l];
          }
          EXPECT_EQ(out_store[f][l], acc)
              << "rows=" << rows << " k=" << k << " f=" << f << " l=" << l;
        }
      }
    }
  }
}

TEST(Kernels, BackendsAreBitIdentical) {
  // The determinism contract: whatever backend cpuid picked must agree with
  // the scalar reference TO THE BIT, or goldens become machine-dependent.
  BackendGuard guard;
  if (!force_backend("avx2")) {
    GTEST_SKIP() << "no AVX2 on this host; scalar is the only backend";
  }
  std::mt19937_64 rng(3);
  for (const std::size_t n : {1UL, 4UL, 6UL, 64UL, 109UL, 255UL, 256UL}) {
    const std::vector<double> a = random_vec(rng, n);
    const std::vector<double> b = random_vec(rng, n);

    ASSERT_TRUE(force_backend("avx2"));
    const double dot_vec = dot(a.data(), b.data(), n);

    ASSERT_TRUE(force_backend("scalar"));
    const double dot_sca = dot(a.data(), b.data(), n);

    EXPECT_EQ(std::memcmp(&dot_vec, &dot_sca, sizeof(double)), 0) << "n=" << n;
  }

  // weighted_sum4 across backends: k = 1 is the single-flow evolve, k > 8
  // the chunked batch path.
  std::mt19937_64 rng2(4);
  for (const std::size_t rows : {0UL, 1UL, 3UL, 7UL, 96UL, 97UL}) {
    for (const std::size_t k : {1UL, 3UL, 8UL, 13UL}) {
      const std::vector<double> vals = random_vec(rng2, rows * 4);
      std::vector<std::vector<double>> coeff_store(k);
      std::vector<const double*> coeffs(k);
      std::vector<std::vector<double>> out_vec(k, std::vector<double>(4));
      std::vector<std::vector<double>> out_sca(k, std::vector<double>(4));
      std::vector<double*> outs(k);
      for (std::size_t f = 0; f < k; ++f) {
        coeff_store[f] = random_vec(rng2, rows);
        coeffs[f] = coeff_store[f].data();
      }

      ASSERT_TRUE(force_backend("avx2"));
      for (std::size_t f = 0; f < k; ++f) outs[f] = out_vec[f].data();
      weighted_sum4(vals.data(), rows, coeffs.data(), k, outs.data());

      ASSERT_TRUE(force_backend("scalar"));
      for (std::size_t f = 0; f < k; ++f) outs[f] = out_sca[f].data();
      weighted_sum4(vals.data(), rows, coeffs.data(), k, outs.data());

      for (std::size_t f = 0; f < k; ++f) {
        EXPECT_EQ(std::memcmp(out_vec[f].data(), out_sca[f].data(),
                              4 * sizeof(double)),
                  0)
            << "rows=" << rows << " k=" << k << " f=" << f;
      }
    }
  }
}

TEST(Kernels, ForceBackendRejectsUnknownNames) {
  BackendGuard guard;
  EXPECT_FALSE(force_backend("avx512"));
  EXPECT_FALSE(force_backend(""));
  EXPECT_TRUE(force_backend("scalar"));
  EXPECT_STREQ(active_backend(), "scalar");
  EXPECT_TRUE(force_backend("auto"));
}

}  // namespace
}  // namespace sprout::kernels
