// Bayesian inference over the link's hidden packet-delivery rate (§3.1-3.2).
//
// The link is modeled as a doubly-stochastic Poisson process: the rate λ
// wanders in Brownian motion (noise power σ) except that λ = 0 (outage) is
// sticky, escaped at rate λz.  λ is discretized into `num_bins` values and
// the posterior is a probability vector updated every tick:
//   1. evolve:    p <- p * TransitionMatrix   (precomputed Gaussian kernel)
//   2. observe:   p_i *= Poisson(k; λ_i τ)    (done in log space)
//   3. normalize: p /= Σ p
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/params.h"

namespace sprout {

// Discrete probability distribution over the rate bins.
class RateDistribution {
 public:
  explicit RateDistribution(int num_bins);

  // Uniform prior ("at program startup, all values of λ equally probable").
  void reset_uniform();

  [[nodiscard]] int num_bins() const { return static_cast<int>(p_.size()); }
  [[nodiscard]] double probability(int i) const { return p_[i]; }
  [[nodiscard]] const std::vector<double>& probabilities() const { return p_; }
  [[nodiscard]] std::vector<double>& mutable_probabilities() { return p_; }

  // Nonzero support [lo, hi): every bin outside it holds exactly 0.0.
  // Interior zeros stay inside; only the tails are clipped, which is where
  // log-space observations actually zero mass out.
  [[nodiscard]] std::pair<std::size_t, std::size_t> support() const {
    return nonzero_support(p_);
  }
  [[nodiscard]] static std::pair<std::size_t, std::size_t> nonzero_support(
      std::span<const double> p);

  // The ascending scan behind quantile(): adds p[i] to `cum` for i from
  // `from` on and returns the first i at which cum >= target, or p.size()
  // if the scan runs out first.  Resumable: a caller that learns more bins
  // later continues from where it stopped with the same `cum` (the
  // forecaster scans horizon steps whose columns it evolves on demand).
  [[nodiscard]] static std::size_t quantile_scan(std::span<const double> p,
                                                 double target,
                                                 std::size_t from,
                                                 double& cum);

  // Distribution sanity: sums to one within tolerance.
  [[nodiscard]] bool is_normalized(double tol = 1e-9) const;
  void normalize();

  // Posterior summaries (rates in packets/s given the params' bin mapping).
  [[nodiscard]] double mean(const SproutParams& params) const;
  [[nodiscard]] double quantile(const SproutParams& params, double percentile) const;

 private:
  std::vector<double> p_;
};

// Precomputed one-tick evolution kernel.  Immutable after construction
// (evolve() works through a thread-local scratch buffer), so one matrix is
// safely shared across filters, forecasters and sweep threads — see
// TransitionMatrixCache below.
//
// The Gaussian rows are stored banded: per-row [lo, hi) extents retaining
// ≥ 1−ε of the row's mass (ε = SproutParams::effective_band_epsilon),
// packed contiguously and renormalized, then repacked into 4-column block
// tiles and evolved in O(bins · bandwidth) by kernels::weighted_sum4
// (util/kernels.h) — the same kernel for one flow, for a batch, and for any
// range of output column blocks (evolve_blocks).  ε = 0 trims only entries
// that are EXACTLY zero (underflowed Gaussian tails) and skips
// renormalization, so its evolve gives the full dense p·M bits: that is
// SproutParams::dense_inference.
class TransitionMatrix {
 public:
  explicit TransitionMatrix(const SproutParams& params);

  // p <- p * M through the banded block kernel (in place via thread-local
  // scratch): the batch pass run for one flow, counted as
  // "filter.evolve.banded".
  void evolve(RateDistribution& dist) const;

  // Pushes every distribution through one banded matrix pass: tiles stream
  // once and are applied to all flows (GEMM-shaped loop order), so N
  // co-active Sprout flows pay the matrix traversal once instead of N
  // times.  Bit-identical to calling evolve() on each entry in order: both
  // run evolve_blocks, whose per-flow arithmetic ignores the batch size.
  void evolve_batch(std::span<RateDistribution* const> dists) const;

  // The banded pass behind evolve and evolve_batch (uncounted), for the
  // output blocks [block_begin, block_end) only: writes columns
  // [4·block_begin, 4·block_end) of in[f]·M to out[f] (out arrays padded to
  // 4·num_blocks() entries), reading only rows [row_lo, row_hi) of each
  // in[f] — rows outside it need not be valid memory.  Those the blocks
  // reach (all below rows_read(block_end)) must hold exactly 0.0 in every
  // flow.  Per column the arithmetic is the full pass's, so any block
  // range gives those columns' exact bits:
  // DeliveryForecaster::forecast evolves its horizon steps block range by
  // block range, only as far as its quantile scans read.
  void evolve_blocks(std::span<const double* const> in,
                     std::span<double* const> out, std::size_t row_lo,
                     std::size_t row_hi, std::size_t block_begin,
                     std::size_t block_end) const;
  // Output blocks of 4 columns (the last one may be partly past num_bins).
  [[nodiscard]] std::size_t num_blocks() const { return block_row_end_.size(); }
  // Rows of the input that output blocks [0, blocks) read: the prefix max
  // of the blocks' row ranges.
  [[nodiscard]] std::size_t rows_read(std::size_t blocks) const {
    return blocks == 0 ? 0 : static_cast<std::size_t>(rows_read_[blocks - 1]);
  }

  // M[from][to] as the evolve applies it: the packed band value inside row
  // `from`'s extent, 0.0 outside it (at ε = 0, the exact Gaussian row).
  [[nodiscard]] double entry(int from, int to) const {
    const auto i = static_cast<std::size_t>(from);
    if (to < band_lo_[i] || to >= band_hi_[i]) return 0.0;
    return band_[band_off_[i] + static_cast<std::size_t>(to - band_lo_[i])];
  }
  [[nodiscard]] int num_bins() const { return static_cast<int>(n_); }

  // Band introspection (tests, benches, perf trajectory).
  [[nodiscard]] std::pair<int, int> row_extent(int row) const {
    return {band_lo_[static_cast<std::size_t>(row)],
            band_hi_[static_cast<std::size_t>(row)]};
  }
  [[nodiscard]] int max_bandwidth() const { return max_bandwidth_; }
  [[nodiscard]] double mean_bandwidth() const { return mean_bandwidth_; }
  [[nodiscard]] double band_epsilon() const { return band_epsilon_; }

 private:
  // Packs the row-major Gaussian `rows` into the band.
  void build_band(const std::vector<double>& rows, double epsilon);
  void build_blocks();
  // evolve_blocks over all blocks, clipped to the flows' joint support, in
  // place through thread-local scratch (uncounted).
  void evolve_in_place(std::span<RateDistribution* const> dists) const;

  std::size_t n_;
  // Packed band: row i's entries for columns [band_lo_[i], band_hi_[i])
  // live at band_[band_off_[i]...], renormalized to unit row mass.
  std::vector<double> band_;
  std::vector<std::size_t> band_off_;
  std::vector<int> band_lo_;
  std::vector<int> band_hi_;
  int max_bandwidth_ = 0;
  double mean_bandwidth_ = 0.0;
  double band_epsilon_ = 0.0;
  // Block-column layout for the banded pass: for each 4-column output block b
  // (columns [4b, 4b+4)), the range of rows whose band overlaps the block
  // and a repacked (rows × 4) tile of their band values at those columns,
  // zero where a row's band does not cover a column.  Lets the kernel keep
  // per-flow accumulators in registers for a whole block while streaming
  // each tile once for all flows.
  std::vector<double> block_vals_;
  std::vector<std::size_t> block_off_;
  std::vector<int> block_row_begin_;
  std::vector<int> block_row_end_;
  std::vector<int> rows_read_;  // prefix max of block_row_end_
};

// Process-wide cache of transition matrices, keyed by the SproutParams
// fields that determine the kernel (bins, rate grid, tick, σ, λz, effective
// band ε) — the same pattern as the forecaster's Poisson-CDF
// ForecastTableCache.  Building a matrix is ~num_bins² Gaussian integrals
// and every simulation constructs at least three (sender filter, receiver
// filter, forecaster); the cache makes that one build per distinct
// parameter set per process.
// Reuse is observable through the obs registry counters
// "cache.transition_matrix.hits" / ".misses" (src/obs/metrics.h).
class TransitionMatrixCache {
 public:
  // Returns the matrix for `params`, building it on first use.
  // Thread-safe; a given key is only ever built once per process.
  [[nodiscard]] static std::shared_ptr<const TransitionMatrix> get(
      const SproutParams& params);
};

// The full filter: evolve / observe / normalize.
class SproutBayesFilter {
 public:
  explicit SproutBayesFilter(const SproutParams& params);

  // Step 1: Brownian evolution across one tick.  A no-op consuming the
  // batch mark if evolve_batch (below) already ran this tick's evolution.
  void evolve();

  // Step 1 with the result already known: swaps in `evolved`, which must be
  // exactly what evolve() would compute from the current posterior (M·p, as
  // a forecast's first horizon step produced it), and hands the old
  // posterior back through `evolved`.  Counted as "filter.evolve.seeded".
  void adopt_evolved(RateDistribution& evolved);

  // Evolves several filters in one matrix pass per shared kernel.  Filters
  // are grouped by their (cache-shared) TransitionMatrix; each group runs
  // TransitionMatrix::evolve_batch, and each batched filter's next evolve()
  // call becomes a no-op, so a caller can hoist just the evolution ahead of
  // per-filter tick logic it cannot reorder.  Bit-identical to calling
  // evolve() on each filter in order.  No simulation path batches filters;
  // the perf benchmarks (bench/perf_trajectory, perfbench) time it.
  static void evolve_batch(std::span<SproutBayesFilter* const> filters);

  // Steps 2+3: Bayesian update on `packets` observed during a tick covering
  // `fraction` of the tick length (1.0 = full tick), then renormalize.
  void observe(int packets, double fraction = 1.0);

  // Censored update for a SENDER-LIMITED tick: the link delivered everything
  // offered, so the count is only a lower bound on what was deliverable.
  // Uses P[X >= packets] instead of P[X = packets].
  void observe_at_least(int packets, double fraction = 1.0);

  [[nodiscard]] const RateDistribution& distribution() const { return dist_; }
  [[nodiscard]] const SproutParams& params() const { return params_; }
  [[nodiscard]] double mean_rate_pps() const { return dist_.mean(params_); }
  // Identity of the cache-shared kernel (the evolve_batch grouping key).
  [[nodiscard]] const TransitionMatrix* transition_matrix() const {
    return transitions_.get();
  }

  void reset() { dist_.reset_uniform(); }

 private:
  void observe_impl(int packets, double fraction, bool censored);

  SproutParams params_;
  std::shared_ptr<const TransitionMatrix> transitions_;  // cache-shared
  RateDistribution dist_;
  std::vector<double> log_prior_;  // scratch for the log-space update
  bool batch_evolved_ = false;     // evolve_batch already ran this tick
};

}  // namespace sprout
