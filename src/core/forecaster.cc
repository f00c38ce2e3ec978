#include "core/forecaster.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>

#include "obs/metrics.h"
#include "util/kernels.h"
#include "util/poisson.h"

namespace sprout {

namespace {

// The SproutParams fields the CDF tables depend on.  Confidence, σ and λz
// do NOT appear: the percentile is applied at query time and the transition
// kernel is separate, so e.g. a Figure-9 confidence sweep shares one table.
using TableKey = std::tuple<int, double, std::int64_t, int, int>;

TableKey table_key(const SproutParams& params) {
  return {params.num_bins, params.max_rate_pps, params.tick.count(),
          params.forecast_horizon_ticks, params.max_count};
}

std::shared_ptr<const ForecastTableCache::Tables> build_tables(
    const SproutParams& params) {
  auto tables = std::make_shared<ForecastTableCache::Tables>();
  const int counts = params.max_count + 1;
  const auto bins = static_cast<std::size_t>(params.num_bins);
  tables->resize(static_cast<std::size_t>(params.forecast_horizon_ticks));
  for (int h = 1; h <= params.forecast_horizon_ticks; ++h) {
    std::vector<double>& table = (*tables)[static_cast<std::size_t>(h - 1)];
    table.resize(bins * static_cast<std::size_t>(counts));
    for (int bin = 0; bin < params.num_bins; ++bin) {
      const double mean =
          params.bin_rate(bin) * params.tick_seconds() * static_cast<double>(h);
      // Forward recurrence over n; identical math to poisson_cdf but filling
      // the whole column in one pass.  Writes stride by num_bins (the table
      // is count-major for the hot read path); the build is a cold path.
      double term = std::exp(-mean);
      double sum = term;
      table[static_cast<std::size_t>(bin)] = std::min(sum, 1.0);
      for (int n = 1; n < counts; ++n) {
        term *= mean / static_cast<double>(n);
        sum += term;
        table[static_cast<std::size_t>(n) * bins +
              static_cast<std::size_t>(bin)] = std::min(sum, 1.0);
      }
    }
  }
  return tables;
}

std::mutex& cache_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<TableKey, std::shared_ptr<const ForecastTableCache::Tables>>&
cache_map() {
  static std::map<TableKey, std::shared_ptr<const ForecastTableCache::Tables>>
      m;
  return m;
}

// Per-query dot-dispatch tally.  The kernels::dot wrapper itself carries no
// instrumentation (hottest call sites), so each CDF query counts its probes
// in a local and flushes here when obs is on.
void tally_dot_calls(std::int64_t calls) {
  if (calls == 0) return;
  static obs::Counter& scalar =
      obs::Registry::instance().counter("kernels.dot.scalar");
  static obs::Counter& simd =
      obs::Registry::instance().counter("kernels.dot.avx2");
  (std::strcmp(kernels::active_backend(), "scalar") == 0 ? scalar : simd)
      .add(calls);
}

// Per-forecast tallies: the forecast, one banded evolve per horizon step
// whether its pass is partial or full, and the step columns actually
// computed.
void count_forecast(int banded_steps, std::int64_t columns) {
  static obs::Counter& forecasts =
      obs::Registry::instance().counter("forecast.single");
  static obs::Counter& evolves =
      obs::Registry::instance().counter("filter.evolve.banded");
  static obs::Counter& evolved_columns =
      obs::Registry::instance().counter("forecast.evolve.columns");
  forecasts.add();
  evolves.add(banded_steps);
  evolved_columns.add(columns);
}

// The horizon steps M^h·p (h = 1..H) of one forecast, evolved on demand.
// Step h holds a valid column prefix that grows in 4-column blocks; growing
// it first grows step h-1 through the rows the new blocks read
// (TransitionMatrix::rows_read), recursively back to the posterior, step 0.
// Each pass reads only the previous step's nonzero extent so far: the rows
// a full evolve's support clip would read, give or take exact-zero rows,
// which add exactly +0.0.  Storage is thread-local scratch, reused across
// forecasts.
class HorizonSteps {
 public:
  HorizonSteps(const TransitionMatrix& m, const RateDistribution& posterior,
               int horizon)
      : m_(m),
        bins_(static_cast<std::size_t>(posterior.num_bins())),
        npad_(4 * m.num_blocks()),
        steps_(scratch().steps) {
    const auto count = static_cast<std::size_t>(horizon);
    std::vector<double>& values = scratch().values;
    values.resize(count * npad_);
    values_ = values.data();
    steps_.resize(count + 1);
    const auto [lo, hi] = posterior.support();
    steps_[0] = {posterior.probabilities().data(), m.num_blocks(), lo, hi};
    for (std::size_t h = 1; h <= count; ++h) {
      steps_[h] = {values_ + (h - 1) * npad_, 0, 0, 0};
    }
  }

  // Step h's valid column prefix.
  [[nodiscard]] std::span<const double> step(int h) const {
    const Step& s = steps_[static_cast<std::size_t>(h)];
    return {s.p, columns(s)};
  }

  // Grows step h (h >= 1) to at least its first min(cols, bins) columns.
  void extend(int h, std::size_t cols) {
    Step& s = steps_[static_cast<std::size_t>(h)];
    const std::size_t want = std::min((cols + 3) / 4, m_.num_blocks());
    if (want <= s.blocks) return;
    if (h > 1) extend(h - 1, m_.rows_read(want));
    const Step& prev = steps_[static_cast<std::size_t>(h - 1)];
    double* const values = values_ + static_cast<std::size_t>(h - 1) * npad_;
    const double* const in[] = {prev.p};
    double* const out[] = {values};
    m_.evolve_blocks(in, out, prev.nz_lo, prev.nz_hi, s.blocks, want);
    // Track the prefix's nonzero extent for the next step's reads.
    const std::size_t c0 = columns(s);
    s.blocks = want;
    std::size_t j = columns(s);
    while (j > c0 && values[j - 1] <= 0.0) --j;
    if (j == c0) return;  // the new columns are all zero
    if (s.nz_hi == 0) {   // the prefix's first nonzero columns
      s.nz_lo = c0;
      while (values[s.nz_lo] <= 0.0) ++s.nz_lo;
    }
    s.nz_hi = j;
  }

  // RateDistribution::quantile's scan over step h, growing the step from a
  // first request through `predicted`'s block, one block at a time, until
  // the cumulative mass crosses `target`.  Returns the crossing bin (the
  // top bin if the scan never crosses, as quantile() does).
  [[nodiscard]] std::size_t quantile_bin(int h, double target,
                                         std::size_t predicted) {
    extend(h, predicted + 1);
    double cum = 0.0;
    std::size_t bin = 0;
    for (;;) {
      const std::span<const double> known = step(h);
      bin = RateDistribution::quantile_scan(known, target, bin, cum);
      if (bin < known.size()) return bin;
      if (known.size() == bins_) return bins_ - 1;
      extend(h, known.size() + 1);
    }
  }

  // Step columns computed so far, summed over steps 1..H.
  [[nodiscard]] std::int64_t columns_computed() const {
    std::int64_t total = 0;
    for (std::size_t h = 1; h < steps_.size(); ++h) {
      total += static_cast<std::int64_t>(columns(steps_[h]));
    }
    return total;
  }

 private:
  struct Step {
    const double* p;     // column values, padded to whole blocks
    std::size_t blocks;  // computed prefix, in 4-column blocks
    std::size_t nz_lo;   // nonzero extent [nz_lo, nz_hi) of the prefix
    std::size_t nz_hi;
  };

  struct Scratch {
    std::vector<double> values;
    std::vector<Step> steps;
  };
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }
  [[nodiscard]] std::size_t columns(const Step& s) const {
    return std::min(4 * s.blocks, bins_);
  }

  const TransitionMatrix& m_;
  std::size_t bins_;
  std::size_t npad_;
  double* values_;  // steps 1..H, npad_ values each
  std::vector<Step>& steps_;
};

}  // namespace

std::shared_ptr<const ForecastTableCache::Tables> ForecastTableCache::get(
    const SproutParams& params) {
  // Building under the lock serializes first construction per key, which is
  // exactly the "build once per distinct SproutParams" guarantee a parallel
  // sweep wants; hits only pay a map lookup.
  std::lock_guard<std::mutex> lock(cache_mutex());
  auto& map = cache_map();
  const TableKey key = table_key(params);
  // Cache traffic counts unconditionally (cold path; tests assert exact
  // deltas through the registry with obs export on or off).
  static obs::Counter& hits =
      obs::Registry::instance().counter("cache.forecast_tables.hits");
  static obs::Counter& misses =
      obs::Registry::instance().counter("cache.forecast_tables.misses");
  const auto it = map.find(key);
  if (it != map.end()) {
    hits.add();
    return it->second;
  }
  misses.add();
  auto tables = build_tables(params);
  map.emplace(key, tables);
  return tables;
}

ByteCount DeliveryForecast::cumulative_at(int t) const {
  if (t <= 0 || cumulative_bytes.empty()) return 0;
  const int idx = std::min(t, ticks()) - 1;
  return cumulative_bytes[static_cast<std::size_t>(idx)];
}

DeliveryForecaster::DeliveryForecaster(const SproutParams& params)
    : params_(params),
      transitions_(TransitionMatrixCache::get(params)),
      cdf_(params.count_noise_in_forecast ? ForecastTableCache::get(params)
                                          : nullptr) {}

int DeliveryForecaster::rate_packets(std::size_t bin, int horizon) const {
  const auto last = static_cast<std::size_t>(params_.num_bins - 1);
  const double rate = params_.bin_rate(static_cast<int>(std::min(bin, last)));
  return static_cast<int>(rate * params_.tick_seconds() *
                          static_cast<double>(horizon));
}

int DeliveryForecaster::quantile_packets(const RateDistribution& dist,
                                         int horizon, int floor) const {
  return quantile_packets_of(dist.probabilities(), horizon, floor);
}

int DeliveryForecaster::quantile_packets_of(std::span<const double> p,
                                            int horizon, int floor) const {
  assert(horizon >= 1 && horizon <= params_.forecast_horizon_ticks);
  assert(floor >= 0 && floor <= params_.max_count);
  const double target = params_.forecast_percentile() / 100.0;
  if (!params_.count_noise_in_forecast) {
    // Quantile over the rate posterior alone: the cautious rate times the
    // horizon.  See SproutParams::count_noise_in_forecast.  The caller's
    // max-with-floor clamp makes applying the floor here equivalent.
    double cum = 0.0;
    const std::size_t bin = RateDistribution::quantile_scan(p, target, 0, cum);
    return std::max(rate_packets(bin, horizon), floor);
  }
  // Smallest n >= floor with mixture CDF >= target.  One probe at the floor
  // doubles as the early-out (quantile at or below the floor: the caller
  // clamps there anyway) and the search's lower bracket, so every endpoint
  // is evaluated exactly once.  The per-probe work is a contiguous dot over
  // the posterior's nonzero support against one count-major table row.
  const auto bins = static_cast<std::size_t>(params_.num_bins);
  const std::vector<double>& table =
      (*cdf_)[static_cast<std::size_t>(horizon - 1)];
  const auto [lo_bin, hi_bin] = RateDistribution::nonzero_support(p);
  const double* pp = p.data() + lo_bin;
  const std::size_t len = hi_bin - lo_bin;
  std::int64_t probes = 0;
  auto cdf_at = [&](int count) {
    ++probes;
    const double* col = &table[static_cast<std::size_t>(count) * bins];
    return kernels::dot(pp, col + lo_bin, len);
  };
  const auto flush_probes = [&] {
    if (obs::enabled()) tally_dot_calls(probes);
  };
  if (cdf_at(floor) >= target) {
    flush_probes();
    return floor;
  }
  // Invariant: cdf(lo) < target <= cdf(hi) (hi = max_count acts as the
  // clamp when even the full table row falls short).
  int lo = floor;
  int hi = params_.max_count;
  while (lo + 1 < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (cdf_at(mid) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  flush_probes();
  return hi;
}

DeliveryForecast DeliveryForecaster::forecast(
    const RateDistribution& current, TimePoint now,
    RateDistribution* first_step) const {
  const int horizon = params_.forecast_horizon_ticks;
  DeliveryForecast f;
  f.origin = now;
  f.tick = params_.tick;
  f.cumulative_bytes.reserve(static_cast<std::size_t>(horizon));
  // Cumulative deliveries cannot decrease with a longer horizon; the
  // previous horizon's count floors (and seeds the search of) this one's.
  int floor_packets = 0;
  const auto emit = [&](int packets) {
    floor_packets = packets;
    f.cumulative_bytes.push_back(static_cast<ByteCount>(packets) *
                                 params_.mtu);
  };
  const auto bins = static_cast<std::size_t>(params_.num_bins);
  HorizonSteps steps(*transitions_, current, horizon);
  if (first_step != nullptr && horizon > 0) {
    steps.extend(1, bins);
    const std::span<const double> step = steps.step(1);
    first_step->mutable_probabilities().assign(step.begin(), step.end());
  }
  const double target = params_.forecast_percentile() / 100.0;
  // Step h's crossing is predicted at step h-1's (the posterior's for
  // h = 1, unless step 1 is already whole): the cautious rate drifts only a
  // few bins per tick, so one request usually covers a step's whole scan.
  std::size_t crossing = 0;
  if (!params_.count_noise_in_forecast && first_step == nullptr) {
    double cum = 0.0;
    crossing = RateDistribution::quantile_scan(current.probabilities(), target,
                                               0, cum);
  }
  for (int h = 1; h <= horizon; ++h) {
    if (params_.count_noise_in_forecast) {
      // The mixture quantile's dot reads the step's whole support.
      steps.extend(h, bins);
      emit(quantile_packets_of(steps.step(h), h, floor_packets));
    } else {
      crossing = steps.quantile_bin(h, target, crossing);
      emit(std::max(rate_packets(crossing, h), floor_packets));
    }
  }
  if (obs::enabled()) count_forecast(horizon, steps.columns_computed());
  return f;
}

}  // namespace sprout
