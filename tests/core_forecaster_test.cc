#include "core/forecaster.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "obs/metrics.h"
#include "util/kernels.h"

namespace sprout {
namespace {

RateDistribution locked_at(const SproutParams& p, int per_tick, int ticks = 60) {
  SproutBayesFilter f(p);
  for (int t = 0; t < ticks; ++t) {
    f.evolve();
    f.observe(per_tick);
  }
  return f.distribution();
}

TEST(Forecast, CumulativeIsNondecreasing) {
  SproutParams p;
  DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 10);
  const DeliveryForecast f = fc.forecast(d, TimePoint{} + sec(1));
  ASSERT_EQ(f.ticks(), 8);
  for (int h = 1; h < 8; ++h) {
    EXPECT_LE(f.cumulative_bytes[static_cast<std::size_t>(h - 1)],
              f.cumulative_bytes[static_cast<std::size_t>(h)]);
  }
  EXPECT_EQ(f.cumulative_at(0), 0);
  EXPECT_EQ(f.cumulative_at(8), f.cumulative_bytes.back());
  EXPECT_EQ(f.cumulative_at(20), f.cumulative_bytes.back());  // clamps
}

TEST(Forecast, CautiousBelowTheMean) {
  SproutParams p;
  DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 10);  // ~500 pps
  const DeliveryForecast f = fc.forecast(d, TimePoint{});
  // Mean deliveries over 160 ms at 500 pps = 80 packets = 120000 bytes.
  // The 95%-confident forecast must be well below the mean but nonzero.
  EXPECT_GT(f.cumulative_at(8), 30000);
  EXPECT_LT(f.cumulative_at(8), 120000);
}

TEST(Forecast, HigherConfidenceIsMoreCautious) {
  SproutParams p95;
  p95.confidence_percent = 95.0;
  SproutParams p50 = p95;
  p50.confidence_percent = 50.0;
  SproutParams p5 = p95;
  p5.confidence_percent = 5.0;
  const RateDistribution d = locked_at(p95, 10);
  const ByteCount f95 =
      DeliveryForecaster(p95).forecast(d, TimePoint{}).cumulative_at(8);
  const ByteCount f50 =
      DeliveryForecaster(p50).forecast(d, TimePoint{}).cumulative_at(8);
  const ByteCount f5 =
      DeliveryForecaster(p5).forecast(d, TimePoint{}).cumulative_at(8);
  EXPECT_LT(f95, f50);
  EXPECT_LT(f50, f5);
}

TEST(Forecast, OutageBeliefForecastsNothing) {
  SproutParams p;
  SproutBayesFilter f(p);
  for (int t = 0; t < 60; ++t) {
    f.evolve();
    f.observe(0);
  }
  DeliveryForecaster fc(p);
  const DeliveryForecast fore = fc.forecast(f.distribution(), TimePoint{});
  EXPECT_LT(fore.cumulative_at(8), 5 * kMtuBytes);
}

TEST(Forecast, UncertaintyGrowsWithHorizon) {
  // Per-tick increments should shrink toward the end of the horizon: the
  // belief diffuses forward, so the cautious quantile decays.
  SproutParams p;
  DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 10);
  const DeliveryForecast f = fc.forecast(d, TimePoint{});
  const ByteCount first_half = f.cumulative_at(4);
  const ByteCount second_half = f.cumulative_at(8) - f.cumulative_at(4);
  EXPECT_GE(first_half, second_half);
}

TEST(Forecast, MixtureVariantAlsoMonotoneAndMoreCautious) {
  SproutParams rate_only;
  SproutParams with_noise = rate_only;
  with_noise.count_noise_in_forecast = true;
  const RateDistribution d = locked_at(rate_only, 10);
  const DeliveryForecast a =
      DeliveryForecaster(rate_only).forecast(d, TimePoint{});
  const DeliveryForecast b =
      DeliveryForecaster(with_noise).forecast(d, TimePoint{});
  for (int h = 1; h <= 8; ++h) {
    EXPECT_LE(b.cumulative_at(h), a.cumulative_at(h) + kMtuBytes) << "h=" << h;
  }
  for (int h = 2; h <= 8; ++h) {
    EXPECT_GE(b.cumulative_at(h), b.cumulative_at(h - 1));
  }
}

TEST(Forecast, QuantilePacketsInvertsMixtureCdf) {
  SproutParams p;
  p.count_noise_in_forecast = true;
  DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 10);
  // The returned quantile must be consistent: at least 5% of the mixture
  // mass lies at or below it.
  const int q = fc.quantile_packets(d, 5);
  EXPECT_GT(q, 10);   // not absurdly small
  EXPECT_LT(q, 60);   // and below the ~50 mean
}

TEST(Forecast, FloorHintNeverChangesTheForecast) {
  // The monotone-floor short-circuit: seeding horizon h's quantile search
  // with horizon h-1's answer must reproduce the plain (floorless) search
  // after the caller's max-with-floor clamp — for both quantile variants.
  for (const bool noise : {false, true}) {
    SproutParams p;
    p.count_noise_in_forecast = noise;
    DeliveryForecaster fc(p);
    const auto kernel = TransitionMatrixCache::get(p);
    for (const int per_tick : {0, 2, 10, 18}) {
      const RateDistribution d = locked_at(p, per_tick);
      RateDistribution evolved = d;
      int floor = 0;
      for (int h = 1; h <= p.forecast_horizon_ticks; ++h) {
        kernel->evolve(evolved);
        const int plain = std::max(fc.quantile_packets(evolved, h), floor);
        const int hinted = fc.quantile_packets(evolved, h, floor);
        EXPECT_EQ(hinted, plain)
            << "noise=" << noise << " rate=" << per_tick << " h=" << h;
        floor = hinted;
      }
    }
  }
}

// The forecast with every horizon step evolved in full (TransitionMatrix::
// evolve, then the percentile scan): the reference the on-demand horizon
// evolve must match bit for bit.  `first_step` receives step 1.
DeliveryForecast full_evolve_forecast(const SproutParams& p,
                                      const RateDistribution& d, TimePoint now,
                                      RateDistribution* first_step = nullptr) {
  const auto kernel = TransitionMatrixCache::get(p);
  const DeliveryForecaster mixture(p);  // count_noise_in_forecast's quantile
  DeliveryForecast f;
  f.origin = now;
  f.tick = p.tick;
  RateDistribution evolved = d;
  int floor = 0;
  for (int h = 1; h <= p.forecast_horizon_ticks; ++h) {
    kernel->evolve(evolved);
    if (h == 1 && first_step != nullptr) *first_step = evolved;
    if (p.count_noise_in_forecast) {
      floor = mixture.quantile_packets(evolved, h, floor);
    } else {
      const double rate = evolved.quantile(p, p.forecast_percentile());
      floor = std::max(floor, static_cast<int>(rate * p.tick_seconds() *
                                               static_cast<double>(h)));
    }
    f.cumulative_bytes.push_back(static_cast<ByteCount>(floor) * p.mtu);
  }
  return f;
}

bool same_bits(const RateDistribution& a, const RateDistribution& b) {
  return a.num_bins() == b.num_bins() &&
         std::memcmp(a.probabilities().data(), b.probabilities().data(),
                     a.probabilities().size() * sizeof(double)) == 0;
}

// forecast() against the full-evolve reference, with and without the first
// step handed back; the first step must be evolve(d) bit for bit.
::testing::AssertionResult matches_full_evolve(const SproutParams& p,
                                               const DeliveryForecaster& fc,
                                               const RateDistribution& d) {
  const TimePoint now = TimePoint{} + sec(2);
  RateDistribution got_first(p.num_bins);
  RateDistribution want_first(p.num_bins);
  const DeliveryForecast want = full_evolve_forecast(p, d, now, &want_first);
  const DeliveryForecast got = fc.forecast(d, now, &got_first);
  const DeliveryForecast bare = fc.forecast(d, now);
  if (got.origin != want.origin || got.tick != want.tick) {
    return ::testing::AssertionFailure() << "stamps differ";
  }
  if (got.cumulative_bytes != want.cumulative_bytes ||
      bare.cumulative_bytes != want.cumulative_bytes) {
    return ::testing::AssertionFailure() << "cumulative bytes differ";
  }
  if (p.forecast_horizon_ticks > 0 && !same_bits(got_first, want_first)) {
    return ::testing::AssertionFailure() << "first step differs";
  }
  return ::testing::AssertionSuccess();
}

class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::active_backend()) {}
  ~BackendGuard() { kernels::force_backend(saved_.c_str()); }

 private:
  std::string saved_;
};

TEST(Forecast, BatchBitIdenticalToSerialForecasts) {
  SproutParams p;
  DeliveryForecaster fc(p);
  for (const int per_tick : {0, 3, 10, 14, 19}) {
    EXPECT_TRUE(matches_full_evolve(p, fc, locked_at(p, per_tick)))
        << "rate " << per_tick;
  }
}

TEST(Forecast, OnDemandHorizonIsBitIdenticalToFullEvolve) {
  const BackendGuard guard;
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::force_backend(backend)) continue;
    for (const double eps : {SproutParams{}.band_epsilon, 0.0}) {
      for (const int horizon : {1, 8, 16}) {
        for (const bool noise : {false, true}) {
          SproutParams p;
          p.band_epsilon = eps;
          p.forecast_horizon_ticks = horizon;
          p.count_noise_in_forecast = noise;
          const DeliveryForecaster fc(p);
          std::vector<RateDistribution> posteriors;
          posteriors.emplace_back(p.num_bins);  // uniform
          RateDistribution outage(p.num_bins);  // mostly in the outage bin
          std::fill(outage.mutable_probabilities().begin(),
                    outage.mutable_probabilities().end(), 0.0);
          outage.mutable_probabilities()[0] = 0.97;
          outage.mutable_probabilities()[1] = 0.02;
          outage.mutable_probabilities()[40] = 0.01;
          posteriors.push_back(outage);
          RateDistribution top(p.num_bins);  // at the top of the grid
          std::fill(top.mutable_probabilities().begin(),
                    top.mutable_probabilities().end(), 0.0);
          top.mutable_probabilities()[p.num_bins - 2] = 0.25;
          top.mutable_probabilities()[p.num_bins - 1] = 0.75;
          posteriors.push_back(top);
          // A thin low mode the kernel spreads upward: each step's crossing
          // climbs past the previous step's block, so the scans must grow
          // their steps beyond the predicted prefix.
          RateDistribution rising(p.num_bins);
          std::fill(rising.mutable_probabilities().begin(),
                    rising.mutable_probabilities().end(), 0.0);
          rising.mutable_probabilities()[1] = 0.06;
          rising.mutable_probabilities()[128] = 0.94;
          posteriors.push_back(rising);
          for (int per_tick = 0; per_tick <= 19; ++per_tick) {
            posteriors.push_back(locked_at(p, per_tick));
          }
          for (std::size_t i = 0; i < posteriors.size(); ++i) {
            EXPECT_TRUE(matches_full_evolve(p, fc, posteriors[i]))
                << backend << " eps=" << eps << " horizon=" << horizon
                << " noise=" << noise << " posterior " << i;
          }
        }
      }
    }
  }
}

TEST(Forecast, OnDemandHorizonMatchesWithACrossingInTheLastBlock) {
  // A narrow kernel keeps a top-of-grid posterior in the top bins, so every
  // step's percentile crossing falls in the last column block: the scan
  // pulls each step's whole prefix, one block at a time.
  const BackendGuard guard;
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::force_backend(backend)) continue;
    SproutParams p;
    p.sigma_pps_per_sqrt_s = 10.0;
    const DeliveryForecaster fc(p);
    RateDistribution top(p.num_bins);
    std::fill(top.mutable_probabilities().begin(),
              top.mutable_probabilities().end(), 0.0);
    top.mutable_probabilities()[p.num_bins - 1] = 1.0;
    RateDistribution last = top;
    const auto kernel = TransitionMatrixCache::get(p);
    for (int h = 0; h < p.forecast_horizon_ticks; ++h) kernel->evolve(last);
    const auto last_block_start = static_cast<int>(4 * (kernel->num_blocks() - 1));
    ASSERT_GE(last.quantile(p, p.forecast_percentile()),
              p.bin_rate(last_block_start));
    EXPECT_TRUE(matches_full_evolve(p, fc, top)) << backend;
  }
}

TEST(Forecast, OnDemandHorizonTracksAScriptedFilterRun) {
  // 400 ticks of a filter locking on, ramping, blacking out and recovering,
  // with censored and zero ticks: every tick's forecast must match.
  const BackendGuard guard;
  for (const char* backend : {"scalar", "avx2"}) {
    if (!kernels::force_backend(backend)) continue;
    for (const double eps : {SproutParams{}.band_epsilon, 0.0}) {
      for (const int horizon : {1, 8, 16}) {
        for (const bool noise : {false, true}) {
          SproutParams p;
          p.band_epsilon = eps;
          p.forecast_horizon_ticks = horizon;
          p.count_noise_in_forecast = noise;
          const DeliveryForecaster fc(p);
          SproutBayesFilter filter(p);
          std::mt19937_64 rng(14);
          for (int t = 0; t < 400; ++t) {
            filter.evolve();
            const int level = t < 100 ? 3 : t < 200 ? 17 : t < 240 ? 0 : 8;
            const auto packets =
                std::max(0, level + static_cast<int>(rng() % 5) - 2);
            if (rng() % 7 == 0) {
              filter.observe_at_least(packets);
            } else if (rng() % 11 != 0) {  // else: an unobserved tick
              filter.observe(packets);
            }
            ASSERT_TRUE(matches_full_evolve(p, fc, filter.distribution()))
                << backend << " eps=" << eps << " horizon=" << horizon
                << " noise=" << noise << " tick " << t;
          }
        }
      }
    }
  }
}

TEST(Forecast, LowRatePosteriorEvolvesOnlyTheColumnsItReads) {
  // At 2 packets/tick the 5th-percentile crossing sits in the first column
  // blocks, so the later steps stop far short of the full grid.  Each
  // forecast still counts one banded evolve per horizon step.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  SproutParams p;
  const DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 2);
  RateDistribution first(p.num_bins);
  obs::Registry& reg = obs::Registry::instance();
  const std::int64_t columns0 = reg.counter("forecast.evolve.columns").value();
  const std::int64_t banded0 = reg.counter("filter.evolve.banded").value();
  const DeliveryForecast f = fc.forecast(d, TimePoint{}, &first);
  const std::int64_t columns =
      reg.counter("forecast.evolve.columns").value() - columns0;
  const std::int64_t banded = reg.counter("filter.evolve.banded").value() - banded0;
  obs::set_enabled(was_enabled);
  EXPECT_EQ(f.ticks(), 8);
  EXPECT_EQ(banded, 8);
  EXPECT_GE(columns, p.num_bins);  // step 1 in full, for `first`
  EXPECT_LT(columns, 8 * p.num_bins);
}

TEST(EwmaStrategy, FlatExtrapolationAtEstimatedRate) {
  SproutParams p;
  EwmaForecastStrategy s(p, EwmaParams{});
  for (int t = 0; t < 100; ++t) s.observe(10);
  EXPECT_NEAR(s.estimated_rate_pps(), 500.0, 5.0);
  const DeliveryForecast f = s.make_forecast(TimePoint{});
  // 500 pps for 160 ms = 80 packets; EWMA forecasts the mean, not a
  // cautious quantile.
  EXPECT_NEAR(static_cast<double>(f.cumulative_at(8)),
              80.0 * static_cast<double>(kMtuBytes), 8000.0);
  // Linear in the horizon.
  EXPECT_NEAR(static_cast<double>(f.cumulative_at(4)) * 2.0,
              static_cast<double>(f.cumulative_at(8)), 3100.0);
}

TEST(EwmaStrategy, LowPassLagsSuddenDrop) {
  SproutParams p;
  EwmaForecastStrategy s(p, EwmaParams{});
  for (int t = 0; t < 100; ++t) s.observe(10);
  // Rate collapses; the EWMA responds only gradually (the paper's §5.3
  // explanation for Sprout-EWMA's delay).
  s.observe(0);
  s.observe(0);
  EXPECT_GT(s.estimated_rate_pps(), 300.0);
  for (int t = 0; t < 60; ++t) s.observe(0);
  EXPECT_LT(s.estimated_rate_pps(), 10.0);
}

TEST(EwmaStrategy, CensoredTickOnlyRaises) {
  SproutParams p;
  EwmaForecastStrategy s(p, EwmaParams{});
  for (int t = 0; t < 100; ++t) s.observe(10);
  const double before = s.estimated_rate_pps();
  s.observe_lower_bound(1);  // sender-limited trickle
  EXPECT_DOUBLE_EQ(s.estimated_rate_pps(), before);
  s.observe_lower_bound(15);  // genuine evidence of more headroom
  EXPECT_GT(s.estimated_rate_pps(), before);
}

TEST(BayesianStrategy, EndToEndViaInterface) {
  SproutParams p;
  auto s = make_bayesian_strategy(p);
  for (int t = 0; t < 60; ++t) {
    s->advance_tick();
    s->observe(5);
  }
  EXPECT_NEAR(s->estimated_rate_pps(), 250.0, 50.0);
  const DeliveryForecast f = s->make_forecast(TimePoint{} + msec(100));
  EXPECT_EQ(f.origin, TimePoint{} + msec(100));
  EXPECT_GT(f.cumulative_at(8), 0);
}

// The forecast-seeded tick evolve is bit-invisible: a BayesianForecastStrategy
// (which adopts its last forecast's first horizon step as the next tick's
// evolve) and a bare filter + forecaster (which evolve every tick) must hold
// the same posterior bytes and emit the same forecasts on every tick of a
// script mixing every kind of receiver tick, plus call orders the receiver
// never makes: ticks with no forecast (with or without an observation), and
// a forecast made before the tick's observation (the kept step must then be
// dropped, not adopted).
TEST(BayesianStrategy, ForecastSeededEvolveMatchesBareFilter) {
  enum class Tick {
    kLinkLimited, kCensored, kZero, kSkipped, kNoForecast, kSilent,
    kForecastFirst
  };
  std::mt19937_64 rng(13);
  std::vector<Tick> script = {Tick::kLinkLimited};  // the first tick
  for (int t = 0; t < 400; ++t) {
    // Mostly link-limited, with runs of every other kind mixed in.
    const auto pick = static_cast<int>(rng() % 13);
    script.push_back(pick < 6     ? Tick::kLinkLimited
                     : pick < 8   ? Tick::kCensored
                     : pick == 8  ? Tick::kZero
                     : pick == 9  ? Tick::kSkipped
                     : pick == 10 ? Tick::kNoForecast
                     : pick == 11 ? Tick::kSilent
                                  : Tick::kForecastFirst);
  }
  for (const bool dense : {false, true}) {
    SproutParams p;
    p.dense_inference = dense;
    BayesianForecastStrategy strategy(p);
    SproutBayesFilter filter(p);
    const DeliveryForecaster forecaster(p);
    const auto same_posterior = [&] {
      const std::vector<double>& a =
          strategy.filter().distribution().probabilities();
      const std::vector<double>& b = filter.distribution().probabilities();
      return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    const auto same_forecast = [&](TimePoint now) {
      const DeliveryForecast got = strategy.make_forecast(now);
      const DeliveryForecast want =
          forecaster.forecast(filter.distribution(), now);
      return got.origin == want.origin &&
             got.cumulative_bytes == want.cumulative_bytes;
    };
    for (std::size_t t = 0; t < script.size(); ++t) {
      const int packets = 2 + static_cast<int>(rng() % 12);
      const TimePoint now = TimePoint{} + p.tick * static_cast<int>(t);
      strategy.advance_tick();
      filter.evolve();
      ASSERT_TRUE(same_posterior()) << "dense=" << dense << " tick " << t;
      if (script[t] == Tick::kForecastFirst) {
        ASSERT_TRUE(same_forecast(now)) << "dense=" << dense << " tick " << t;
      }
      switch (script[t]) {
        case Tick::kLinkLimited:
        case Tick::kNoForecast:
          strategy.observe(packets);
          filter.observe(packets);
          break;
        case Tick::kCensored:
          strategy.observe_lower_bound(packets);
          filter.observe_at_least(packets);
          break;
        case Tick::kForecastFirst:  // either update must drop the kept step
          if (packets % 2 == 0) {
            strategy.observe(packets);
            filter.observe(packets);
          } else {
            strategy.observe_lower_bound(packets);
            filter.observe_at_least(packets);
          }
          break;
        case Tick::kZero:
          strategy.observe(0);
          filter.observe(0);
          break;
        case Tick::kSkipped:  // time-to-next blackout: no observation
        case Tick::kSilent:
          break;
      }
      ASSERT_TRUE(same_posterior()) << "dense=" << dense << " tick " << t;
      if (script[t] == Tick::kNoForecast || script[t] == Tick::kSilent ||
          script[t] == Tick::kForecastFirst) {
        continue;
      }
      ASSERT_TRUE(same_forecast(now)) << "dense=" << dense << " tick " << t;
    }
  }
}

}  // namespace
}  // namespace sprout
