// Unit tests for the adaptive-hyperparameter strategy (core/adaptive.h):
// Bayesian model averaging over a (σ, λz) hypothesis bank — §3.1's "a more
// sophisticated system would allow σ and λz to vary slowly with time".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <random>
#include <vector>

#include "core/adaptive.h"
#include "runner/scenario.h"

namespace sprout {
namespace {

SproutParams base_params() { return {}; }

// Drives the strategy with Poisson counts from a rate path; rate_fn gives
// the true rate at each tick.
template <typename RateFn>
void drive(ForecastStrategy& s, RateFn rate_fn, int ticks,
           unsigned seed = 42) {
  std::mt19937_64 gen(seed);
  const double tau = base_params().tick_seconds();
  for (int t = 0; t < ticks; ++t) {
    s.advance_tick();
    const double rate = rate_fn(t);
    std::poisson_distribution<int> d(std::max(1e-9, rate * tau));
    s.observe(d(gen));
  }
}

TEST(Adaptive, StartsWithUniformHypothesisWeights) {
  AdaptiveForecastStrategy s(base_params());
  const std::vector<double> w = s.hypothesis_weights();
  ASSERT_EQ(w.size(), 5u);
  for (const double v : w) EXPECT_NEAR(v, 0.2, 1e-9);
}

TEST(Adaptive, WeightsStayNormalized) {
  AdaptiveForecastStrategy s(base_params());
  drive(s, [](int) { return 400.0; }, 300);
  const std::vector<double> w = s.hypothesis_weights();
  double sum = 0.0;
  for (const double v : w) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Adaptive, SelectsLowSigmaOnQuietLink) {
  // A dead-steady rate: the least-volatile hypothesis predicts best.
  AdaptiveForecastStrategy s(base_params());
  drive(s, [](int) { return 400.0; }, 2000);
  EXPECT_LE(s.map_hypothesis().sigma_pps_per_sqrt_s, 100.0);
}

TEST(Adaptive, SelectsHighSigmaOnVolatileLink) {
  // Rate slams between 100 and 900 every second: only a high-σ model
  // explains consecutive observations.
  AdaptiveForecastStrategy s(base_params());
  drive(s, [](int t) { return (t / 50) % 2 == 0 ? 100.0 : 900.0; }, 2000);
  EXPECT_GE(s.map_hypothesis().sigma_pps_per_sqrt_s, 400.0);
}

TEST(Adaptive, TracksRegimeChangeInVariability) {
  // §3.1's motivating case: the network's variability itself drifts.  A
  // long quiet phase then a long volatile phase must flip the selection.
  AdaptiveForecastStrategy s(base_params());
  drive(s, [](int) { return 400.0; }, 2500, 1);
  const double sigma_quiet = s.map_hypothesis().sigma_pps_per_sqrt_s;
  drive(s, [](int t) { return (t / 50) % 2 == 0 ? 100.0 : 900.0; }, 2500, 2);
  const double sigma_volatile = s.map_hypothesis().sigma_pps_per_sqrt_s;
  EXPECT_LT(sigma_quiet, sigma_volatile);
}

TEST(Adaptive, ForgettingKeepsDeadHypothesesRevivable) {
  AdaptiveParams ap;
  ap.min_weight = 1e-6;
  AdaptiveForecastStrategy s(base_params(), ap);
  drive(s, [](int) { return 400.0; }, 3000);
  // Even after 3000 one-sided ticks every weight stays at or above the
  // floor (within normalization slack).
  for (const double w : s.hypothesis_weights()) {
    EXPECT_GE(w, 1e-7);
  }
}

TEST(Adaptive, ForecastIsMonotoneInHorizon) {
  AdaptiveForecastStrategy s(base_params());
  drive(s, [](int) { return 500.0; }, 400);
  const DeliveryForecast f = s.make_forecast(TimePoint{});
  for (int h = 1; h < f.ticks(); ++h) {
    EXPECT_LE(f.cumulative_at(h), f.cumulative_at(h + 1));
  }
}

TEST(Adaptive, ForecastOriginAndTickAreStamped) {
  AdaptiveForecastStrategy s(base_params());
  drive(s, [](int) { return 500.0; }, 100);
  const TimePoint now = TimePoint{} + sec(3);
  const DeliveryForecast f = s.make_forecast(now);
  EXPECT_EQ(f.origin, now);
  EXPECT_EQ(f.tick, base_params().tick);
  EXPECT_EQ(f.ticks(), base_params().forecast_horizon_ticks);
}

TEST(Adaptive, EstimatedRateTracksTruth) {
  AdaptiveForecastStrategy s(base_params());
  drive(s, [](int) { return 600.0; }, 1000);
  EXPECT_NEAR(s.estimated_rate_pps(), 600.0, 90.0);
}

TEST(Adaptive, MoreCautiousThanSingleModelWhenUncertain) {
  // Early on (few observations) the mixture spans all hypotheses, so the
  // adaptive forecast must be at most the most optimistic member's and at
  // least the most pessimistic member's.
  SproutParams p = base_params();
  AdaptiveForecastStrategy adaptive(p);

  SproutParams lo = p;
  lo.sigma_pps_per_sqrt_s = 50.0;
  BayesianForecastStrategy narrow(lo);
  SproutParams hi = p;
  hi.sigma_pps_per_sqrt_s = 800.0;
  BayesianForecastStrategy wide(hi);

  std::mt19937_64 gen(9);
  const double tau = p.tick_seconds();
  for (int t = 0; t < 20; ++t) {
    std::poisson_distribution<int> d(500.0 * tau);
    const int k = d(gen);
    adaptive.advance_tick();
    adaptive.observe(k);
    narrow.advance_tick();
    narrow.observe(k);
    wide.advance_tick();
    wide.observe(k);
  }
  const auto fa = adaptive.make_forecast(TimePoint{});
  const auto fn = narrow.make_forecast(TimePoint{});
  const auto fw = wide.make_forecast(TimePoint{});
  EXPECT_LE(fa.cumulative_at(8), std::max(fn.cumulative_at(8),
                                          fw.cumulative_at(8)));
  EXPECT_GE(fa.cumulative_at(8), std::min(fn.cumulative_at(8),
                                          fw.cumulative_at(8)));
}

TEST(Adaptive, CensoredTicksNeverLowerTheRateBelief) {
  AdaptiveForecastStrategy s(base_params());
  drive(s, [](int) { return 500.0; }, 500);
  const double before = s.estimated_rate_pps();
  // A burst of sender-limited ticks with tiny counts: the censored update
  // must not drag the belief toward the offered load.
  for (int t = 0; t < 50; ++t) {
    s.advance_tick();
    s.observe_lower_bound(1);
  }
  EXPECT_GT(s.estimated_rate_pps(), 0.5 * before);
}

TEST(Adaptive, SingleHypothesisDegeneratesToBayesian) {
  // With one hypothesis equal to the paper's frozen values, the adaptive
  // strategy must produce the same forecasts as the plain Bayesian one.
  SproutParams p = base_params();
  AdaptiveParams ap;
  ap.hypotheses = {{p.sigma_pps_per_sqrt_s, p.outage_escape_rate_per_s}};
  AdaptiveForecastStrategy adaptive(p, ap);
  BayesianForecastStrategy plain(p);

  std::mt19937_64 gen(5);
  const double tau = p.tick_seconds();
  for (int t = 0; t < 300; ++t) {
    std::poisson_distribution<int> d(400.0 * tau);
    const int k = d(gen);
    adaptive.advance_tick();
    adaptive.observe(k);
    plain.advance_tick();
    plain.observe(k);
  }
  const auto fa = adaptive.make_forecast(TimePoint{});
  const auto fp = plain.make_forecast(TimePoint{});
  ASSERT_EQ(fa.ticks(), fp.ticks());
  for (int h = 1; h <= fa.ticks(); ++h) {
    EXPECT_EQ(fa.cumulative_at(h), fp.cumulative_at(h)) << "h=" << h;
  }
}

// End-to-end identity pin for Sprout-Adaptive, the one scheme whose tick
// still evolves its filters (five per endpoint).  The numbers were recorded
// from a build that batch-evolved same-instant filters across the scenario;
// the per-filter evolve must reproduce them, so any change in the bank's
// evolve/observe/forecast arithmetic shows here.  Throughput and delay are
// compared to 1e-9 relative (printed to 17 digits), packets exactly.
struct AdaptivePin {
  int flows = 1;
  std::int64_t packets_delivered = 0;
  std::vector<double> throughput_kbps;  // per flow
  std::vector<double> delay95_ms;       // per flow
};

void expect_pinned(const AdaptivePin& pin) {
  ScenarioSpec spec;
  spec.scheme = SchemeId::kSproutAdaptive;
  spec.link = LinkSpec::preset("Verizon LTE", LinkDirection::kDownlink);
  spec.run_time = sec(12);
  spec.warmup = sec(3);
  spec.seed = 42;
  if (pin.flows > 1) spec.topology = TopologySpec::shared_queue(pin.flows);
  const ScenarioResult r = run_scenario(spec);
  ASSERT_EQ(r.flows.size(), static_cast<std::size_t>(pin.flows));
  EXPECT_EQ(r.packets_delivered, pin.packets_delivered);
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    SCOPED_TRACE(i);
    const FlowResult& fr = r.flows[i];
    EXPECT_NEAR(fr.throughput_kbps, pin.throughput_kbps[i],
                1e-9 * pin.throughput_kbps[i])
        << std::setprecision(17) << fr.throughput_kbps;
    EXPECT_NEAR(fr.delay95_ms, pin.delay95_ms[i], 1e-9 * pin.delay95_ms[i])
        << std::setprecision(17) << fr.delay95_ms;
  }
}

TEST(AdaptiveIdentity, SingleFlowMatchesPinnedResult) {
  expect_pinned({1, 1200, {786.66666666666663}, {84.159899864228422}});
}

TEST(AdaptiveIdentity, SharedQueueMatchesPinnedResult) {
  expect_pinned({2,
                 2213,
                 {601.42222222222222, 784.3555555555555},
                 {159.20459974481903, 154.43466641251283}});
}

}  // namespace
}  // namespace sprout
