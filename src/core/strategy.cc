#include "core/strategy.h"

#include <algorithm>
#include <cmath>

namespace sprout {

BayesianForecastStrategy::BayesianForecastStrategy(const SproutParams& params)
    : filter_(params), forecaster_(params), next_evolved_(params.num_bins) {}

void BayesianForecastStrategy::advance_tick() {
  if (next_evolved_valid_) {
    next_evolved_valid_ = false;
    filter_.adopt_evolved(next_evolved_);
  } else {
    filter_.evolve();
  }
}

DeliveryForecast BayesianForecastStrategy::make_forecast(TimePoint now) const {
  DeliveryForecast f =
      forecaster_.forecast(filter_.distribution(), now, &next_evolved_);
  next_evolved_valid_ = f.ticks() > 0;
  return f;
}

EwmaForecastStrategy::EwmaForecastStrategy(const SproutParams& params,
                                           EwmaParams ewma)
    : params_(params), ewma_(ewma) {}

void EwmaForecastStrategy::observe(int packets) {
  const double sample =
      static_cast<double>(packets) / params_.tick_seconds();
  if (!primed_) {
    // Seed from the first genuine observation instead of ramping from zero.
    rate_pps_ = sample;
    primed_ = true;
    return;
  }
  rate_pps_ = ewma_.gain * sample + (1.0 - ewma_.gain) * rate_pps_;
}

void EwmaForecastStrategy::observe_lower_bound(int packets) {
  const double sample = static_cast<double>(packets) / params_.tick_seconds();
  if (sample > rate_pps_) observe(packets);
}

DeliveryForecast EwmaForecastStrategy::make_forecast(TimePoint now) const {
  DeliveryForecast f;
  f.origin = now;
  f.tick = params_.tick;
  const double per_tick_bytes =
      rate_pps_ * params_.tick_seconds() * static_cast<double>(params_.mtu);
  double cum = 0.0;
  for (int h = 1; h <= params_.forecast_horizon_ticks; ++h) {
    cum += per_tick_bytes;
    f.cumulative_bytes.push_back(static_cast<ByteCount>(cum));
  }
  return f;
}

std::unique_ptr<ForecastStrategy> make_bayesian_strategy(const SproutParams& p) {
  return std::make_unique<BayesianForecastStrategy>(p);
}

std::unique_ptr<ForecastStrategy> make_ewma_strategy(const SproutParams& p,
                                                     EwmaParams e) {
  return std::make_unique<EwmaForecastStrategy>(p, e);
}

}  // namespace sprout
