#include "replay.h"

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "core/forecaster.h"
#include "core/rate_model.h"
#include "link/cellsim.h"
#include "link/tower_cell.h"
#include "metrics/histogram.h"
#include "metrics/recorder.h"
#include "sim/simulator.h"
#include "stats.h"

namespace perfbench {

using namespace sprout;

namespace {

// Keeps replayed results observable so the calls cannot be optimised
// away.
volatile double g_sink = 0.0;

// Median over `chunks` of the mean cost of `per_chunk` back-to-back calls.
template <class F>
double chunked_ns(int chunks, int per_chunk, F&& call) {
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(chunks));
  for (int c = 0; c < chunks; ++c) {
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < per_chunk; ++k) call();
    means.push_back(static_cast<double>(now_ns() - t0) / per_chunk);
  }
  return median(means);
}

// Per-tick delivery counts that lock a posterior to the workload's link:
// its first preset trace binned by tick, or for the tower a user's live
// channel rate times the tick.
std::vector<int> tick_counts(const Workload& w, const ReplayShape& shape,
                             const SproutParams& params) {
  std::vector<int> counts;
  if (!w.traces.empty()) {
    const Trace& t = w.traces.front();
    const auto ticks = static_cast<std::size_t>(t.duration() / params.tick);
    counts.assign(std::max<std::size_t>(ticks, 1), 0);
    for (const TimePoint op : t.opportunities()) {
      const auto i = static_cast<std::size_t>((op - TimePoint{}) / params.tick);
      if (i < counts.size()) ++counts[i];
    }
    return counts;
  }
  const auto channel = make_tower_channel(shape.tower.channel, w.seed);
  for (int i = 0; i < 3000; ++i) {
    counts.push_back(static_cast<int>(
        std::lround(channel->advance() * params.tick_seconds())));
  }
  return counts;
}

void replay_core(const Workload& w, const ReplayShape& shape,
                 ReplayCosts& out) {
  const SproutParams params;
  const std::vector<int> counts = tick_counts(w, shape, params);
  std::size_t tick = 0;
  const auto next_count = [&] { return counts[tick++ % counts.size()]; };

  SproutBayesFilter filter(params);
  const DeliveryForecaster forecaster(params);
  for (int i = 0; i < 250; ++i) {
    filter.evolve();
    filter.observe(next_count());
  }
  constexpr int kCalls = 3000;
  std::vector<double> evolve, observe, forecast;
  for (int i = 0; i < kCalls; ++i) {
    std::int64_t t0 = now_ns();
    filter.evolve();
    evolve.push_back(static_cast<double>(now_ns() - t0));
    const int c = next_count();
    t0 = now_ns();
    filter.observe(c);
    observe.push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    const DeliveryForecast f =
        forecaster.forecast(filter.distribution(), TimePoint{});
    forecast.push_back(static_cast<double>(now_ns() - t0));
    g_sink = g_sink + static_cast<double>(f.cumulative_bytes.back());
  }
  out.evolve_p50 = quantile(evolve, 0.5);
  out.evolve_p99 = quantile(evolve, 0.99);
  out.observe_p50 = quantile(observe, 0.5);
  out.observe_p99 = quantile(observe, 0.99);
  out.forecast_p50 = quantile(forecast, 0.5);
  out.forecast_p99 = quantile(forecast, 0.99);

  std::vector<SproutBayesFilter> batch(
      static_cast<std::size_t>(shape.batch_size), filter);
  std::vector<SproutBayesFilter*> ptrs;
  for (SproutBayesFilter& f : batch) ptrs.push_back(&f);
  std::vector<double> per_flow;
  for (int i = 0; i < kCalls / 2; ++i) {
    const std::int64_t t0 = now_ns();
    SproutBayesFilter::evolve_batch(ptrs);
    per_flow.push_back(static_cast<double>(now_ns() - t0) /
                       shape.batch_size);
    const int c = next_count();
    for (SproutBayesFilter* f : ptrs) {
      f->evolve();  // consumes the batch mark, as an endpoint's tick does
      f->observe(c);
    }
  }
  out.evolve_batch_per_flow_p50 = quantile(per_flow, 0.5);
  out.evolve_batch_per_flow_p99 = quantile(per_flow, 0.99);
}

// Returns one user's delivery opportunities, the tower's own link trace.
Trace replay_tower(const Workload& w, const ReplayShape& shape,
                   ReplayCosts& out) {
  TowerCellParams params;
  params.slot = shape.tower.slot;
  params.pf_window = shape.tower.pf_window;
  TowerCell cell(params);
  for (int u = 1; u <= shape.tower_users; ++u) {
    cell.add_user(u, make_tower_channel(shape.tower.channel,
                                        w.seed * 1000003ull + u));
  }
  for (int i = 0; i < 500; ++i) cell.step();
  out.tower_step_ns = chunked_ns(100, 250, [&] { cell.step(); });
  const Duration elapsed = cell.now() - TimePoint{};
  std::vector<TimePoint> opps = cell.remove_user(1);

  const auto channel = make_tower_channel(shape.tower.channel, w.seed);
  out.channel_advance_ns = chunked_ns(100, 1000, [&] {
    g_sink = g_sink + channel->advance();
  });
  return Trace(std::move(opps), elapsed);
}

// Feeds one MTU packet per delivery opportunity, chained one event at a
// time as a sender would, and times the whole run per delivered packet.
void replay_cellsim(const Trace& trace, ReplayCosts& out) {
  struct CountingSink : PacketSink {
    std::int64_t packets = 0;
    void receive(Packet&&) override { ++packets; }
  };
  const std::size_t limit = std::min<std::size_t>(trace.size(), 20000);
  if (limit < 2) return;
  std::vector<double> ns, events;
  for (int rep = 0; rep < 5; ++rep) {
    Simulator sim;
    CountingSink sink;
    CellsimLink link(sim, trace, CellsimConfig{}, sink);
    std::size_t next = 0;
    std::function<void()> feed = [&] {
      Packet p;
      p.flow_id = 1;
      p.size = kMtuBytes;
      p.sent_at = sim.now();
      link.receive(std::move(p));
      if (++next < limit) sim.at(trace.opportunity(next), feed);
    };
    sim.at(trace.opportunity(0), feed);
    const std::int64_t t0 = now_ns();
    sim.run_until(trace.opportunity(limit - 1) + msec(100));
    const double wall = static_cast<double>(now_ns() - t0);
    if (sink.packets == 0) return;
    ns.push_back(wall / static_cast<double>(sink.packets));
    events.push_back(static_cast<double>(sim.events_processed()) /
                     static_cast<double>(sink.packets));
  }
  out.cellsim_ns_per_packet = median(ns);
  out.cellsim_events_per_packet = median(events);
}

void replay_sim_and_metrics(ReplayCosts& out) {
  std::vector<Duration> delays(4096);
  std::uint64_t x = 88172645463325252ull;
  for (Duration& d : delays) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    d = usec(20000 + static_cast<std::int64_t>(x % 480000));
  }

  Simulator sim;
  for (int i = 0; i < 64; ++i) sim.at(sim.now() + delays[i], [] {});
  std::size_t k = 0;
  out.event_ns = chunked_ns(200, 1000, [&] {
    sim.at(sim.now() + delays[k++ & 4095], [] {});
    sim.step();
  });

  DelayHistogram hist(msec(5), sec(20));
  out.hist_add_ns = chunked_ns(100, 4096, [&] { hist.add(delays[k++ & 4095]); });
  g_sink = g_sink + hist.mean_ms();

  FlowTimelineRecorder rec(msec(500), TimePoint{}, TimePoint{} + sec(300));
  std::int64_t n = 0;
  out.recorder_ns = chunked_ns(100, 4096, [&] {
    const TimePoint now = TimePoint{} + usec((n++ * 2000) % 299000000);
    rec.record_queue_sample(now, 10, 10 * kMtuBytes);
    rec.record_delivery(now - delays[k++ & 4095], now, kMtuBytes);
  });
}

}  // namespace

ReplayCosts replay_layers(const Workload& w, const ReplayShape& shape,
                          SpanLog& spans) {
  ScopedSpan all(spans, "replay");
  ReplayCosts out;
  {
    ScopedSpan s(spans, "replay core", all.id());
    replay_core(w, shape, out);
  }
  Trace tower_trace;
  {
    ScopedSpan s(spans, "replay link.tower + synth", all.id());
    tower_trace = replay_tower(w, shape, out);
  }
  {
    ScopedSpan s(spans, "replay link.cellsim", all.id());
    replay_cellsim(w.traces.empty() ? tower_trace : w.traces.front(), out);
  }
  {
    ScopedSpan s(spans, "replay sim + metrics", all.id());
    replay_sim_and_metrics(out);
  }
  return out;
}

}  // namespace perfbench
