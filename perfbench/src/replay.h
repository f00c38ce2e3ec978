// Per-call costs of each layer, measured by driving the layer's public API
// on inputs shaped like the workload.  Multiplied by the counts a traced
// run reads from the obs registry, they estimate each layer's share of
// the wall time.
#pragma once

#include "runner/scenario.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

struct ReplayShape {
  // Filters evolved per batch pass (the traced run's
  // batcher.max_group_size, at least 2).
  int batch_size = 2;
  // Users attached to the replayed TowerCell (the traced run's
  // tower.attached_users.peak, or the tower workload's initial population
  // for workloads without a tower).
  int tower_users = 64;
  sprout::TowerSpec tower;
};

struct ReplayCosts {
  // core: per-call percentiles, ns.
  double forecast_p50 = 0.0, forecast_p99 = 0.0;
  double evolve_p50 = 0.0, evolve_p99 = 0.0;
  double evolve_batch_per_flow_p50 = 0.0, evolve_batch_per_flow_p99 = 0.0;
  double observe_p50 = 0.0, observe_p99 = 0.0;
  // link, synth, sim, metrics: medians of per-call chunk means, ns.
  double tower_step_ns = 0.0;
  double channel_advance_ns = 0.0;
  double cellsim_ns_per_packet = 0.0;  // the link's events included
  double cellsim_events_per_packet = 0.0;
  double event_ns = 0.0;  // one Simulator::at plus one step
  double hist_add_ns = 0.0;
  double recorder_ns = 0.0;  // one delivery plus one queue sample
};

[[nodiscard]] ReplayCosts replay_layers(const Workload& w,
                                        const ReplayShape& shape,
                                        SpanLog& spans);

}  // namespace perfbench
