// Cross-flow evolution batching for the scenario event loop.
//
// Every Sprout endpoint runs its tick loop on a deterministic schedule
// (first tick, then every `tick` thereafter), and a scenario with N flows
// has up to 2N endpoints whose schedules collide (phases are staggered
// modulo the tick, so cohorts of endpoints share tick instants).  Each
// colliding endpoint would evolve its own posterior through the SAME cached
// transition matrix back to back — N traversals of one kernel.
//
// The batcher exploits the schedules' determinism: endpoints register their
// filters with (first_tick, period) at start; the FIRST endpoint to tick at
// any instant T calls on_tick(T), which evolves every filter due at exactly
// T in one TransitionMatrix::evolve_batch pass per shared kernel.  The
// other endpoints' own evolve() calls then consume the pending-batch mark
// as no-ops.  Bit-identical to the unbatched loop: evolution reads nothing
// but the filter's own posterior, so hoisting it ahead of sibling
// endpoints' same-instant observe/forecast work changes no arithmetic.
//
// Only filters that still evolve on the tick register: the adaptive
// strategy's hypothesis banks.  A Bayesian strategy's tick evolve is its
// previous forecast's first horizon step (core/strategy.h), so it offers
// the batcher nothing.
//
// Single-threaded (the simulator's event loop is); counters expose how much
// batching actually happened for tests and the perf trajectory.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rate_model.h"
#include "util/units.h"

namespace sprout {

class TickEvolveBatcher {
 public:
  // Registers `filters` as ticking first at `first_tick` and every `period`
  // thereafter.  The pointers must outlive the batcher's use (the scenario
  // owns flows and batcher with the same lifetime).
  void add(std::vector<SproutBayesFilter*> filters, TimePoint first_tick,
           Duration period);

  // Batch-evolves every registered filter due at exactly `now` that has not
  // evolved for this instant yet.  Endpoints call this at the top of their
  // tick; only the first same-instant caller finds work.
  void on_tick(TimePoint now);

  // Filters evolved through a multi-filter batch pass (size >= 2).
  [[nodiscard]] std::int64_t batched_evolves() const {
    return batched_evolves_;
  }
  // on_tick calls that found >= 2 due filters to merge.
  [[nodiscard]] std::int64_t batch_passes() const { return batch_passes_; }

 private:
  struct Entry {
    std::vector<SproutBayesFilter*> filters;
    TimePoint next{};
    Duration period{};
  };

  std::vector<Entry> entries_;
  std::vector<SproutBayesFilter*> due_;  // scratch
  std::int64_t batched_evolves_ = 0;
  std::int64_t batch_passes_ = 0;
};

}  // namespace sprout
