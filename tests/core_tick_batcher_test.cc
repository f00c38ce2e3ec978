// Cross-flow evolution batching: the batcher must actually merge
// same-instant evolves AND stay bit-invisible to the protocol.  The
// adaptive bank is what batches; a Bayesian filter's tick evolve comes from
// its own forecast (core/strategy.h) and never reaches the batcher.
#include "core/tick_batcher.h"

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/endpoint.h"
#include "core/source.h"
#include "link/cellsim.h"
#include "metrics/flow_metrics.h"
#include "sim/relay.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace sprout {
namespace {

CellProcessParams steady(double pps) {
  CellProcessParams p;
  p.mean_rate_pps = pps;
  p.max_rate_pps = std::max(pps * 2.0, 100.0);
  p.volatility_pps = 0.0;
  p.outage_hazard_per_s = 0.0;
  return p;
}

// A two-endpoint Sprout session; `batcher` null runs the classic unbatched
// tick loop.  Both endpoints start at phase 0 so their filters collide on
// every tick instant — the strongest batching case.
struct Session {
  Simulator sim;
  RelaySink fwd_egress, rev_egress;
  CellsimLink fwd_link, rev_link;
  BulkDataSource bulk;
  SproutEndpoint tx, rx;
  MeasuredSink measured;

  Session(TickEvolveBatcher* batcher, Duration run, SproutVariant variant)
      : fwd_link(sim, generate_trace(steady(400.0), run + sec(1), 51), {},
                 fwd_egress),
        rev_link(sim, generate_trace(steady(400.0), run + sec(1), 52), {},
                 rev_egress),
        tx(sim, {}, variant, 1, &bulk),
        rx(sim, {}, variant, 1, nullptr),
        measured(sim, rx) {
    tx.attach_network(fwd_link);
    rx.attach_network(rev_link);
    fwd_egress.set_target(measured);
    rev_egress.set_target(tx);
    if (batcher != nullptr) {
      tx.set_evolve_batcher(batcher);
      rx.set_evolve_batcher(batcher);
    }
    tx.start();
    rx.start();
    sim.run_until(TimePoint{} + run);
  }
};

TEST(TickBatcher, MergesColocatedTicksAndCounts) {
  TickEvolveBatcher batcher;
  Session s(&batcher, sec(4), SproutVariant::kAdaptive);
  // ~200 ticks at 20 ms; both endpoints share every instant, so every pass
  // merges both endpoints' whole hypothesis banks.
  const auto bank =
      static_cast<std::int64_t>(AdaptiveParams{}.hypotheses.size());
  EXPECT_GT(batcher.batch_passes(), 150);
  EXPECT_EQ(batcher.batched_evolves(), 2 * bank * batcher.batch_passes());
}

TEST(TickBatcher, BayesianSessionsLeaveTheBatcherIdle) {
  // Both endpoints collide on every instant, yet a Bayesian filter adopts
  // its tick evolve from the previous forecast and registers nothing.
  TickEvolveBatcher batcher;
  Session s(&batcher, sec(2), SproutVariant::kBayesian);
  EXPECT_EQ(batcher.batch_passes(), 0);
  EXPECT_EQ(batcher.batched_evolves(), 0);
  EXPECT_GT(s.measured.metrics().records().size(), 0u);
}

TEST(TickBatcher, AdaptiveMembersAllJoinTheBatch) {
  TickEvolveBatcher batcher;
  Session s(&batcher, sec(2), SproutVariant::kAdaptive);
  // Two endpoints x five hypothesis filters per tick instant.  Members with
  // the same σ share a kernel ACROSS endpoints, so all ten are due.
  EXPECT_GT(batcher.batch_passes(), 50);
  EXPECT_EQ(batcher.batched_evolves(), 10 * batcher.batch_passes());
}

TEST(TickBatcher, BatchedSessionIsBitIdenticalToUnbatched) {
  TickEvolveBatcher batcher;
  Session batched(&batcher, sec(6), SproutVariant::kAdaptive);
  Session plain(nullptr, sec(6), SproutVariant::kAdaptive);
  ASSERT_GT(batcher.batch_passes(), 0);
  // The entire delivery record — every packet's size and timing — must
  // match, which it only can if every forecast byte matched.
  const auto& a = batched.measured.metrics().records();
  const auto& b = plain.measured.metrics().records();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sent_at, b[i].sent_at) << "packet " << i;
    EXPECT_EQ(a[i].received_at, b[i].received_at) << "packet " << i;
    EXPECT_EQ(a[i].size, b[i].size) << "packet " << i;
  }
}

TEST(TickBatcher, StaggeredPhasesNeverMissSchedules) {
  // Offset phases like real fleets: instants where only one filter is due
  // must leave that filter's own evolve() intact (no stuck marks, no
  // double evolution) — the invariant-checked session must run clean.
  TickEvolveBatcher batcher;
  Simulator sim;
  RelaySink fwd_egress, rev_egress;
  CellsimLink fwd(sim, generate_trace(steady(300.0), sec(4), 53), {},
                  fwd_egress);
  CellsimLink rev(sim, generate_trace(steady(300.0), sec(4), 54), {},
                  rev_egress);
  BulkDataSource bulk;
  SproutEndpoint tx(sim, {}, SproutVariant::kBayesian, 1, &bulk);
  SproutEndpoint rx(sim, {}, SproutVariant::kBayesian, 1, nullptr);
  MeasuredSink measured(sim, rx);
  tx.attach_network(fwd);
  rx.attach_network(rev);
  fwd_egress.set_target(measured);
  rev_egress.set_target(tx);
  tx.set_evolve_batcher(&batcher);
  rx.set_evolve_batcher(&batcher);
  tx.start();
  rx.start(msec(7));  // phases never collide: batcher finds lone filters
  sim.run_until(TimePoint{} + sec(3));
  EXPECT_EQ(batcher.batch_passes(), 0);
  EXPECT_GT(measured.metrics().records().size(), 0u);
}

}  // namespace
}  // namespace sprout
