#include "metrics/flow_metrics.h"

#include <algorithm>
#include <cassert>

#include "sim/simulator.h"

namespace sprout {

void FlowMetrics::record(const Packet& p, TimePoint received_at) {
  record(DeliveryRecord{p.sent_at, received_at, p.size});
}

void FlowMetrics::record(DeliveryRecord r) {
  total_bytes_ += r.size;
  if (timeline_ != nullptr) {
    timeline_->record_delivery(r.sent_at, r.received_at, r.size);
  }
  if (!streaming_) {
    records_.push_back(r);
    return;
  }
  if (r.received_at >= window_from_ && r.received_at < window_to_) {
    window_bytes_ += r.size;
    hist_.add(r.received_at - r.sent_at);
  }
}

void FlowMetrics::enable_streaming(Duration hist_bin, Duration hist_max,
                                   TimePoint from, TimePoint to) {
  assert(records_.empty() && "enable_streaming before any delivery");
  streaming_ = true;
  window_from_ = from;
  window_to_ = to;
  hist_ = DelayHistogram(hist_bin, hist_max);
}

double FlowMetrics::window_throughput_kbps() const {
  if (window_to_ <= window_from_) return 0.0;
  return kbps(window_bytes_, window_to_ - window_from_);
}

ByteCount FlowMetrics::total_bytes() const { return total_bytes_; }

double FlowMetrics::throughput_kbps(TimePoint from, TimePoint to) const {
  assert(to > from);
  ByteCount bytes = 0;
  for (const DeliveryRecord& r : records_) {
    if (r.received_at >= from && r.received_at < to) bytes += r.size;
  }
  return kbps(bytes, to - from);
}

DelayHistogram FlowMetrics::delay_histogram(Duration bin, Duration max,
                                           TimePoint from,
                                           TimePoint to) const {
  DelayHistogram hist(bin, max);
  for (const DeliveryRecord& r : records_) {
    if (r.received_at >= from && r.received_at < to) {
      hist.add(r.received_at - r.sent_at);
    }
  }
  return hist;
}

RampFunctionPercentile FlowMetrics::delay_signal(TimePoint from,
                                                 TimePoint to) const {
  // Records arrive in receive order (single in-order recorder); the paper's
  // signal needs the max-so-far of send times among arrived packets.
  RampFunctionPercentile signal;
  TimePoint cursor = from;
  TimePoint latest_sent{};  // most recent send time among arrived packets
  bool have_packet = false;
  for (const DeliveryRecord& r : records_) {
    if (r.received_at >= to) break;
    if (r.received_at < from) {
      // Arrived before the window: establishes the starting level.
      if (!have_packet || r.sent_at > latest_sent) latest_sent = r.sent_at;
      have_packet = true;
      continue;
    }
    if (have_packet) {
      // Ramp from `cursor` to this arrival at the current level.
      const double start = to_seconds(cursor - latest_sent);
      const double len = to_seconds(r.received_at - cursor);
      signal.add_ramp(start, len);
    }
    // A packet sent earlier than one already arrived cannot lower the
    // signal (footnote 7: "most recently-sent packet to have arrived").
    if (!have_packet || r.sent_at > latest_sent) latest_sent = r.sent_at;
    have_packet = true;
    cursor = r.received_at;
  }
  if (have_packet && cursor < to) {
    signal.add_ramp(to_seconds(cursor - latest_sent), to_seconds(to - cursor));
  } else if (!have_packet) {
    // Nothing ever arrived: the delay is unbounded below by the window size.
    signal.add_ramp(to_seconds(to - from), to_seconds(to - from));
  }
  return signal;
}

double FlowMetrics::delay_percentile_ms(double percentile, TimePoint from,
                                        TimePoint to) const {
  return delay_signal(from, to).percentile(percentile) * 1000.0;
}

double FlowMetrics::mean_delay_ms(TimePoint from, TimePoint to) const {
  return delay_signal(from, to).mean() * 1000.0;
}

double FlowMetrics::packet_delay_percentile_ms(double percentile,
                                               TimePoint from,
                                               TimePoint to) const {
  PercentileEstimator est;
  for (const DeliveryRecord& r : records_) {
    if (r.received_at >= from && r.received_at < to) {
      est.add(to_millis(r.received_at - r.sent_at));
    }
  }
  return est.empty() ? 0.0 : est.percentile(percentile);
}

MeasuredSink::MeasuredSink(Simulator& sim, PacketSink& next)
    : sim_(sim), next_(&next) {}

MeasuredSink::MeasuredSink(Simulator& sim) : sim_(sim), next_(nullptr) {}

void MeasuredSink::receive(Packet&& p) {
  metrics_.record(p, sim_.now());
  if (next_ != nullptr) next_->receive(std::move(p));
}

double omniscient_delay_percentile_ms(const Trace& trace, double percentile,
                                      TimePoint from, TimePoint to,
                                      Duration propagation_delay) {
  assert(to > from);
  // The omniscient sender's packet rides every opportunity and waits only
  // the propagation delay, so the signal ramps up from prop_delay at each
  // opportunity.  Between opportunities (outages) it rises at 1 s/s —
  // "if the link does not deliver any packets for 5 seconds, there must be
  // at least 5 seconds of end-to-end delay" (§5.1).
  RampFunctionPercentile signal;
  const double base = to_seconds(propagation_delay);
  // Walk opportunities covering [from, to), using wraparound indexing.
  // Find the first index at or after `from`.
  std::size_t lo = 0;
  std::size_t hi = 1;
  while (trace.opportunity(hi) < from) {
    lo = hi;
    hi *= 2;
  }
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (trace.opportunity(mid) < from) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  std::size_t idx = trace.opportunity(lo) >= from ? lo : hi;
  TimePoint cursor = from;
  while (cursor < to) {
    const TimePoint next = trace.opportunity(idx);
    const TimePoint segment_end = std::min(next, to);
    if (segment_end > cursor) {
      // Level at `cursor`: base + time since the previous arrival.
      const TimePoint prev =
          idx > 0 ? trace.opportunity(idx - 1) : cursor - propagation_delay;
      const double start = base + std::max(0.0, to_seconds(cursor - prev));
      signal.add_ramp(start, to_seconds(segment_end - cursor));
    }
    cursor = segment_end;
    ++idx;
  }
  return signal.percentile(percentile) * 1000.0;
}

double link_capacity_kbps(const Trace& trace, TimePoint from, TimePoint to) {
  return kbps(trace.deliverable_bytes(from, to), to - from);
}

}  // namespace sprout
