#include "net/sim_network.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/logging.h"

namespace enclaves::net {

namespace {
constinit obs::Counter g_queued{"net", "sim", "packets_queued_total"};
constinit obs::Histogram g_body_bytes{"net", "sim", "packet_body_bytes"};
constinit obs::Counter g_dropped{"net", "sim", "packets_dropped_total"};
constinit obs::Counter g_duplicated{"net", "sim", "packets_duplicated_total"};
constinit obs::Counter g_delayed{"net", "sim", "packets_delayed_total"};
constinit obs::Counter g_unroutable{"net", "sim", "packets_unroutable_total"};
constinit obs::Counter g_delivered{"net", "sim", "packets_delivered_total"};
}  // namespace

void SimNetwork::attach(const AgentId& id, Handler handler) {
  handlers_[id] = std::move(handler);
}

void SimNetwork::detach(const AgentId& id) { handlers_.erase(id); }

void SimNetwork::enqueue(const AgentId& to, wire::Envelope envelope) {
  PROF_SCOPE("net/sim/enqueue");
  obs::prof_bytes(envelope.body.size());
  g_queued.add();
  g_body_bytes.observe(envelope.body.size());
  Packet p{next_seq_++, to, std::move(envelope)};
  log_.push_back(p);
  queue_.push_back(std::move(p));
}

void SimNetwork::send(const AgentId& to, wire::Envelope envelope) {
  if (tap_) {
    Packet preview{next_seq_, to, envelope};
    TapDecision decision = tap_(preview);
    switch (decision.verdict) {
      case TapVerdict::drop:
        // Dropped packets are still observable (they were on the wire).
        preview.seq = next_seq_++;
        log_.push_back(std::move(preview));
        ++dropped_by_tap_;
        g_dropped.add();
        return;
      case TapVerdict::duplicate:
        ++duplicated_by_tap_;
        g_duplicated.add();
        enqueue(to, envelope);
        enqueue(to, std::move(envelope));
        return;
      case TapVerdict::delay: {
        ++delayed_by_tap_;
        g_delayed.add();
        Packet p{next_seq_++, to, std::move(envelope)};
        log_.push_back(p);
        const std::uint64_t steps =
            decision.delay_steps == 0 ? 1 : decision.delay_steps;
        Held h{step_ + steps, std::move(p)};
        // Keep held_ sorted by (release_step, seq) so release order is
        // deterministic.
        auto it = std::upper_bound(
            held_.begin(), held_.end(), h, [](const Held& a, const Held& b) {
              return a.release_step != b.release_step
                         ? a.release_step < b.release_step
                         : a.packet.seq < b.packet.seq;
            });
        held_.insert(it, std::move(h));
        return;
      }
      case TapVerdict::deliver:
        break;
    }
  }
  enqueue(to, std::move(envelope));
}

void SimNetwork::inject(const AgentId& to, wire::Envelope envelope) {
  enqueue(to, std::move(envelope));
}

void SimNetwork::release_due() {
  std::size_t n = 0;
  while (n < held_.size() && held_[n].release_step <= step_) ++n;
  for (std::size_t i = 0; i < n; ++i)
    queue_.push_back(std::move(held_[i].packet));
  held_.erase(held_.begin(), held_.begin() + static_cast<std::ptrdiff_t>(n));
}

bool SimNetwork::deliver_next() {
  release_due();
  if (queue_.empty()) {
    if (held_.empty()) return false;
    // Only delayed packets remain: fast-forward to the earliest release so
    // delay cannot deadlock an otherwise quiescent network.
    step_ = held_.front().release_step;
    release_due();
  }
  ++step_;
  Packet p = std::move(queue_.front());
  queue_.pop_front();
  auto it = handlers_.find(p.to);
  if (it == handlers_.end()) {
    ++unroutable_;
    g_unroutable.add();
    ENCLAVES_LOG(debug) << "unroutable packet to " << p.to << ": "
                        << wire::describe(p.envelope);
    return true;
  }
  g_delivered.add();
  // Copy the handler: delivery may detach/re-attach agents.
  Handler h = it->second;
  {
    PROF_SCOPE("net/sim/deliver");
    obs::prof_bytes(p.envelope.body.size());
    h(p.envelope);
  }
  return true;
}

std::size_t SimNetwork::run(std::size_t max_steps) {
  std::size_t n = 0;
  while (n < max_steps && deliver_next()) ++n;
  return n;
}

void SimNetwork::shuffle(Rng& rng) {
  // Fisher-Yates over the pending queue.
  for (std::size_t i = queue_.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(queue_[i - 1], queue_[j]);
  }
}

}  // namespace enclaves::net
