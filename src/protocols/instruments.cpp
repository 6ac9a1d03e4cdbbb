#include "protocols/instruments.h"

#include <utility>

#include "radio/network.h"
#include "support/rng_tags.h"

namespace radiomc {

NetworkWiring::NetworkWiring(RadioNetwork& net, const Graph& g,
                             std::vector<Station*> stations,
                             const Instruments& in, Rng& master)
    : net_(net), telemetry_(in.telemetry) {
  if (in.trace != nullptr) net.set_trace(in.trace);
  if (in.slot_hook != nullptr) net.set_slot_hook(in.slot_hook);
  if (in.faults.any()) {
    faults_ = FaultSchedule(g, in.faults,
                            master.split(rng_tags::kFaultStream).next());
    net.set_faults(&faults_);
  }
  net.attach(std::move(stations));
}

void NetworkWiring::publish(const std::string& protocol) const {
  if (telemetry_ == nullptr) return;
  telemetry::MetricsRegistry& reg = telemetry_->metrics;
  const NetMetrics& m = net_.metrics();
  telemetry::publish_net_metrics(m, reg, protocol);
  if (!faults_.enabled()) return;
  const auto kind_counter = [&](const char* kind) -> telemetry::Counter& {
    return reg.counter("faults.events",
                       {{"kind", kind}, {"protocol", protocol}});
  };
  const FaultSchedule::Stats& s = faults_.stats();
  if (s.crashes > 0) kind_counter("crash").inc(s.crashes);
  if (s.recoveries > 0) kind_counter("recover").inc(s.recoveries);
  if (s.link_downs > 0) kind_counter("link_down").inc(s.link_downs);
  if (s.link_ups > 0) kind_counter("link_up").inc(s.link_ups);
  const telemetry::Labels labels = {{"protocol", protocol}};
  if (m.fault_jams > 0)
    reg.counter("engine.fault_jams", labels).inc(m.fault_jams);
  if (m.fault_drops > 0)
    reg.counter("engine.fault_drops", labels).inc(m.fault_drops);
  if (m.fault_link_blocked > 0)
    reg.counter("engine.fault_link_blocked", labels).inc(m.fault_link_blocked);
  if (m.fault_crashed_slots > 0)
    reg.counter("engine.fault_crashed_slots", labels)
        .inc(m.fault_crashed_slots);
}

void NetworkWiring::record_fault_span(const std::string& protocol,
                                      SlotTime slots, RunStatus status) const {
  if (telemetry_ == nullptr || !faults_.enabled()) return;
  const FaultSchedule::Stats& s = faults_.stats();
  const NetMetrics& m = net_.metrics();
  telemetry_->timeline.record(
      "faults", protocol, 0, slots,
      {{"crashes", static_cast<std::int64_t>(s.crashes)},
       {"recoveries", static_cast<std::int64_t>(s.recoveries)},
       {"link_downs", static_cast<std::int64_t>(s.link_downs)},
       {"jams", static_cast<std::int64_t>(m.fault_jams)},
       {"drops", static_cast<std::int64_t>(m.fault_drops)},
       {"degraded", status == RunStatus::kDegraded ? 1 : 0}});
}

}  // namespace radiomc
