#pragma once

// The observers and fault plan every driver threads onto its network, and
// the one helper that wires them.
//
// Every protocol here runs on the same §1.1 radio model, so every driver
// instruments its RadioNetwork the same way: install the trace sink and the
// slot hook, compile the fault plan against a stream split off the driver's
// master Rng (only when the plan is active), attach the stations, and
// publish the engine and fault counters when the run ends. `Instruments` is
// the bundle a driver config carries; `NetworkWiring` performs the sequence.
//
// Observers are write-only (perf-purity): no station or schedule reads
// them, so a run is byte-identical with any of them on or off.

#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "graph/graph.h"
#include "radio/station.h"
#include "radio/trace.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace radiomc {

namespace perf {
class Profiler;  // src/perf/profiler.h; forward-declared so no protocol
                 // header includes the measurement layer (perf-purity)
}  // namespace perf

class RadioNetwork;  // radio/network.h is for driver .cpp files only

struct Instruments {
  /// Metrics registry and phase timeline the driver reports into.
  TelemetryHub* telemetry = nullptr;
  /// Physical-event sink installed on the driver's network.
  TraceSink* trace = nullptr;
  /// Perf spans and counters opened by the driver.
  perf::Profiler* profiler = nullptr;
  /// Per-slot observer installed on the driver's network (e.g. a
  /// perf::SnapshotStreamer). Sees only the slot counter.
  SlotHook* slot_hook = nullptr;
  /// Fault injection (src/faults/) compiled against the driver's network.
  /// All-zero (the default) means no faults and the engine's exact
  /// fault-free behavior.
  FaultPlan faults;
};

/// Instruments a driver's freshly built network and owns its compiled
/// fault schedule; must outlive every step of `net`.
class NetworkWiring {
 public:
  /// Installs `in.trace` and `in.slot_hook`, compiles `in.faults` when it
  /// is active, and attaches `stations`. The fault seed is drawn as
  /// `master.split(rng_tags::kFaultStream)` — only when the plan is active,
  /// so fault-free runs consume exactly the historical stream — which
  /// advances `master`: construct the wiring after the driver's last other
  /// split of it.
  NetworkWiring(RadioNetwork& net, const Graph& g,
                std::vector<Station*> stations, const Instruments& in,
                Rng& master);
  NetworkWiring(const NetworkWiring&) = delete;
  NetworkWiring& operator=(const NetworkWiring&) = delete;

  /// With a telemetry hub: publishes the engine counters ("engine.*") and,
  /// under an active plan, the fault transition totals ("faults.events")
  /// and engine fault counters, all labeled {"protocol": protocol}. Only
  /// nonzero fault values create series, so a fault-free document is
  /// byte-identical to one from a build without fault injection.
  void publish(const std::string& protocol) const;

  /// With a telemetry hub and an active plan: records one "faults" span
  /// over [0, slots) carrying the run's fault totals and whether it ended
  /// degraded.
  void record_fault_span(const std::string& protocol, SlotTime slots,
                         RunStatus status) const;

 private:
  const RadioNetwork& net_;
  TelemetryHub* telemetry_;
  FaultSchedule faults_;
};

}  // namespace radiomc
