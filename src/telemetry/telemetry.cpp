#include "telemetry/telemetry.h"

#include <cstdio>

#include "telemetry/json_writer.h"

namespace radiomc::telemetry {

void Telemetry::merge(const Telemetry& other, std::int64_t trial) {
  metrics.merge(other.metrics);
  if (trial < 0) {
    timeline.merge(other.timeline);
    return;
  }
  for (PhaseSpan span : other.timeline.spans()) {
    span.attrs.emplace_back("trial", trial);
    timeline.record(std::move(span));
  }
}

std::string Telemetry::to_json() const {
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.member("schema", "radiomc.telemetry/v1");
  w.key("metrics");
  metrics.write_json(w);
  w.key("phases");
  timeline.write_json(w);
  w.end_object();
  return out;
}

bool Telemetry::write_json_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

void publish_net_metrics(const NetMetrics& m, MetricsRegistry& reg,
                         const std::string& protocol) {
  const Labels labels = {{"protocol", protocol}};
  reg.counter("engine.slots", labels).inc(m.slots);
  reg.counter("engine.transmissions", labels).inc(m.transmissions);
  reg.counter("engine.deliveries", labels).inc(m.deliveries);
  reg.counter("engine.collisions", labels).inc(m.collision_events);
  reg.counter("engine.capture_deliveries", labels).inc(m.capture_deliveries);
}

}  // namespace radiomc::telemetry
