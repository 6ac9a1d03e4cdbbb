// The telemetry subsystem: registry snapshot/JSON round-trip (validated by
// the shared strict JSON parser), the phase timeline produced by a full
// setup run, and a golden-file test of the JSONL trace sink on a tiny
// deterministic topology.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "protocols/setup.h"
#include "radio/network.h"
#include "support/rng.h"
#include "telemetry/json_value.h"
#include "telemetry/json_writer.h"
#include "telemetry/jsonl_sink.h"
#include "telemetry/metrics.h"
#include "telemetry/phase_timeline.h"
#include "telemetry/telemetry.h"

namespace radiomc {
namespace {

using telemetry::Labels;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::PhaseTimeline;
using telemetry::Scale;

// Every serializer in the subsystem is validated by the shared strict
// parser (telemetry/json_value.h).
bool well_formed(std::string_view json) {
  return telemetry::parse_json(json).ok;
}

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(well_formed(R"({"a":[1,2.5,-3e2],"b":{"c":"x\n"},"d":null})"));
  EXPECT_TRUE(well_formed("[]"));
  EXPECT_FALSE(well_formed(R"({"a":1,})"));      // trailing comma
  EXPECT_FALSE(well_formed(R"({"a" 1})"));       // missing colon
  EXPECT_FALSE(well_formed(R"(["unterminated)"));
  EXPECT_FALSE(well_formed("{} extra"));
  EXPECT_FALSE(well_formed("+1"));               // leading '+'
  EXPECT_FALSE(well_formed("01"));               // leading zero
  EXPECT_FALSE(well_formed(".5"));               // no integer part
  EXPECT_FALSE(well_formed("1."));               // no fraction digits
  EXPECT_FALSE(well_formed("1e999"));            // overflows to inf
  EXPECT_FALSE(well_formed("-1e999"));           // overflows to -inf
  EXPECT_FALSE(well_formed("\"\x01\""));          // raw control byte
  EXPECT_FALSE(well_formed(std::string(100000, '[')));  // nesting bound
}

TEST(JsonValue, ErrorsNameTheByteAndIntegersStayExact) {
  EXPECT_EQ(telemetry::parse_json("[0,01]").error,
            "leading zero in number at byte 3");
  EXPECT_EQ(telemetry::parse_json("\"a\tb\"").error,
            "raw control character in string at byte 2");
  const auto doc =
      telemetry::parse_json("[18446744073709551615,18446744073709551616,1e30]");
  ASSERT_TRUE(doc.ok) << doc.error;
  const auto& v = doc.value.items();
  EXPECT_EQ(v[0].as_u64(), 18446744073709551615u);
  EXPECT_FALSE(v[1].as_u64());     // past 2^64-1
  EXPECT_FALSE(v[2].as_u64());     // exponent form
  EXPECT_EQ(v[2].as_int(-7), -7);  // outside int64: the default, not UB
}

TEST(JsonWriter, EscapingAndNonFinite) {
  std::string out;
  telemetry::JsonWriter w(&out);
  w.begin_object();
  w.member("s", "quo\"te\\slash\ncontrol\x01");
  w.member("inf", std::numeric_limits<double>::infinity());
  w.member("nan", std::nan(""));
  w.member("neg", std::int64_t{-7});
  w.end_object();
  ASSERT_TRUE(w.complete());
  EXPECT_TRUE(well_formed(out));
  EXPECT_NE(out.find("\\\"te\\\\slash\\n"), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
  EXPECT_NE(out.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(out.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(out.find("\"neg\":-7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Registry: lookup-or-create identity, snapshot ordering, JSON round-trip.

TEST(MetricsRegistry, SeriesIdentityAndSnapshot) {
  MetricsRegistry reg;
  reg.counter("engine.slots").inc(10);
  reg.counter("engine.slots").inc(5);  // same series
  reg.counter("engine.slots", {{"protocol", "setup"}}).inc(3);
  reg.gauge("topo.diameter").set(14.0);
  auto& d = reg.distribution("queue", {{"level", "2"}}, Scale::kLinear);
  d.add(1);
  d.add(1);
  d.add(4);

  EXPECT_EQ(reg.size(), 4u);  // two counter series + gauge + distribution

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Sorted by (name, labels): the unlabeled series precedes the labeled one.
  EXPECT_TRUE(snap.counters[0].labels.empty());
  EXPECT_EQ(snap.counters[0].value, 15u);
  ASSERT_EQ(snap.counters[1].labels.size(), 1u);
  EXPECT_EQ(snap.counters[1].labels[0].second, "setup");
  EXPECT_EQ(snap.counters[1].value, 3u);

  ASSERT_EQ(snap.distributions.size(), 1u);
  const auto& de = snap.distributions[0];
  EXPECT_EQ(de.count, 3u);
  EXPECT_DOUBLE_EQ(de.mean, 2.0);
  EXPECT_DOUBLE_EQ(de.min, 1.0);
  EXPECT_DOUBLE_EQ(de.max, 4.0);
  ASSERT_EQ(de.buckets.size(), 2u);  // exact integer buckets, ascending
  EXPECT_EQ(de.buckets[0], (std::pair<std::int64_t, std::uint64_t>{1, 2}));
  EXPECT_EQ(de.buckets[1], (std::pair<std::int64_t, std::uint64_t>{4, 1}));
}

TEST(MetricsRegistry, Log2BucketsAndJson) {
  MetricsRegistry reg;
  auto& d = reg.distribution("slots", {}, Scale::kLog2);
  d.add(0);    // bucket -1 (v <= 0)
  d.add(1);    // bucket 0
  d.add(7);    // bucket 2: [4, 8)
  d.add(8);    // bucket 3: [8, 16)
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.distributions.size(), 1u);
  std::vector<std::pair<std::int64_t, std::uint64_t>> expect = {
      {-1, 1}, {0, 1}, {2, 1}, {3, 1}};
  EXPECT_EQ(snap.distributions[0].buckets, expect);

  const std::string json = reg.to_json();
  EXPECT_TRUE(well_formed(json)) << json;
  EXPECT_NE(json.find("\"scale\":\"log2\""), std::string::npos);
  EXPECT_NE(json.find("[-1,1]"), std::string::npos);
}

TEST(Telemetry, FullDocumentIsWellFormed) {
  telemetry::Telemetry tel;
  tel.metrics.counter("c", {{"weird", "va\"lue\n"}}).inc(1);
  tel.metrics.gauge("g").set(0.25);
  tel.timeline.record("proto", "span", 3, 9, {{"attempt", 1}});
  const std::string json = tel.to_json();
  EXPECT_TRUE(well_formed(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"radiomc.telemetry/v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"phases\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Phase timeline: open/close bookkeeping and the ordering produced by a
// full setup run.

TEST(PhaseTimeline, OpenCloseAndOrder) {
  PhaseTimeline tl;
  const std::size_t i = tl.open("collection", "drain", 5);
  tl.record("collection", "late", 9, 12);
  tl.close(i, 11);
  ASSERT_EQ(tl.spans().size(), 2u);
  EXPECT_EQ(tl.spans()[0].name, "drain");
  EXPECT_EQ(tl.spans()[0].end, 11u);
  EXPECT_EQ(tl.spans()[0].length(), 6u);
  EXPECT_TRUE(well_formed(tl.to_json()));
}

TEST(PhaseTimeline, SetupRunRecordsContiguousEpochSpans) {
  Rng rng(0x7e1);
  const Graph g = gen::grid(4, 4);
  telemetry::Telemetry tel;
  SetupTuning tuning;
  tuning.telemetry = &tel;
  const SetupOutcome out = run_setup(g, rng.next(), tuning);
  ASSERT_TRUE(out.ok);

  // One A..G sextet per attempt, in schedule order, and contiguous: each
  // epoch begins where the previous one ended, and the last recorded span
  // ends exactly at the schedule time the outcome reports.
  const std::vector<std::string> epoch_order = {
      "leader_election", "bfs_verify",   "dfs_graph",
      "dfs_tree",        "final_verify", "completion_flood"};
  const auto& spans = tel.timeline.spans();
  ASSERT_EQ(spans.size(), 6u * out.attempts);
  SlotTime cursor = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    EXPECT_EQ(s.protocol, "setup");
    EXPECT_EQ(s.name, epoch_order[i % 6]);
    EXPECT_EQ(s.begin, cursor) << "gap before span " << i;
    EXPECT_GT(s.end, s.begin);
    cursor = s.end;
    // Every span carries its attempt index.
    bool has_attempt = false;
    for (const auto& [k, v] : s.attrs)
      if (k == "attempt") {
        has_attempt = true;
        EXPECT_EQ(v, static_cast<std::int64_t>(i / 6));
      }
    EXPECT_TRUE(has_attempt);
  }
  EXPECT_EQ(cursor, out.slots);

  // The driver also published its counters and the engine totals.
  const MetricsSnapshot snap = tel.metrics.snapshot();
  bool saw_attempts = false, saw_engine_slots = false;
  for (const auto& c : snap.counters) {
    if (c.name == "setup.attempts") {
      saw_attempts = true;
      EXPECT_EQ(c.value, out.attempts);
    }
    if (c.name == "engine.slots") saw_engine_slots = true;
  }
  EXPECT_TRUE(saw_attempts);
  EXPECT_TRUE(saw_engine_slots);
}

// ---------------------------------------------------------------------------
// JSONL trace sink: golden output on a deterministic path(3) schedule.

/// Transmits scripted messages; schedule[t] < 0 means listen.
class ScriptedTalker final : public Station {
 public:
  NodeId id = 0;
  std::vector<int> schedule;  // value = seq to send (on channel 0)

  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    if (t < schedule.size() && schedule[t] >= 0) {
      Message m;
      m.kind = MsgKind::kData;
      m.origin = id;
      m.seq = static_cast<std::uint32_t>(schedule[t]);
      tx[0] = m;
    }
  }
  void on_receive(SlotTime, ChannelId, const Message&) override {}
};

TEST(JsonlTraceSink, GoldenEventStream) {
  // path(3): node 0 sends seq 7 in slot 0, node 2 sends seq 9 in slot 1.
  // Node 1 hears both cleanly; nodes 0/2 are out of each other's range.
  const Graph g = gen::path(3);
  std::deque<ScriptedTalker> st(3);
  for (NodeId v = 0; v < 3; ++v) st[v].id = v;
  st[0].schedule = {7, -1};
  st[2].schedule = {-1, 9};
  std::vector<Station*> ptrs{&st[0], &st[1], &st[2]};

  std::ostringstream os;
  telemetry::JsonlTraceSink sink(os);
  RadioNetwork net(g);
  net.set_trace(&sink);
  net.attach(std::move(ptrs));
  net.run(2);
  sink.finish();

  // The v2 stream leads with the schema header (here with no optional
  // context: the sink was given no protocol/slots/levels). The engine
  // stamps the transmitter on delivery, so rx lines carry "from"; the
  // scripted messages have no sender_parent or dest, so "fp"/"dest" are
  // omitted.
  const std::string expected =
      "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\"}\n"
      "{\"ev\":\"tx\",\"t\":0,\"node\":0,\"ch\":0,"
      "\"kind\":\"data\",\"origin\":0,\"seq\":7}\n"
      "{\"ev\":\"rx\",\"t\":0,\"node\":1,\"ch\":0,"
      "\"kind\":\"data\",\"origin\":0,\"seq\":7,\"from\":0}\n"
      "{\"ev\":\"tx\",\"t\":1,\"node\":2,\"ch\":0,"
      "\"kind\":\"data\",\"origin\":2,\"seq\":9}\n"
      "{\"ev\":\"rx\",\"t\":1,\"node\":1,\"ch\":0,"
      "\"kind\":\"data\",\"origin\":2,\"seq\":9,\"from\":2}\n";
  EXPECT_EQ(os.str(), expected);
  EXPECT_EQ(sink.lines_written(), 5u);
  EXPECT_FALSE(sink.truncated());
}

TEST(JsonlTraceSink, CollisionLineAndAggregates) {
  // Both ends of path(3) transmit in slot 0: node 1 records a collision.
  // With a 2-slot aggregate window the sink appends one "agg" line; with
  // events disabled it is the *only* line.
  const Graph g = gen::path(3);
  std::deque<ScriptedTalker> st(3);
  for (NodeId v = 0; v < 3; ++v) st[v].id = v;
  st[0].schedule = {1, -1};
  st[2].schedule = {2, -1};

  {
    std::vector<Station*> ptrs{&st[0], &st[1], &st[2]};
    std::ostringstream os;
    telemetry::JsonlOptions opt;
    opt.aggregate_every = 2;
    telemetry::JsonlTraceSink sink(os, opt);
    RadioNetwork net(g);
    net.set_trace(&sink);
    net.attach(std::move(ptrs));
    net.run(2);
    sink.finish();

    const std::string expected =
        "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\",\"agg\":2}\n"
        "{\"ev\":\"tx\",\"t\":0,\"node\":0,\"ch\":0,"
        "\"kind\":\"data\",\"origin\":0,\"seq\":1}\n"
        "{\"ev\":\"tx\",\"t\":0,\"node\":2,\"ch\":0,"
        "\"kind\":\"data\",\"origin\":2,\"seq\":2}\n"
        "{\"ev\":\"coll\",\"t\":0,\"node\":1,\"ch\":0,\"txn\":2}\n"
        "{\"ev\":\"agg\",\"t0\":0,\"t1\":2,\"tx\":2,\"rx\":0,\"coll\":1,"
        "\"jam\":0}\n";
    EXPECT_EQ(os.str(), expected);
    std::istringstream is(os.str());
    for (std::string line; std::getline(is, line);)
      EXPECT_TRUE(well_formed(line)) << line;
  }

  {
    std::vector<Station*> ptrs{&st[0], &st[1], &st[2]};
    std::ostringstream os;
    telemetry::JsonlOptions opt;
    opt.events = false;
    opt.aggregate_every = 2;
    telemetry::JsonlTraceSink sink(os, opt);
    RadioNetwork net(g);
    net.set_trace(&sink);
    net.attach(std::move(ptrs));
    net.run(2);
    sink.finish();
    EXPECT_EQ(os.str(),
              "{\"ev\":\"schema\",\"v\":\"radiomc.trace/v2\",\"agg\":2}\n"
              "{\"ev\":\"agg\",\"t0\":0,\"t1\":2,\"tx\":2,\"rx\":0,"
              "\"coll\":1,\"jam\":0}\n");
    EXPECT_EQ(sink.lines_written(), 2u);
  }
}

}  // namespace
}  // namespace radiomc
