// Tests for the observability layer (src/obs): JSON determinism, metric
// registry semantics, profiler zone-tree invariants under the thread pool,
// RunReport schema round-trip, and the Table-4/7 accounting projection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/threadpool.h"
#include "obs/accounting.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/report.h"
#include "parallel/mp_simulator.h"

namespace obs = actcomp::obs;
namespace json = actcomp::obs::json;
namespace core = actcomp::core;

namespace {

TEST(Json, ObjectKeepsInsertionOrderAndRoundTrips) {
  json::Value v = json::Value::object();
  v.set("zeta", 1);
  v.set("alpha", "text");
  v.set("mid", true);
  json::Value arr = json::Value::array();
  arr.push_back(1.5);
  arr.push_back(json::Value());  // null
  v.set("list", std::move(arr));

  ASSERT_EQ(v.members().size(), 4u);
  EXPECT_EQ(v.members()[0].first, "zeta");
  EXPECT_EQ(v.members()[1].first, "alpha");

  const std::string text = v.dump();
  std::string err;
  const json::Value back = json::Value::parse(text, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.dump(), text);           // parse(dump) is the identity
  EXPECT_EQ(v.dump(2), json::Value::parse(v.dump(2)).dump(2));  // pretty too
}

TEST(Json, DoublesUseShortestRoundTrippingForm) {
  for (double d : {0.1, 1.0 / 3.0, 6.34088192, 1e-300, 123456789.123456}) {
    json::Value v(d);
    const json::Value back = json::Value::parse(v.dump());
    EXPECT_EQ(back.as_double(), d) << v.dump();
  }
  // Integers stay integers (no ".0" noise in reports).
  EXPECT_EQ(json::Value(int64_t{42}).dump(), "42");
}

TEST(Json, ParseReportsErrors) {
  // Truncated input; a nesting run that would overflow the stack if the
  // parser recursed without bound; u-escapes that are not four hex digits
  // (strtol read "-001" as -1, "00zz" as 0 and " 07f" as 0x7f).
  for (const std::string& text :
       {std::string("{\"a\": "), std::string(1000000, '['),
        std::string("\"\\u-001\""), std::string("\"\\u00zz\""),
        std::string("\"\\u 07f\"")}) {
    std::string err;
    EXPECT_TRUE(json::Value::parse(text, &err).is_null()) << text.substr(0, 16);
    EXPECT_FALSE(err.empty()) << text.substr(0, 16);
  }
  // Well inside the nesting bound, and a valid escape, still parse.
  std::string err;
  const std::string nested = std::string(64, '[') + std::string(64, ']');
  EXPECT_EQ(json::Value::parse(nested, &err).dump(), nested);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(json::Value::parse("\"\\u001F\"", &err).as_string(), "\x1f");
  EXPECT_TRUE(err.empty()) << err;
}

TEST(Json, LargeObjectParsesInLinearTime) {
  // 100k keys (1.7 MB), then a repeat of the eighth key. On a 4-core
  // AVX-512 host a parse that scans every earlier key per key takes 33-38 s
  // for this object; a linear one takes ~0.1 s.
  constexpr int kKeys = 100000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    text += "\"key" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  }
  text += "\"key7\":-1}";
  const auto t0 = std::chrono::steady_clock::now();
  std::string err;
  const json::Value v = json::Value::parse(text, &err);
  const std::chrono::duration<double> seconds =
      std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_LT(seconds.count(), 3.0);
  // Insertion order; the repeated key keeps its first position and takes
  // the last value.
  ASSERT_EQ(v.members().size(), static_cast<size_t>(kKeys));
  for (int i : {0, 6, 8, kKeys / 2, kKeys - 1}) {
    const json::Member& m = v.members()[static_cast<size_t>(i)];
    EXPECT_EQ(m.first, "key" + std::to_string(i));
    EXPECT_EQ(m.second.as_int(), i);
  }
  EXPECT_EQ(v.members()[7].first, "key7");
  EXPECT_EQ(v.members()[7].second.as_int(), -1);
  EXPECT_EQ(v.find("key7")->as_int(), -1);
}

TEST(Registry, CounterGaugeHistogramBasics) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& c = reg.counter("obstest.basics.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);

  obs::Gauge& g = reg.gauge("obstest.basics.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  obs::Histogram& h = reg.histogram("obstest.basics.hist");
  h.reset();
  h.observe(3.0);
  h.observe(-1.0);
  h.observe(7.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.sum, 9.0);
  EXPECT_DOUBLE_EQ(s.min, -1.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0);
  EXPECT_DOUBLE_EQ(h.snapshot().min, 0.0);  // empty maps back to 0
}

TEST(Registry, SnapshotIsNameSorted) {
  obs::Registry& reg = obs::Registry::instance();
  // Registered out of order on purpose.
  reg.counter("obstest.order.zz").add();
  reg.counter("obstest.order.aa").add();
  const json::Value snap = reg.snapshot();
  std::string prev;
  for (const auto& [key, value] : snap.members()) {
    EXPECT_LT(prev, key);  // strictly ascending across the whole registry
    prev = key;
  }
  EXPECT_NE(snap.find("obstest.order.aa"), nullptr);
}

TEST(Registry, ReRegisteringAsOtherKindThrows) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("obstest.kind.fixed");
  EXPECT_THROW(reg.gauge("obstest.kind.fixed"), std::logic_error);
  EXPECT_THROW(reg.histogram("obstest.kind.fixed"), std::logic_error);
  // Same kind is the find path, not an error.
  EXPECT_NO_THROW(reg.counter("obstest.kind.fixed"));
}

// Aggregated tree minus the timings: what must be thread-count invariant.
std::vector<std::tuple<std::string, int, int64_t>> shape_of(
    const std::vector<obs::ZoneStats>& zones) {
  std::vector<std::tuple<std::string, int, int64_t>> out;
  out.reserve(zones.size());
  for (const auto& z : zones) out.emplace_back(z.path, z.depth, z.count);
  return out;
}

void zone_workload() {
  ACTCOMP_PROFILE("obstest.outer");
  core::parallel_for(0, 64, 8, [](int64_t b, int64_t e) {
    ACTCOMP_PROFILE("obstest.chunk");
    // Re-entrant use: a nested parallel_for runs inline on whichever thread
    // owns the chunk, and must nest under obstest.chunk on every lane.
    core::parallel_for(b, e, 4, [](int64_t, int64_t) {
      ACTCOMP_PROFILE("obstest.inner");
    });
  });
}

TEST(Profiler, ZoneTreeIsThreadCountInvariant) {
  const int lanes_before = core::num_threads();
  obs::set_profiler_enabled(true);

  core::set_num_threads(1);
  obs::reset_zones();
  zone_workload();
  const auto snap1 = shape_of(obs::snapshot_zones());

  core::set_num_threads(4);
  obs::reset_zones();
  zone_workload();
  const auto snap4 = shape_of(obs::snapshot_zones());

  obs::set_profiler_enabled(false);
  core::set_num_threads(lanes_before);

  EXPECT_EQ(snap1, snap4);
  // And the shape is what the workload says: 64/8 = 8 chunks, each with a
  // nested inline parallel_for of 8/4 = 2 inner chunks.
  bool saw_chunk = false, saw_inner = false;
  for (const auto& [path, depth, count] : snap1) {
    if (path == "obstest.outer/core.parallel_for/obstest.chunk") {
      EXPECT_EQ(depth, 2);
      EXPECT_EQ(count, 8);
      saw_chunk = true;
    }
    if (path ==
        "obstest.outer/core.parallel_for/obstest.chunk/core.parallel_for/"
        "obstest.inner") {
      EXPECT_EQ(count, 16);
      saw_inner = true;
    }
  }
  EXPECT_TRUE(saw_chunk);
  EXPECT_TRUE(saw_inner);
  EXPECT_EQ(obs::dropped_zone_events(), 0);
}

TEST(Profiler, DisabledZonesRecordNothing) {
  obs::set_profiler_enabled(false);
  obs::reset_zones();
  {
    ACTCOMP_PROFILE("obstest.ghost");
  }
  for (const auto& z : obs::snapshot_zones()) {
    EXPECT_EQ(z.path.find("obstest.ghost"), std::string::npos);
  }
}

TEST(Profiler, SelfTimeNeverExceedsTotal) {
  obs::set_profiler_enabled(true);
  obs::reset_zones();
  zone_workload();
  for (const auto& z : obs::snapshot_zones()) {
    EXPECT_GE(z.total_ms, 0.0) << z.path;
    EXPECT_LE(z.self_ms, z.total_ms + 1e-9) << z.path;
  }
  obs::set_profiler_enabled(false);
}

TEST(Profiler, ChromeTraceBridgeEmitsValidJson) {
  obs::set_profiler_enabled(true);
  obs::reset_zones();
  zone_workload();
  std::ostringstream os;
  obs::to_chrome_trace(os);
  obs::set_profiler_enabled(false);
  std::string err;
  const json::Value trace = json::Value::parse(os.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const json::Value* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->size(), 0u);
  // Metadata ("M") events name the threads; the zones are complete ("X")
  // events carrying ts/dur.
  size_t duration_events = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const json::Value* ph = events->at(i).find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "X") {
      ++duration_events;
      EXPECT_NE(events->at(i).find("ts"), nullptr);
      EXPECT_NE(events->at(i).find("dur"), nullptr);
    }
  }
  EXPECT_GT(duration_events, 0u);
}

TEST(Report, SchemaRoundTripsThroughFile) {
  const std::string dir = ::testing::TempDir();
  setenv("ACTCOMP_REPORT_DIR", dir.c_str(), 1);
  {
    obs::RunReport report("obstest");
    EXPECT_EQ(obs::RunReport::current(), &report);
    report.set_config("seed", int64_t{7});
    obs::PhaseBreakdown b;
    b.forward_ms = 1.0;
    b.total_ms = 2.0;
    report.add_phase("w/o", obs::Accounting::kFinetune, b);
    report.add_table({"H1", "H2"}, {{"a", "1.00"}});
    json::Value rec = json::Value::object();
    rec.set("op", "matmul");
    report.add_record(std::move(rec));
  }  // destructor writes
  unsetenv("ACTCOMP_REPORT_DIR");
  EXPECT_EQ(obs::RunReport::current(), nullptr);

  FILE* f = std::fopen((dir + "/REPORT_obstest.json").c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);

  std::string err;
  const json::Value doc = json::Value::parse(text, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(doc.find("schema")->as_string(), "actcomp.run_report.v1");
  EXPECT_EQ(doc.find("binary")->as_string(), "obstest");
  EXPECT_NE(doc.find("git_rev"), nullptr);
  EXPECT_NE(doc.find("hardware")->find("hw_concurrency"), nullptr);
  EXPECT_EQ(doc.find("config")->find("seed")->as_int(), 7);
  const json::Value* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(phases->at(0).find("accounting")->as_string(), "finetune");
  EXPECT_DOUBLE_EQ(phases->at(0).find("forward_ms")->as_double(), 1.0);
  EXPECT_EQ(doc.find("tables")->at(0).find("header")->at(1).as_string(), "H2");
  EXPECT_EQ(doc.find("records")->at(0).find("op")->as_string(), "matmul");
  EXPECT_NE(doc.find("counters"), nullptr);
}

TEST(Report, DisabledByEnvVar) {
  const std::string dir = ::testing::TempDir();
  setenv("ACTCOMP_REPORT_DIR", dir.c_str(), 1);
  setenv("ACTCOMP_REPORT", "0", 1);
  {
    obs::RunReport report("obstest_disabled");
    EXPECT_FALSE(report.write());
  }
  unsetenv("ACTCOMP_REPORT");
  unsetenv("ACTCOMP_REPORT_DIR");
  FILE* f = std::fopen((dir + "/REPORT_obstest_disabled.json").c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(Accounting, HeaderAndColumnOrderMatchTheTables) {
  const auto& header = obs::breakdown_header();
  const std::vector<std::string> expected{
      "Algorithm", "Forward",  "Backward", "Optim", "Wait&Pipe",
      "Total",     "Enc",      "Dec",      "TensorComm"};
  EXPECT_EQ(header, expected);

  obs::PhaseBreakdown b;
  b.forward_ms = 1;
  b.backward_ms = 2;
  b.optimizer_ms = 3;
  b.waiting_ms = 4;
  b.total_ms = 5;
  b.encode_ms = 6;
  b.decode_ms = 7;
  b.tensor_comm_ms = 8;
  const std::vector<double> cols = obs::breakdown_columns(b);
  EXPECT_EQ(cols, (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}));
  // One numeric column per header column after the label.
  EXPECT_EQ(cols.size() + 1, header.size());
}

TEST(Accounting, PhaseBreakdownMatchesLegacyFormulas) {
  actcomp::parallel::IterationBreakdown r;
  r.makespan_ms = 100.0;
  r.optimizer_ms = 5.0;
  r.fwd_critical_ms = 30.0;
  r.bwd_critical_ms = 50.0;
  r.fwd_busy_max_ms = 45.0;
  r.bwd_busy_max_ms = 52.0;
  r.enc_ms = 1.5;
  r.dec_ms = 2.5;
  r.tensor_comm_ms = 9.0;

  const obs::PhaseBreakdown ft = r.phase_breakdown(obs::Accounting::kFinetune);
  EXPECT_DOUBLE_EQ(ft.forward_ms, r.fwd_critical_ms);
  EXPECT_DOUBLE_EQ(ft.backward_ms, r.bwd_critical_ms);
  EXPECT_DOUBLE_EQ(ft.waiting_ms, r.waiting_finetune_ms());
  EXPECT_DOUBLE_EQ(ft.total_ms, r.total_ms());
  EXPECT_DOUBLE_EQ(ft.optimizer_ms, r.optimizer_ms);
  EXPECT_DOUBLE_EQ(ft.encode_ms, r.enc_ms);
  EXPECT_DOUBLE_EQ(ft.decode_ms, r.dec_ms);
  EXPECT_DOUBLE_EQ(ft.tensor_comm_ms, r.tensor_comm_ms);

  const obs::PhaseBreakdown pt = r.phase_breakdown(obs::Accounting::kPretrain);
  EXPECT_DOUBLE_EQ(pt.forward_ms, r.fwd_busy_max_ms);
  EXPECT_DOUBLE_EQ(pt.backward_ms, r.bwd_busy_max_ms);
  EXPECT_DOUBLE_EQ(pt.waiting_ms, r.waiting_pretrain_ms());
  EXPECT_DOUBLE_EQ(pt.total_ms, r.total_ms());
}

TEST(Accounting, ToJsonKeysAreTheSchemaColumns) {
  obs::PhaseBreakdown b;
  const json::Value v = obs::to_json(b);
  const std::vector<std::string> keys{"forward_ms", "backward_ms",
                                      "optimizer_ms", "waiting_ms",
                                      "total_ms", "encode_ms",
                                      "decode_ms", "tensor_comm_ms"};
  ASSERT_EQ(v.members().size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(v.members()[i].first, keys[i]);
  }
}

}  // namespace
