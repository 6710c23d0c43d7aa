#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

#include "core/simd.h"
#include "obs/profiler.h"
#include "obs/registry.h"

#ifndef ACTCOMP_GIT_REV
#define ACTCOMP_GIT_REV "unknown"
#endif

namespace actcomp::obs {

namespace {

RunReport* g_current = nullptr;

const char* accounting_label(Accounting a) {
  return a == Accounting::kFinetune ? "finetune" : "pretrain";
}

}  // namespace

RunReport::RunReport(std::string binary)
    : binary_(std::move(binary)), uncaught_(std::uncaught_exceptions()) {
  prev_ = g_current;
  g_current = this;
}

RunReport::~RunReport() {
  // A run unwinding from an exception is a failed run: its partial report
  // must not replace the last good one.
  if (std::uncaught_exceptions() <= uncaught_) write();
  g_current = prev_;
}

RunReport* RunReport::current() { return g_current; }

bool RunReport::reports_enabled() {
  const char* env = std::getenv("ACTCOMP_REPORT");
  return env == nullptr || *env == '\0' || *env != '0';
}

void RunReport::set_config(std::string_view key, json::Value v) {
  config_.set(key, std::move(v));
}

void RunReport::add_phase(std::string label, Accounting accounting,
                          const PhaseBreakdown& breakdown) {
  json::Value p = json::Value::object();
  p.set("label", std::move(label));
  p.set("accounting", accounting_label(accounting));
  // Qualified: the member to_json() would otherwise hide the free function.
  const json::Value columns = ::actcomp::obs::to_json(breakdown);
  for (const auto& [key, value] : columns.members()) {
    p.set(key, value);
  }
  phases_.push_back(std::move(p));
}

void RunReport::add_table(const std::vector<std::string>& header,
                          const std::vector<std::vector<std::string>>& rows) {
  json::Value t = json::Value::object();
  json::Value h = json::Value::array();
  for (const auto& c : header) h.push_back(c);
  t.set("header", std::move(h));
  json::Value body = json::Value::array();
  for (const auto& row : rows) {
    json::Value r = json::Value::array();
    for (const auto& cell : row) r.push_back(cell);
    body.push_back(std::move(r));
  }
  t.set("rows", std::move(body));
  tables_.push_back(std::move(t));
}

void RunReport::add_record(json::Value record) {
  records_.push_back(std::move(record));
}

json::Value RunReport::to_json() const {
  json::Value root = json::Value::object();
  root.set("schema", "actcomp.run_report.v1");
  root.set("binary", binary_);
  root.set("git_rev", ACTCOMP_GIT_REV);
  json::Value hw = json::Value::object();
  hw.set("hw_concurrency",
         static_cast<int64_t>(std::thread::hardware_concurrency()));
  // Which SIMD tier the kernels actually dispatched to (DESIGN.md §15):
  // simd_isa is what ran, simd_detected what the host supports, and
  // simd_override the raw ACTCOMP_SIMD value ("" when unset).
  hw.set("simd_isa", core::simd_isa_name(core::simd_isa()));
  hw.set("simd_detected", core::simd_isa_name(core::detected_simd_isa()));
  hw.set("simd_override", core::simd_override());
  root.set("hardware", std::move(hw));
  if (config_.size() > 0) root.set("config", config_);
  if (phases_.size() > 0) root.set("phases", phases_);
  if (tables_.size() > 0) root.set("tables", tables_);
  if (records_.size() > 0) root.set("records", records_);
  root.set("counters", Registry::instance().snapshot());
  if (profiler_enabled()) {
    json::Value zones = json::Value::array();
    for (const ZoneStats& z : snapshot_zones()) {
      json::Value zv = json::Value::object();
      zv.set("path", z.path);
      zv.set("depth", z.depth);
      zv.set("count", z.count);
      zv.set("total_ms", z.total_ms);
      zv.set("self_ms", z.self_ms);
      zones.push_back(std::move(zv));
    }
    root.set("profile", std::move(zones));
  }
  return root;
}

std::string RunReport::path() const {
  const char* dir = std::getenv("ACTCOMP_REPORT_DIR");
  std::string d = dir != nullptr && *dir != '\0' ? dir : ".";
  if (d.back() != '/') d += '/';
  return d + "REPORT_" + binary_ + ".json";
}

bool RunReport::write() {
  if (written_) return true;
  if (!reports_enabled()) return false;
  const std::string out = to_json().dump(2);
  const std::string p = path();
  FILE* f = std::fopen(p.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  written_ = ok;
  return ok;
}

}  // namespace actcomp::obs
