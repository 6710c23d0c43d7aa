// RunReport: the one machine-readable artifact every bench/example emits.
//
// Construct one at the top of main(); on destruction it assembles the
// canonical JSON (schema below), snapshots the counter registry and — when
// the profiler is enabled — the zone tree, and writes
// $ACTCOMP_REPORT_DIR/REPORT_<binary>.json silently (never to stdout, so
// golden-tested bench output is untouched). ACTCOMP_REPORT=0 disables
// writing entirely, and a run that unwinds from an exception writes nothing,
// so a failed run leaves the last good report in place.
//
// Schema (DESIGN.md §11 is the normative description):
//   {
//     "schema": "actcomp.run_report.v1",
//     "binary": "table4_breakdown_finetune",
//     "git_rev": "<short rev or unknown>",
//     "hardware": {"hw_concurrency": N},
//     "config":   {...},        // bench-specific knobs incl. "seed"
//     "phases":   [{"label": ..., "accounting": ..., <PhaseBreakdown>}],
//     "tables":   [{"header": [...], "rows": [[...]]}],
//     "records":  [...],        // free-form (kernels_bench measurements)
//     "counters": {...},        // Registry::snapshot(), name-sorted
//     "profile":  [...]         // zone tree when the profiler is enabled
//   }
// Sections that would be empty are omitted. Key order is fixed and object
// members are deterministic, so two reports diff cleanly.
//
// While a RunReport is alive it is discoverable via RunReport::current();
// bench::print_table uses that to mirror every printed table into the
// report without touching the 20+ bench mains' printing code.
#pragma once

#include <string>
#include <vector>

#include "obs/accounting.h"
#include "obs/json.h"

namespace actcomp::obs {

class RunReport {
 public:
  /// `binary` names the emitting program (also the output file suffix).
  explicit RunReport(std::string binary);
  /// Writes (unless already written, disabled, or unwinding from an
  /// exception thrown after construction), then pops itself from the
  /// current() stack.
  ~RunReport();

  RunReport(const RunReport&) = delete;
  RunReport& operator=(const RunReport&) = delete;

  /// Innermost live RunReport on this process (benches have exactly one);
  /// nullptr when none.
  static RunReport* current();

  /// True unless ACTCOMP_REPORT=0.
  static bool reports_enabled();

  // ---- content ----
  void set_config(std::string_view key, json::Value v);
  void add_phase(std::string label, Accounting accounting,
                 const PhaseBreakdown& breakdown);
  void add_table(const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows);
  void add_record(json::Value record);

  /// Assembled report (also snapshots counters/profiler at call time).
  json::Value to_json() const;

  /// Resolved output path: $ACTCOMP_REPORT_DIR (default ".") /
  /// REPORT_<binary>.json.
  std::string path() const;

  /// Write now (idempotent; the destructor then does nothing). Returns
  /// false when disabled or the file could not be opened.
  bool write();

 private:
  std::string binary_;
  json::Value config_ = json::Value::object();
  json::Value phases_ = json::Value::array();
  json::Value tables_ = json::Value::array();
  json::Value records_ = json::Value::array();
  RunReport* prev_ = nullptr;  ///< current() stack link
  int uncaught_ = 0;           ///< std::uncaught_exceptions() at construction
  bool written_ = false;
};

}  // namespace actcomp::obs
