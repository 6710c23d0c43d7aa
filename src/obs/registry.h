// Typed counter / gauge / histogram registry (DESIGN.md §11).
//
// Instruments register by name on first use and cache the returned
// reference, so the hot path is one atomic RMW:
//
//   static obs::Counter& c =
//       obs::Registry::instance().counter("compress.encode.bytes_out");
//   c.add(msg.body_bytes());
//
// Snapshots are deterministic: entries sort by name, values serialize with
// the json module's stable number formatting — two runs of a seeded
// experiment produce byte-identical counter sections, which is what lets
// RunReports be diffed (and golden-tested) across commits.
//
// Metrics never alter computation; they are always compiled in (unlike
// profiler zones) because a relaxed atomic add is too cheap to gate.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace actcomp::obs {

/// Monotonic (within a run) integer accumulator.
class Counter {
 public:
  void add(int64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Last-write-wins double (pool size, achieved compression ratio, ...).
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<int64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<int64_t> bits_{std::bit_cast<int64_t>(0.0)};
};

/// Running count/sum/min/max of observed doubles (queue depths, retry
/// delays). Lock-free: sum/min/max update via CAS loops, so concurrent
/// observers never block; count/sum are exact, min/max are exact, but the
/// four fields are not sampled as one atomic tuple (fine for reporting).
class Histogram {
 public:
  void observe(double v);
  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
  };
  Snapshot snapshot() const;
  void reset();
  json::Value to_json() const;

 private:
  // min/max idle at +/-infinity so concurrent first observations need no
  // seeding handshake; snapshot() maps the empty case back to 0.
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_bits_{std::bit_cast<int64_t>(0.0)};
  std::atomic<int64_t> min_bits_{
      std::bit_cast<int64_t>(std::numeric_limits<double>::infinity())};
  std::atomic<int64_t> max_bits_{
      std::bit_cast<int64_t>(-std::numeric_limits<double>::infinity())};
};

class Registry {
 public:
  static Registry& instance();

  /// Find-or-create by name. The kind is fixed on first registration;
  /// re-registering a name as a different kind throws std::logic_error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// JSON object, one member per metric, sorted by name. Counters serialize
  /// as integers, gauges as doubles, histograms as {count, sum, min, max}.
  json::Value snapshot() const;

  /// Opaque storage; defined (and only reachable) in registry.cpp.
  struct Impl;

 private:
  Registry() = default;
  Impl& impl() const;
};

}  // namespace actcomp::obs
