// Hierarchical scoped profiler (DESIGN.md §11).
//
//   void step() {
//     ACTCOMP_PROFILE("train.step");
//     forward();   // zones opened inside nest under train.step
//   }
//
// Model: each ACTCOMP_PROFILE(name) opens a zone under the calling thread's
// current zone, forming a global tree of zone *paths* ("train.step/forward/
// matmul2d"). Timing is recorded into thread-local buffers on zone exit and
// merged only when snapshot_zones() runs, so the hot path never touches a
// shared cache line; raw begin/end events are kept too (bounded) for the
// Chrome-trace bridge (obs::to_chrome_trace).
//
// Cross-thread nesting: a zone's identity is a small global node id, so a
// parent context can be carried onto another thread with ZoneContext — the
// core thread pool does this for every pooled job, which is why a kernel
// profiled under a 4-lane pool aggregates to the exact same tree (same
// paths, same counts) as under 1 lane; only the timings differ.
//
// Cost contract: runtime-disabled (the default), a zone costs one relaxed
// atomic load. Enabled (ACTCOMP_PROF=1 or set_profiler_enabled(true)), a
// zone costs two clock reads plus a thread-local map hit — <2% on the
// end-to-end fine-tune step, enforced by `./ci.sh bench`'s overhead gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace actcomp::obs {

/// Runtime switch. Initialized from the ACTCOMP_PROF env var (unset/0 =
/// off); flipping it mid-run is allowed (zones straddling the flip record).
bool profiler_enabled();
void set_profiler_enabled(bool on);

/// One node of the aggregated zone tree, in deterministic order: depth-first
/// from the root, siblings sorted by name.
struct ZoneStats {
  std::string path;  ///< "train.step/forward/matmul2d"
  std::string name;  ///< leaf segment
  int depth = 0;     ///< 0 for top-level zones
  int64_t count = 0;
  double total_ms = 0.0;  ///< wall time in the zone, children included
  double self_ms = 0.0;   ///< total_ms minus direct children's total
};

/// Merge every thread's buffers (and the buffers of threads that have since
/// exited) into the aggregated tree. Does not reset. Thread-safe; callers
/// should be quiesced relative to in-flight zones they care about.
std::vector<ZoneStats> snapshot_zones();

/// Drop all recorded timings and events (the zone-path table survives, so
/// node ids remain valid).
void reset_zones();

/// Chrome tracing JSON of the raw zone events ("traceEvents", ph:"X",
/// pid 1, one tid per OS thread observed, ts/dur in µs). Loadable in
/// Perfetto alongside the simulator's write_chrome_trace output.
void to_chrome_trace(std::ostream& os);

/// Events are capped per thread (kMaxEventsPerThread); this counts what got
/// dropped after the cap, across all threads, since the last reset.
int64_t dropped_zone_events();

namespace detail {

extern std::atomic<bool> g_enabled;  // read by the macro's fast path

uint32_t current_zone();
void set_current_zone(uint32_t id);
/// Find-or-create the child of `parent` named `name`; thread-safe.
uint32_t intern_zone(uint32_t parent, const char* name);
void record_zone(uint32_t id, uint32_t parent, int64_t start_ns, int64_t end_ns);
int64_t now_ns();

}  // namespace detail

/// RAII zone. Prefer the ACTCOMP_PROFILE macro; `name` must outlive the
/// profiler (string literals only).
class ScopedZone {
 public:
  explicit ScopedZone(const char* name) {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    parent_ = detail::current_zone();
    id_ = detail::intern_zone(parent_, name);
    detail::set_current_zone(id_);
    start_ns_ = detail::now_ns();
  }
  ~ScopedZone() {
    if (id_ == 0) return;
    detail::record_zone(id_, parent_, start_ns_, detail::now_ns());
    detail::set_current_zone(parent_);
  }
  ScopedZone(const ScopedZone&) = delete;
  ScopedZone& operator=(const ScopedZone&) = delete;

 private:
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Adopt a zone (by id) as the calling thread's current context; restores on
/// destruction. Used by the thread pool to parent worker-side zones under
/// the submitting call site.
class ZoneContext {
 public:
  explicit ZoneContext(uint32_t id) : saved_(detail::current_zone()) {
    detail::set_current_zone(id);
  }
  ~ZoneContext() { detail::set_current_zone(saved_); }
  ZoneContext(const ZoneContext&) = delete;
  ZoneContext& operator=(const ZoneContext&) = delete;

 private:
  uint32_t saved_;
};

/// The calling thread's current zone id (0 = root), for ZoneContext.
inline uint32_t current_zone_id() { return detail::current_zone(); }

#define ACTCOMP_PROF_CONCAT2(a, b) a##b
#define ACTCOMP_PROF_CONCAT(a, b) ACTCOMP_PROF_CONCAT2(a, b)
#define ACTCOMP_PROFILE(name) \
  ::actcomp::obs::ScopedZone ACTCOMP_PROF_CONCAT(actcomp_prof_zone_, __COUNTER__)(name)

}  // namespace actcomp::obs
