// Discrete-event execution engine for the pipeline simulator.
//
// The engine models a set of *resources* (things that serialize work: a
// stage's compute unit, a link's lane pool) and a static DAG of *ops*
// (forward/backward compute steps, point-to-point transfers). Schedules —
// GPipe, 1F1B, interleaved 1F1B — are expressed as op-dependency graphs on
// top of this core (see sim/pipeline.cpp) instead of bespoke loops, so new
// schedules only need a graph builder, not a new simulator.
//
// Resource semantics:
//   * capacity N > 0 — at most N ops in flight (N lanes); capacity 0 means
//     unlimited (a link with no contention is pure dependency delay).
//   * ExecPolicy::kProgramOrder — ops run strictly in the order they were
//     added to the resource, each starting at max(previous op's end, its
//     dependencies' end). This reproduces a synchronous executor exactly.
//   * ExecPolicy::kReadyOrder — the resource is work-conserving: whenever a
//     lane is free it starts the ready op with the lowest insertion index.
//     This models comm/compute overlap (async p2p): a stage stalled on a
//     late arrival runs the next op whose inputs are already present.
//
// run() is deterministic: events are processed in (time, op id) order.
//
// Scale: the engine is sized for datacenter-scale DP x TP x PP graphs
// (millions of ops per run). run() picks between two executors:
//   * run_relaxed() — when no resource is work-conserving with a finite lane
//     pool, every start time is a pure function of the graph (longest-path
//     relaxation over deps + per-resource serialization), so the DAG is
//     evaluated in O(ops + edges) with no event heap at all. This covers
//     every overlap-off pipeline graph the golden tables run.
//   * run_events() — the general discrete-event core: dependency edges in
//     one CSR adjacency, completion events in an indexed 4-ary heap with
//     O(log n) push/pop, and each completion touches only the resources it
//     dirtied (an explicit worklist), never a linear scan over all
//     resources.
// Both realize identical times (same max/+ arithmetic over the same values).
// The pre-refactor dispatch loop is preserved verbatim as run_reference()
// (sim/engine_reference.cpp) so property tests and bench/engine_bench can
// pin both paths' makespans and measure their speedup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace actcomp::sim {

enum class ExecPolicy { kProgramOrder, kReadyOrder };

struct OpTiming {
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class Engine {
 public:
  /// Adds a resource; `capacity` is the number of concurrent lanes (0 =
  /// unlimited). Returns its id.
  int add_resource(int capacity, ExecPolicy policy = ExecPolicy::kProgramOrder);

  /// Adds an op bound to `resource` with the given duration. Insertion order
  /// per resource defines the program order (kProgramOrder) and the
  /// tie-break priority (kReadyOrder). Returns the op id.
  int add_op(int resource, double duration_ms);

  /// Declares that `op` cannot start before `dep` has finished.
  void add_dep(int op, int dep);

  /// Grows the op/edge arrays up front (optional; purely a performance hint
  /// for graph builders that know their size, e.g. the 3D pipeline).
  void reserve(size_t num_ops, size_t num_deps);

  int num_ops() const { return static_cast<int>(ops_.size()); }
  int num_resources() const { return static_cast<int>(resources_.size()); }
  int num_deps() const { return static_cast<int>(dep_edges_.size()); }

  /// Executes the DAG to completion and returns per-op realized times.
  /// Throws std::logic_error if the graph cannot make progress (a dependency
  /// cycle, or a kProgramOrder resource whose next op waits on a later one).
  std::vector<OpTiming> run() const;

  /// The pre-refactor dispatch loop, kept verbatim as a reference
  /// implementation (sim/engine_reference.cpp). Test/bench use only: the
  /// randomized-DAG property suite pins run() == run_reference() and
  /// bench/engine_bench reports run()'s events/sec speedup over it.
  std::vector<OpTiming> run_reference() const;

 private:
  /// General discrete-event executor (heap-based); handles every policy.
  std::vector<OpTiming> run_events() const;
  /// Heap-free longest-path relaxation; valid only when no resource is
  /// kReadyOrder with capacity > 0 (run() checks and routes).
  std::vector<OpTiming> run_relaxed() const;

  struct OpNode {
    int resource = 0;
    double duration_ms = 0.0;
  };
  struct ResourceNode {
    int capacity = 0;
    ExecPolicy policy = ExecPolicy::kProgramOrder;
    std::vector<int> ops;  ///< insertion order = program order
  };

  std::vector<OpNode> ops_;
  std::vector<ResourceNode> resources_;
  /// Dependency edges (op, dep) in declaration order; run() builds the CSR
  /// adjacency from this flat list in O(ops + edges) with no per-op
  /// allocations.
  std::vector<std::pair<int, int>> dep_edges_;
};

}  // namespace actcomp::sim
