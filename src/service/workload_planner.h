// Vertex-grouped batch planning for service submissions.
//
// The paper's applications — private similarity search, top-k, graph
// projection — are one-vs-many workloads: one source vertex queried
// against hundreds of candidates. Executing such a submission query by
// query pays N store lookups of the same source view, N de-bias setups,
// and N uncoordinated intersections. The planner instead groups a
// submission's admitted queries by their most-shared endpoint and executes
// each group with per-source reused state:
//
//   * the source's view (or true neighbor list) is resolved once,
//   * the de-bias constants are applied from one precomputed set,
//   * all candidates stream past the source row in one
//     BatchIntersectionSize pass (graph/set_ops.h).
//
// Answers are byte-identical to core PostProcess run query by query over
// the same views: intersection counts are exact integers from the same
// kernels, the arithmetic runs through the same core/protocol_pipeline.h
// helpers, and each query's Laplace noise comes from its own
// admission-assigned substream — execution order never touches the noise.

#ifndef CNE_SERVICE_WORKLOAD_PLANNER_H_
#define CNE_SERVICE_WORKLOAD_PLANNER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/protocol_pipeline.h"
#include "obs/trace.h"
#include "service/noisy_view_store.h"
#include "util/rng.h"

namespace cne {

/// One admitted query, as handed to the planner.
struct PlannedQueryRef {
  QueryPair query;
  size_t slot = 0;            ///< index into the submission's answers
  uint64_t noise_stream = 0;  ///< Laplace substream (MultiR family)
};

/// One query of a group: the endpoint that is not the group source, plus
/// the role the source plays in the pair (the MultiR protocols are
/// asymmetric in u and w).
struct GroupItem {
  VertexId candidate = 0;
  size_t slot = 0;
  uint64_t noise_stream = 0;
  bool source_is_u = false;
};

/// Admitted queries sharing one endpoint: the half-open range
/// [begin, end) of WorkloadPlan::items, role-partitioned so that the
/// source plays u in items[begin .. begin + num_source_as_u) and w in the
/// rest (within a role, submission order).
struct QueryGroup {
  LayeredVertex source{Layer::kLower, 0};
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t num_source_as_u = 0;

  uint32_t Size() const { return end - begin; }
};

/// A planned submission: all items in one flat buffer (CSR-style, so a
/// plan costs two passes and zero per-group allocations) with groups
/// ordered largest first — the shared rows that pay for reuse execute
/// while the pool is fullest, singletons last.
struct WorkloadPlan {
  std::vector<QueryGroup> groups;
  std::vector<GroupItem> items;
  uint64_t num_queries = 0;

  std::span<const GroupItem> Items(const QueryGroup& group) const {
    return std::span<const GroupItem>(items).subspan(group.begin,
                                                     group.Size());
  }

  double AvgGroupSize() const {
    return groups.empty() ? 0.0
                          : static_cast<double>(num_queries) /
                                static_cast<double>(groups.size());
  }
};

/// Builds workload plans: each query joins the group of whichever of its
/// endpoints occurs more often in the submission (ties and self-pairs go
/// to u). Deterministic — a plan depends only on the query list, never on
/// hashing or thread count.
///
/// The planner keeps dense per-layer scratch (an epoch-stamped frequency
/// and group slot per vertex, sized to the graph once), so planning costs
/// two linear passes and no hashing — cheap enough to run on every
/// submission of a long-lived service.
class WorkloadPlanner {
 public:
  explicit WorkloadPlanner(const BipartiteGraph& graph);

  /// Plans `queries`. The returned reference stays valid until the next
  /// Plan call — the plan's buffers are reused across submissions.
  const WorkloadPlan& Plan(std::span<const PlannedQueryRef> queries);

 private:
  struct LayerScratch {
    std::vector<uint32_t> frequency;    ///< endpoint occurrences
    std::vector<uint32_t> group;        ///< group index of a source vertex
    std::vector<uint64_t> freq_stamp;   ///< epoch when `frequency` is valid
    std::vector<uint64_t> group_stamp;  ///< epoch when `group` is valid
  };

  LayerScratch& Scratch(Layer layer) {
    return scratch_[static_cast<size_t>(layer)];
  }

  LayerScratch scratch_[2];  ///< indexed by Layer
  std::vector<uint32_t> u_cursor_;  ///< per-group placement cursors
  std::vector<uint32_t> w_cursor_;
  WorkloadPlan plan_;
  uint64_t epoch_ = 0;
};

/// Executes planned groups against the shared store. One executor per
/// worker; Execute may be called for any subset of groups in any order
/// (scratch is reused across calls, results only touch each item's slot).
class GroupExecutor {
 public:
  /// All referenced views must already be materialized. `noise_root` is
  /// the parent of the per-query Laplace substreams. `post_process`, when
  /// non-null, receives chunk-sampled per-query post-processing latencies
  /// (one item per kSampleStride is clocked; see ForEachSampled).
  /// `exemplars`, when non-null, additionally retains the slowest sampled
  /// items with their kernel/operand context, tagged `submit_id`.
  GroupExecutor(const BipartiteGraph& graph, const ProtocolPlan& plan,
                const DebiasConstants& debias, const NoisyViewStore& store,
                const Rng& noise_root,
                obs::LatencyHistogram* post_process = nullptr,
                obs::ExemplarReservoir* exemplars = nullptr,
                uint64_t submit_id = 0);

  /// Computes every item's estimate into estimates[item.slot].
  void Execute(const WorkloadPlan& plan, const QueryGroup& group,
               std::span<double> estimates);

 private:
  /// One item per stride gets the clock pair; the estimate loops run a few
  /// ns per item (post-SIMD), so the stride must amortize two ~40 ns clock
  /// reads to a centi-ns per-item cost.
  static constexpr size_t kSampleStride = 512;

  /// Runs one role-homogeneous span of items (`source_as_u` tells which
  /// role the source plays in all of them).
  void ExecuteRun(const QueryGroup& group, std::span<const GroupItem> items,
                  bool source_as_u, std::span<double> estimates);

  /// Calls body(i) for i in [0, n). With post-process timing enabled, one
  /// item per kSampleStride is clocked and recorded; the rest run in a
  /// tight inner loop with no per-item branch, so the compiler optimizes
  /// the common path exactly as if timing were off. The countdown persists
  /// across calls: groups are often far smaller than the stride, and
  /// restarting per call would clock every group's first item — at tens of
  /// ns per clock pair that alone would dominate a ~60 ns/query submit.
  template <typename Body, typename OnSample>
  void ForEachSampled(size_t n, Body&& body, OnSample&& on_sample) {
    if (post_process_ == nullptr) {
      for (size_t i = 0; i < n; ++i) body(i);
      return;
    }
    size_t i = 0;
    while (i < n) {
      const size_t burn = std::min(n - i, sample_countdown_);
      sample_countdown_ -= burn;
      for (const size_t chunk_end = i + burn; i < chunk_end; ++i) body(i);
      if (i < n) {
        const uint64_t t0 = obs::NowNanos();
        body(i);
        const uint64_t dt = obs::NowNanos() - t0;
        post_process_->Record(dt);
        // Exemplar hook, on already-clocked samples only: the call site
        // builds the context (kernel, operands) when the sample is slow
        // enough to displace a kept exemplar.
        on_sample(i, dt);
        ++i;
        sample_countdown_ = kSampleStride - 1;
      }
    }
  }

  template <typename Body>
  void ForEachSampled(size_t n, Body&& body) {
    ForEachSampled(n, std::forward<Body>(body), [](size_t, uint64_t) {});
  }

  const BipartiteGraph& graph_;
  const ProtocolPlan& plan_;
  const DebiasConstants& debias_;
  const NoisyViewStore& store_;
  const Rng& noise_root_;
  obs::LatencyHistogram* post_process_;
  obs::ExemplarReservoir* exemplars_;
  uint64_t submit_;              ///< submit id stamped on exemplars
  size_t sample_countdown_ = 0;  ///< items until the next clocked sample

  // Scratch reused across groups.
  std::vector<SetView> candidate_views_;
  std::vector<SetView> candidate_sorted_;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> reverse_counts_;
};

}  // namespace cne

#endif  // CNE_SERVICE_WORKLOAD_PLANNER_H_
