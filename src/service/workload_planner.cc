#include "service/workload_planner.h"

#include <algorithm>

#include "graph/set_ops.h"
#include "ldp/laplace_mechanism.h"
#include "util/cpu_features.h"
#include "util/logging.h"

namespace cne {

WorkloadPlanner::WorkloadPlanner(const BipartiteGraph& graph) {
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    LayerScratch& scratch = Scratch(layer);
    const size_t n = graph.NumVertices(layer);
    scratch.frequency.resize(n);
    scratch.group.resize(n);
    scratch.freq_stamp.resize(n, 0);
    scratch.group_stamp.resize(n, 0);
  }
}

const WorkloadPlan& WorkloadPlanner::Plan(
    std::span<const PlannedQueryRef> queries) {
  plan_.groups.clear();
  plan_.items.clear();
  plan_.num_queries = queries.size();
  if (queries.empty()) return plan_;
  ++epoch_;

  // Pass 1 — endpoint frequencies over the submission: the busier
  // endpoint of each pair becomes its group source, so a 1×N top-k
  // workload collapses into a single group around the shared source. The
  // epoch stamp makes stale scratch from earlier submissions read as zero
  // without clearing.
  const auto bump = [&](Layer layer, VertexId v) {
    LayerScratch& scratch = Scratch(layer);
    if (scratch.freq_stamp[v] != epoch_) {
      scratch.freq_stamp[v] = epoch_;
      scratch.frequency[v] = 0;
    }
    ++scratch.frequency[v];
  };
  for (const PlannedQueryRef& ref : queries) {
    bump(ref.query.layer, ref.query.u);
    if (ref.query.u != ref.query.w) bump(ref.query.layer, ref.query.w);
  }

  // A query's source and role; ties and self-pairs stay with u.
  const auto source_role = [&](const PlannedQueryRef& ref) {
    LayerScratch& scratch = Scratch(ref.query.layer);
    const bool source_is_u =
        ref.query.u == ref.query.w ||
        scratch.frequency[ref.query.u] >= scratch.frequency[ref.query.w];
    return std::pair<bool, VertexId>(
        source_is_u, source_is_u ? ref.query.u : ref.query.w);
  };

  // Pass 2 — count group sizes per role in first-touch order (the plan is
  // deterministic: no hashing, no thread interleaving).
  for (const PlannedQueryRef& ref : queries) {
    const auto [source_is_u, source] = source_role(ref);
    LayerScratch& scratch = Scratch(ref.query.layer);
    if (scratch.group_stamp[source] != epoch_) {
      scratch.group_stamp[source] = epoch_;
      scratch.group[source] = static_cast<uint32_t>(plan_.groups.size());
      plan_.groups.push_back({{ref.query.layer, source}, 0, 0, 0});
    }
    QueryGroup& group = plan_.groups[scratch.group[source]];
    ++group.end;  // size accumulator until the prefix pass
    if (source_is_u) ++group.num_source_as_u;
  }

  // Prefix pass — carve the flat item buffer into group ranges, each
  // role-partitioned (source-as-u items first).
  u_cursor_.resize(plan_.groups.size());
  w_cursor_.resize(plan_.groups.size());
  uint32_t offset = 0;
  for (size_t g = 0; g < plan_.groups.size(); ++g) {
    QueryGroup& group = plan_.groups[g];
    const uint32_t size = group.end;
    group.begin = offset;
    group.end = offset + size;
    u_cursor_[g] = group.begin;
    w_cursor_[g] = group.begin + group.num_source_as_u;
    offset = group.end;
  }
  plan_.items.resize(queries.size());

  // Pass 3 — place the items; within a role, submission order.
  for (const PlannedQueryRef& ref : queries) {
    const auto [source_is_u, source] = source_role(ref);
    const uint32_t g = Scratch(ref.query.layer).group[source];
    const uint32_t index = source_is_u ? u_cursor_[g]++ : w_cursor_[g]++;
    plan_.items[index] = {source_is_u ? ref.query.w : ref.query.u, ref.slot,
                          ref.noise_stream, source_is_u};
  }

  // Largest groups first, so the shared rows that pay for reuse run while
  // the pool is fullest; source id breaks ties for a deterministic plan.
  std::sort(plan_.groups.begin(), plan_.groups.end(),
            [](const QueryGroup& a, const QueryGroup& b) {
              if (a.Size() != b.Size()) return a.Size() > b.Size();
              return PackLayeredVertex(a.source) <
                     PackLayeredVertex(b.source);
            });
  return plan_;
}

GroupExecutor::GroupExecutor(const BipartiteGraph& graph,
                             const ProtocolPlan& plan,
                             const DebiasConstants& debias,
                             const NoisyViewStore& store,
                             const Rng& noise_root,
                             obs::LatencyHistogram* post_process,
                             obs::ExemplarReservoir* exemplars,
                             uint64_t submit_id)
    : graph_(graph),
      plan_(plan),
      debias_(debias),
      store_(store),
      noise_root_(noise_root),
      post_process_(post_process),
      exemplars_(exemplars),
      submit_(submit_id) {}

void GroupExecutor::Execute(const WorkloadPlan& plan,
                            const QueryGroup& group,
                            std::span<double> estimates) {
  const std::span<const GroupItem> items = plan.Items(group);
  if (plan_.kind == ProtocolKind::kNaive ||
      plan_.kind == ProtocolKind::kOneR) {
    // Symmetric protocols: the u/w roles are interchangeable, one run
    // covers the whole group.
    ExecuteRun(group, items, /*source_as_u=*/true, estimates);
    return;
  }
  ExecuteRun(group, items.subspan(0, group.num_source_as_u),
             /*source_as_u=*/true, estimates);
  ExecuteRun(group, items.subspan(group.num_source_as_u),
             /*source_as_u=*/false, estimates);
}

void GroupExecutor::ExecuteRun(const QueryGroup& group,
                               std::span<const GroupItem> items,
                               bool source_as_u,
                               std::span<double> estimates) {
  if (items.empty()) return;
  const Layer layer = group.source.layer;

  // Exemplar hook for a clocked sample: builds the full context — the
  // reconstructed query pair, the batch kernel that the operand shapes
  // dispatch to, both operand representations/sizes, the SIMD level —
  // but only when the sample is slow enough to displace a kept exemplar
  // (one relaxed load otherwise). `a` is the source-side operand of the
  // batch pass, `b` the candidate-side one.
  const auto offer = [&](std::span<const GroupItem> run_items, size_t i,
                         uint64_t dt, const SetView& a, const SetView& b,
                         bool run_source_as_u) {
    if (exemplars_ == nullptr || !exemplars_->WouldAccept(dt)) return;
    obs::Exemplar e;
    e.seconds = static_cast<double>(dt) * 1e-9;
    e.submit = submit_;
    e.has_query = true;
    e.layer = static_cast<uint8_t>(layer);
    e.u = run_source_as_u ? group.source.id : run_items[i].candidate;
    e.w = run_source_as_u ? run_items[i].candidate : group.source.id;
    e.kernel = DispatchedKernelName(a, b);
    const char* repr_a = a.IsBitmap() ? "bitmap" : "sorted";
    const char* repr_b = b.IsBitmap() ? "bitmap" : "sorted";
    e.repr_u = run_source_as_u ? repr_a : repr_b;
    e.size_u = run_source_as_u ? a.Size() : b.Size();
    e.repr_w = run_source_as_u ? repr_b : repr_a;
    e.size_w = run_source_as_u ? b.Size() : a.Size();
    e.simd = SimdLevelName(ActiveSimdLevel());
    exemplars_->Offer(dt, e);
  };

  switch (plan_.kind) {
    case ProtocolKind::kNaive:
    case ProtocolKind::kOneR: {
      // Per-source reuse: the source's released view is resolved once and
      // every candidate view streams past it in one batch pass.
      const NoisyNeighborSet& source_view = store_.View(group.source);
      const VertexId opposite = graph_.NumVertices(Opposite(layer));
      candidate_views_.clear();
      candidate_views_.reserve(items.size());
      for (const GroupItem& item : items) {
        candidate_views_.push_back(
            store_.View({layer, item.candidate}).View());
        // Start each view's backing storage toward cache while the rest
        // of the group is still being resolved from the store; the batch
        // kernel's own N-ahead prefetch takes over from there.
        PrefetchSetView(candidate_views_.back());
      }
      counts_.resize(items.size());
      BatchIntersectionSize(source_view.View(), candidate_views_, counts_);
      const auto on_sample = [&](size_t i, uint64_t dt) {
        offer(items, i, dt, source_view.View(), candidate_views_[i], true);
      };
      if (plan_.kind == ProtocolKind::kNaive) {
        ForEachSampled(
            items.size(),
            [&](size_t i) {
              estimates[items[i].slot] = static_cast<double>(counts_[i]);
            },
            on_sample);
      } else {
        ForEachSampled(
            items.size(),
            [&](size_t i) {
              const uint64_t n1 = counts_[i];
              const uint64_t n2 =
                  source_view.Size() + candidate_views_[i].Size() - n1;
              estimates[items[i].slot] =
                  OneRFromCounts(debias_, n1, n2, opposite);
            },
            on_sample);
      }
      return;
    }

    case ProtocolKind::kMultiRSS: {
      if (source_as_u) {
        // f_source against every candidate's view: the source's true
        // neighbor list and degree are fetched once.
        const auto neighbors = graph_.Neighbors(group.source);
        candidate_views_.clear();
        candidate_views_.reserve(items.size());
        for (const GroupItem& item : items) {
          candidate_views_.push_back(
              store_.View({layer, item.candidate}).View());
          PrefetchSetView(candidate_views_.back());
        }
        counts_.resize(items.size());
        BatchIntersectionSize(SetView::Sorted(neighbors), candidate_views_,
                              counts_);
        ForEachSampled(
            items.size(),
            [&](size_t i) {
              const double f_u = SingleSourceFromCounts(debias_, counts_[i],
                                                        neighbors.size());
              Rng rng = noise_root_.Fork(items[i].noise_stream);
              estimates[items[i].slot] =
                  LaplaceMechanism(f_u, debias_.stay, plan_.epsilon2, rng);
            },
            [&](size_t i, uint64_t dt) {
              offer(items, i, dt, SetView::Sorted(neighbors),
                    candidate_views_[i], true);
            });
      } else {
        // The source is the released side: its view is resolved once and
        // every candidate's true neighbor list probes into it.
        const NoisyNeighborSet& source_view = store_.View(group.source);
        candidate_sorted_.clear();
        candidate_sorted_.reserve(items.size());
        for (const GroupItem& item : items) {
          candidate_sorted_.push_back(
              SetView::Sorted(graph_.Neighbors(layer, item.candidate)));
        }
        counts_.resize(items.size());
        BatchIntersectionSize(source_view.View(), candidate_sorted_,
                              counts_);
        ForEachSampled(
            items.size(),
            [&](size_t i) {
              const double f_u = SingleSourceFromCounts(
                  debias_, counts_[i], candidate_sorted_[i].Size());
              Rng rng = noise_root_.Fork(items[i].noise_stream);
              estimates[items[i].slot] =
                  LaplaceMechanism(f_u, debias_.stay, plan_.epsilon2, rng);
            },
            [&](size_t i, uint64_t dt) {
              offer(items, i, dt, source_view.View(), candidate_sorted_[i],
                    false);
            });
      }
      return;
    }

    case ProtocolKind::kMultiRDS: {
      // Both directions batched against the source: the source's true
      // neighbors sweep the candidate views, and the candidates' true
      // neighbors sweep the source's view.
      const auto source_neighbors = graph_.Neighbors(group.source);
      const NoisyNeighborSet& source_view = store_.View(group.source);
      candidate_views_.clear();
      candidate_sorted_.clear();
      candidate_views_.reserve(items.size());
      candidate_sorted_.reserve(items.size());
      for (const GroupItem& item : items) {
        candidate_views_.push_back(
            store_.View({layer, item.candidate}).View());
        PrefetchSetView(candidate_views_.back());
        candidate_sorted_.push_back(
            SetView::Sorted(graph_.Neighbors(layer, item.candidate)));
      }
      counts_.resize(items.size());
      reverse_counts_.resize(items.size());
      BatchIntersectionSize(SetView::Sorted(source_neighbors),
                            candidate_views_, counts_);
      BatchIntersectionSize(source_view.View(), candidate_sorted_,
                            reverse_counts_);
      // counts_[i] pairs the source's neighbors with the candidate's
      // view; reverse_counts_[i] the other way around. Map them onto the
      // protocol's (u, w) roles and draw f_u's noise before f_w's,
      // exactly as core PostProcess does.
      ForEachSampled(
          items.size(),
          [&](size_t i) {
            const double f_source = SingleSourceFromCounts(
                debias_, counts_[i], source_neighbors.size());
            const double f_candidate = SingleSourceFromCounts(
                debias_, reverse_counts_[i], candidate_sorted_[i].Size());
            Rng rng = noise_root_.Fork(items[i].noise_stream);
            const double first = source_as_u ? f_source : f_candidate;
            const double second = source_as_u ? f_candidate : f_source;
            const double f_u =
                LaplaceMechanism(first, debias_.stay, plan_.epsilon2, rng);
            const double f_w =
                LaplaceMechanism(second, debias_.stay, plan_.epsilon2, rng);
            estimates[items[i].slot] =
                CombineDoubleSource(plan_.alpha, f_u, f_w);
          },
          [&](size_t i, uint64_t dt) {
            offer(items, i, dt, SetView::Sorted(source_neighbors),
                  candidate_views_[i], source_as_u);
          });
      return;
    }
  }
  CNE_CHECK(false) << "unreachable";
}

}  // namespace cne
