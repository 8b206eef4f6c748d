#include "replay.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <filesystem>
#include <utility>

#include "graph/set_ops.h"
#include "ldp/randomized_response.h"

namespace perfbench {

using cne::LayeredVertex;
using cne::QueryPair;
using cne::WalRecord;
using cne::WalRecordType;

namespace {

// The service's admission tolerance (query_service.cc): a charge within
// 1e-9 of the residual budget still fits.
constexpr double kBudgetTolerance = 1e-9;

double Seconds(uint64_t begin_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

uint64_t OperandBytes(const cne::SetView& view) {
  if (view.IsBitmap()) {
    return (static_cast<uint64_t>(view.bitmap().NumBits()) + 63) / 64 * 8;
  }
  return view.Size() * sizeof(cne::VertexId);
}

bool SameView(const cne::NoisyNeighborSet& a, const cne::NoisyNeighborSet& b) {
  if (a.IsBitmap() != b.IsBitmap() || a.Size() != b.Size() ||
      a.DomainSize() != b.DomainSize()) {
    return false;
  }
  if (a.IsBitmap()) {
    const auto wa = a.View().bitmap().Words();
    const auto wb = b.View().bitmap().Words();
    return std::equal(wa.begin(), wa.end(), wb.begin(), wb.end());
  }
  return a.SortedMembers() == b.SortedMembers();
}

WalRecord Charge(LayeredVertex v, double epsilon) {
  WalRecord record;
  record.type = WalRecordType::kCharge;
  record.vertex = cne::PackLayeredVertex(v);
  record.value = epsilon;
  return record;
}

WalRecord Authorized(LayeredVertex v) {
  WalRecord record;
  record.type = WalRecordType::kViewAuthorized;
  record.vertex = cne::PackLayeredVertex(v);
  return record;
}

}  // namespace

LayerReplay::LayerReplay(const cne::BipartiteGraph& graph,
                         const cne::ServiceOptions& options, int threads,
                         std::string wal_path)
    : graph_(graph),
      plan_(cne::MakeProtocolPlan(options.algorithm, options.epsilon,
                                  options.epsilon1_fraction)),
      debias_(cne::MakeDebiasConstantsForEpsilon(plan_.epsilon1)),
      view_root_(cne::Rng(options.seed).Fork(0)),
      noise_root_(cne::Rng(options.seed).Fork(1)),
      ledger_(options.lifetime_budget > 0.0 ? options.lifetime_budget
                                            : options.epsilon),
      pool_(threads),
      wal_path_(std::move(wal_path)) {
  released_[0].assign(graph.NumUpper(), false);
  released_[1].assign(graph.NumLower(), false);
  if (!wal_path_.empty()) Checkpointed(0);
}

bool LayerReplay::Released(LayeredVertex v) const {
  return released_[static_cast<size_t>(v.layer)][v.id];
}

void LayerReplay::MarkReleased(LayeredVertex v) {
  released_[static_cast<size_t>(v.layer)][v.id] = true;
}

void LayerReplay::Checkpointed(uint64_t epoch) {
  wal_.reset();
  cne::BudgetWal::Reset(wal_path_, epoch);
  wal_ = std::make_unique<cne::BudgetWal>(wal_path_);
  wal_file_bytes_ = std::filesystem::file_size(wal_path_);
}

void LayerReplay::Replay(const std::vector<QueryPair>& queries,
                         uint64_t first_stream,
                         const cne::QueryService& service,
                         const cne::ServiceReport& report, SpanLog* log,
                         uint64_t submit_id) {
  struct Decision {
    bool admitted = false;
    bool rr_u = false;  ///< u's view released by this query
    bool rr_w = false;
  };
  std::vector<Decision> decisions(queries.size());
  std::vector<LayeredVertex> releases;

  // ldp.ledger: the admission pass, in submission order.
  {
    const ScopedSpan span(log, "replay.ledger", submit_id);
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryPair& q = queries[i];
      const LayeredVertex u{q.layer, q.u};
      const LayeredVertex w{q.layer, q.w};
      const bool same = q.u == q.w;
      const bool rr_u = plan_.UsesNoisyViewU();
      const bool rr_w = plan_.UsesNoisyViewW() && !(same && rr_u);
      Decision& d = decisions[i];
      d.rr_u = rr_u && !Released(u);
      d.rr_w = rr_w && !Released(w);

      std::array<std::pair<LayeredVertex, double>, 2> needs;
      size_t num_needs = 0;
      const auto add = [&](LayeredVertex v, double epsilon) {
        for (size_t k = 0; k < num_needs; ++k) {
          if (needs[k].first == v) {
            needs[k].second += epsilon;
            return;
          }
        }
        needs[num_needs++] = {v, epsilon};
      };
      if (d.rr_u) add(u, plan_.epsilon1);
      if (d.rr_w) add(w, plan_.epsilon1);
      if (plan_.LaplaceFromU()) add(u, plan_.epsilon2);
      if (plan_.LaplaceFromW()) add(w, plan_.epsilon2);
      bool fits = true;
      for (size_t k = 0; k < num_needs; ++k) {
        fits = fits && needs[k].second <=
                           ledger_.Remaining(needs[k].first) + kBudgetTolerance;
      }
      if (!fits) {
        ++counters_.ledger_refusals;
        d.rr_u = d.rr_w = false;
        continue;
      }
      d.admitted = true;
      bool charged = true;
      if (d.rr_u) {
        charged = ledger_.TryCharge(u, plan_.epsilon1) && charged;
        MarkReleased(u);
        releases.push_back(u);
      }
      if (d.rr_w) {
        charged = ledger_.TryCharge(w, plan_.epsilon1) && charged;
        MarkReleased(w);
        releases.push_back(w);
      }
      if (plan_.LaplaceFromU()) {
        charged = ledger_.TryCharge(u, plan_.epsilon2) && charged;
      }
      if (plan_.LaplaceFromW()) {
        charged = ledger_.TryCharge(w, plan_.epsilon2) && charged;
      }
      if (!charged) ++mismatches_;
      counters_.ledger_charges += (d.rr_u ? 1 : 0) + (d.rr_w ? 1 : 0) +
                                  plan_.NumLaplaceReleases();
      counters_.store_lookups += (rr_u ? 1 : 0) + (rr_w ? 1 : 0);
    }
    counters_.ledger_busy_s += Seconds(t0, NowNs());
  }
  counters_.store_releases += releases.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (decisions[i].admitted == report.answers[i].rejected) ++mismatches_;
  }

  // store.wal: the records the service journaled for this batch, then the
  // seal and its fsync.
  if (wal_ != nullptr) {
    std::vector<WalRecord> records;
    for (size_t i = 0; i < queries.size(); ++i) {
      const Decision& d = decisions[i];
      if (!d.admitted) continue;
      const LayeredVertex u{queries[i].layer, queries[i].u};
      const LayeredVertex w{queries[i].layer, queries[i].w};
      if (d.rr_u) {
        records.push_back(Authorized(u));
        records.push_back(Charge(u, plan_.epsilon1));
      }
      if (d.rr_w) {
        records.push_back(Authorized(w));
        records.push_back(Charge(w, plan_.epsilon1));
      }
      if (plan_.LaplaceFromU()) records.push_back(Charge(u, plan_.epsilon2));
      if (plan_.LaplaceFromW()) records.push_back(Charge(w, plan_.epsilon2));
    }
    WalRecord seal;
    seal.type = WalRecordType::kSubmitSealed;
    seal.counter = first_stream + queries.size();
    records.push_back(seal);
    {
      const ScopedSpan span(log, "replay.wal_append", submit_id);
      const uint64_t t0 = NowNs();
      for (const WalRecord& record : records) wal_->Append(record);
      counters_.wal_append_s += Seconds(t0, NowNs());
    }
    {
      const ScopedSpan span(log, "replay.wal_sync", submit_id);
      const uint64_t t0 = NowNs();
      wal_->Sync();
      counters_.wal_sync_s += Seconds(t0, NowNs());
    }
    counters_.wal_appends += records.size();
    ++counters_.wal_syncs;
    const uint64_t size = std::filesystem::file_size(wal_path_);
    counters_.wal_bytes += size - wal_file_bytes_;
    wal_file_bytes_ = size;
  }

  const cne::NoisyViewStore& store = service.store();

  // ldp.rr: one release per newly authorized vertex, fanned across the
  // pool like the service's MaterializeAuthorized.
  if (!releases.empty()) {
    std::vector<std::unique_ptr<cne::NoisyNeighborSet>> views(
        releases.size());
    std::atomic<uint64_t> cpu_ns{0};
    {
      const ScopedSpan span(log, "replay.rr", submit_id);
      const uint64_t t0 = NowNs();
      pool_.ParallelFor(releases.size(), [&](size_t begin, size_t end) {
        uint64_t busy = 0;
        for (size_t i = begin; i < end; ++i) {
          cne::Rng rng = view_root_.Fork(cne::PackLayeredVertex(releases[i]));
          const uint64_t c0 = NowNs();
          views[i] = std::make_unique<cne::NoisyNeighborSet>(
              cne::ApplyRandomizedResponse(graph_, releases[i],
                                           plan_.epsilon1, rng));
          busy += NowNs() - c0;
        }
        cpu_ns.fetch_add(busy, std::memory_order_relaxed);
      });
      counters_.rr_wall_s += Seconds(t0, NowNs());
    }
    counters_.rr_cpu_s += static_cast<double>(cpu_ns.load()) * 1e-9;
    counters_.rr_calls += releases.size();
    for (size_t i = 0; i < releases.size(); ++i) {
      counters_.rr_domain_positions +=
          graph_.NumVertices(cne::Opposite(releases[i].layer));
      counters_.rr_noisy_members += views[i]->Size();
      if (!SameView(*views[i], store.View(releases[i]))) ++mismatches_;
    }
  }

  std::vector<size_t> answered;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (decisions[i].admitted) answered.push_back(i);
  }
  const auto inputs_of = [&](const QueryPair& q) {
    const LayeredVertex u{q.layer, q.u};
    const LayeredVertex w{q.layer, q.w};
    cne::ReleasedInputs inputs;
    if (plan_.UsesNoisyViewU()) inputs.view_u = &store.View(u);
    inputs.view_w = &store.View(w);
    if (plan_.LaplaceFromU()) inputs.neighbors_u = graph_.Neighbors(u);
    if (plan_.LaplaceFromW()) inputs.neighbors_w = graph_.Neighbors(w);
    inputs.opposite_size = graph_.NumVertices(cne::Opposite(q.layer));
    return inputs;
  };

  // core.post_process: the per-query arithmetic, Laplace draws included.
  if (!answered.empty()) {
    std::vector<double> estimates(answered.size());
    std::atomic<uint64_t> busy_ns{0};
    {
      const ScopedSpan span(log, "replay.post_process", submit_id);
      const uint64_t t0 = NowNs();
      pool_.ParallelFor(answered.size(), [&](size_t begin, size_t end) {
        const uint64_t c0 = NowNs();
        for (size_t k = begin; k < end; ++k) {
          const size_t i = answered[k];
          const cne::ReleasedInputs inputs = inputs_of(queries[i]);
          if (plan_.NumLaplaceReleases() == 0) {
            cne::Rng unused(0);
            estimates[k] = cne::PostProcess(plan_, debias_, inputs, unused);
          } else {
            cne::Rng rng = noise_root_.Fork(first_stream + i);
            estimates[k] = cne::PostProcess(plan_, debias_, inputs, rng);
          }
        }
        busy_ns.fetch_add(NowNs() - c0, std::memory_order_relaxed);
      });
      counters_.post_process_wall_s += Seconds(t0, NowNs());
    }
    counters_.post_process_busy_s += static_cast<double>(busy_ns.load()) * 1e-9;
    counters_.post_process_calls += answered.size();
    for (size_t k = 0; k < answered.size(); ++k) {
      if (std::bit_cast<uint64_t>(estimates[k]) !=
          std::bit_cast<uint64_t>(report.answers[answered[k]].estimate)) {
        ++mismatches_;
      }
    }

    // graph.set_ops: the query's first intersection — noisy u ∩ noisy w
    // for OneR, N(u) ∩ noisy w for the MultiR family.
    std::vector<std::pair<cne::SetView, cne::SetView>> operands;
    operands.reserve(answered.size());
    for (const size_t i : answered) {
      const cne::ReleasedInputs inputs = inputs_of(queries[i]);
      const cne::SetView a = plan_.LaplaceFromU()
                                 ? cne::SetView::Sorted(inputs.neighbors_u)
                                 : inputs.view_u->View();
      const cne::SetView b = inputs.view_w->View();
      counters_.set_ops_bytes += OperandBytes(a) + OperandBytes(b);
      operands.emplace_back(a, b);
    }
    const ScopedSpan span(log, "replay.set_ops", submit_id);
    const uint64_t t0 = NowNs();
    uint64_t total = 0;
    for (const auto& [a, b] : operands) total += cne::IntersectionSize(a, b);
    counters_.set_ops_busy_s += Seconds(t0, NowNs());
    counters_.set_ops_calls += operands.size();
    sink_ += total;
  }
}

void LayerReplay::Reconcile(const cne::QueryService& service,
                            const cne::NoisyViewStore::Stats& stats,
                            std::vector<std::string>& failures) const {
  if (counters_.rr_calls != stats.releases) {
    failures.push_back("ldp.rr.calls " + std::to_string(counters_.rr_calls) +
                       " != service.view_store.releases " +
                       std::to_string(stats.releases));
  }
  if (counters_.store_lookups != stats.lookups ||
      counters_.store_releases != stats.releases ||
      stats.cache_hits != stats.lookups - stats.releases) {
    failures.push_back("replayed view-store lookups/releases differ from the "
                       "service's");
  }
  const std::vector<cne::VertexBudget> ours = ledger_.Snapshot();
  const std::vector<cne::VertexBudget> theirs = service.ledger().Snapshot();
  bool same = ours.size() == theirs.size();
  for (size_t i = 0; same && i < ours.size(); ++i) {
    same = ours[i].vertex == theirs[i].vertex &&
           std::bit_cast<uint64_t>(ours[i].spent) ==
               std::bit_cast<uint64_t>(theirs[i].spent);
  }
  if (!same) {
    failures.push_back("replayed ledger rows differ from the service's (" +
                       std::to_string(ours.size()) + " vs " +
                       std::to_string(theirs.size()) + " charged vertices)");
  }
  if (mismatches_ > 0) {
    failures.push_back(std::to_string(mismatches_) +
                       " replayed admissions, views or estimates differ from "
                       "the service's");
  }
}

}  // namespace perfbench
