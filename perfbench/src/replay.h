// Layer replay for the traced benchmark run.
//
// After each Submit, the traced run replays the layer calls that Submit
// made, on the same inputs, through the layers' public functions, and
// times them one layer at a time:
//
//   ldp.ledger      BudgetLedger::TryCharge in admission order, with the
//                   service's all-or-nothing affordability rule
//   store.wal       BudgetWal::Append of the records the service journals,
//                   then one Sync (persistent workloads)
//   ldp.rr          ApplyRandomizedResponse once per newly released
//                   vertex, on a pool of the service's size
//   core.post_process  PostProcess once per answered query (Laplace draws
//                   included), on the same pool
//   graph.set_ops   IntersectionSize once per answered query
//
// The replay is checked against the service as it goes — every replayed
// view and estimate must be bit-identical to the service's, and the
// admission decisions, ledger rows and view-store counts must agree — so
// the replay measures the same work the end-to-end run did. Any
// difference is counted as a mismatch.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/protocol_pipeline.h"
#include "graph/bipartite_graph.h"
#include "ldp/budget_ledger.h"
#include "service/query_service.h"
#include "spans.h"
#include "store/budget_wal.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Work and time the replay attributed to each layer, over the whole run.
struct LayerCounters {
  uint64_t rr_calls = 0;
  double rr_wall_s = 0.0;  ///< pool wall time of the release batches
  double rr_cpu_s = 0.0;   ///< summed per-call time across the pool
  uint64_t rr_domain_positions = 0;
  uint64_t rr_noisy_members = 0;

  uint64_t set_ops_calls = 0;
  double set_ops_busy_s = 0.0;
  uint64_t set_ops_bytes = 0;  ///< operand bytes, both operands

  uint64_t post_process_calls = 0;
  double post_process_busy_s = 0.0;  ///< summed across the pool
  double post_process_wall_s = 0.0;

  uint64_t ledger_charges = 0;
  uint64_t ledger_refusals = 0;
  double ledger_busy_s = 0.0;

  uint64_t wal_appends = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_bytes = 0;  ///< bytes the syncs made durable
  double wal_append_s = 0.0;
  double wal_sync_s = 0.0;

  uint64_t store_lookups = 0;   ///< view lookups the admissions made
  uint64_t store_releases = 0;  ///< first authorizations

  LayerCounters& operator+=(const LayerCounters& o) {
    rr_calls += o.rr_calls;
    rr_wall_s += o.rr_wall_s;
    rr_cpu_s += o.rr_cpu_s;
    rr_domain_positions += o.rr_domain_positions;
    rr_noisy_members += o.rr_noisy_members;
    set_ops_calls += o.set_ops_calls;
    set_ops_busy_s += o.set_ops_busy_s;
    set_ops_bytes += o.set_ops_bytes;
    post_process_calls += o.post_process_calls;
    post_process_busy_s += o.post_process_busy_s;
    post_process_wall_s += o.post_process_wall_s;
    ledger_charges += o.ledger_charges;
    ledger_refusals += o.ledger_refusals;
    ledger_busy_s += o.ledger_busy_s;
    wal_appends += o.wal_appends;
    wal_syncs += o.wal_syncs;
    wal_bytes += o.wal_bytes;
    wal_append_s += o.wal_append_s;
    wal_sync_s += o.wal_sync_s;
    store_lookups += o.store_lookups;
    store_releases += o.store_releases;
    return *this;
  }

  /// Wall time of the replayed layers that block a Submit, without
  /// double counting: set ops run inside post-processing.
  double BlockingWallSeconds() const {
    return ledger_busy_s + wal_append_s + wal_sync_s + rr_wall_s +
           post_process_wall_s;
  }
};

class LayerReplay {
 public:
  /// Replays a service built with `options` over `graph` on a pool of
  /// `threads`. A non-empty `wal_path` mirrors the service's journal in
  /// that file (created at epoch 0, as a fresh service does).
  LayerReplay(const cne::BipartiteGraph& graph,
              const cne::ServiceOptions& options,
              int threads, std::string wal_path);

  LayerReplay(const LayerReplay&) = delete;
  LayerReplay& operator=(const LayerReplay&) = delete;

  /// Replays one Submit of `queries`, whose first query drew Laplace
  /// substream `first_stream`, against the service state it produced.
  void Replay(const std::vector<cne::QueryPair>& queries,
              uint64_t first_stream, const cne::QueryService& service,
              const cne::ServiceReport& report, SpanLog* log,
              uint64_t submit_id);

  /// Mirrors a service Checkpoint(): the journal restarts at `epoch`.
  void Checkpointed(uint64_t epoch);

  /// End-of-run reconciliation against the service's ledger and the
  /// view-store counters it reported after the last replayed Submit.
  /// Appends one line per disagreement to `failures`.
  void Reconcile(const cne::QueryService& service,
                 const cne::NoisyViewStore::Stats& stats,
                 std::vector<std::string>& failures) const;

  const LayerCounters& counters() const { return counters_; }

  /// Per-query and per-view disagreements found while replaying.
  uint64_t mismatches() const { return mismatches_; }

  const std::string& wal_path() const { return wal_path_; }

 private:
  bool Released(cne::LayeredVertex v) const;
  void MarkReleased(cne::LayeredVertex v);

  const cne::BipartiteGraph& graph_;
  const cne::ProtocolPlan plan_;
  const cne::DebiasConstants debias_;
  const cne::Rng view_root_;   ///< the store's per-vertex substream parent
  const cne::Rng noise_root_;  ///< the per-query Laplace substream parent
  cne::BudgetLedger ledger_;
  cne::ThreadPool pool_;
  std::vector<bool> released_[2];  ///< indexed by Layer
  std::string wal_path_;
  std::unique_ptr<cne::BudgetWal> wal_;
  uint64_t wal_file_bytes_ = 0;
  LayerCounters counters_;
  uint64_t mismatches_ = 0;
  uint64_t sink_ = 0;  ///< keeps the timed set-op results observable
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
