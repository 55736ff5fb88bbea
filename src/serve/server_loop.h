// The operational broadcast-server loop of the paper's Figure 1, grown into
// an online re-allocation service (DESIGN.md §12): the server streams the
// access patterns of mobile users into a decayed-count estimate and keeps
// the program on air near-optimal with *incremental* repair, escalating to
// a full rebuild only when repair demonstrably stops being good enough.
//
// Each epoch:
//   1. fold the observed request window into the DecayedFrequencyTracker
//      (decayed raw counts, Laplace smoothing) and re-derive the database;
//   2. repair the carried-over assignment with CDS moves from where it is
//      (core/drp_cds.h repair_assignment) — the cheap steady-state path;
//   3. compare the repaired cost against a decayed best-known reference
//      cost; only when it is kEscalateThreshold or more above it, run the
//      full DRP-CDS rebuild and adopt it if it beats the repair by
//      kAdoptMargin — so steady-state epochs never pay for a rebuild;
//   4. publish the chosen program as a fresh immutable versioned snapshot.
//
// Concurrency model (DESIGN.md §11): the estimator and control-loop state
// are guarded by a single writer mutex (compiler-checked via the
// DBS_GUARDED_BY contracts below), while the program on air is published as
// an immutable, versioned ProgramSnapshot in a slot guarded by a dedicated
// publish mutex that is only ever held for the O(1) shared_ptr copy/swap —
// an RCU-style hand-off. Readers copy the snapshot pointer in that micro
// critical section and keep the snapshot alive for as long as they hold the
// shared_ptr; the epoch's actual work (estimation, repair, rebuild) runs
// entirely outside the publish mutex, so a concurrent observe_window()
// never blocks readers on computation and never mutates a snapshot they can
// see. Snapshot versions are strictly monotone across publishes. (A
// std::atomic<std::shared_ptr> would make the read truly lock-free, but
// libstdc++'s _Sp_atomic spinlock predates its TSan annotations on the
// oldest toolchain this repo supports, so the annotated Mutex slot is the
// contract the sanitizers and -Wthread-safety can check.)
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "model/allocation.h"
#include "model/database.h"
#include "workload/estimate.h"
#include "workload/trace.h"

namespace dbs {

/// Server-loop configuration: the channel plan plus the one estimator
/// setting that depends on the deployment.
struct ServerLoopConfig {
  ChannelId channels = 6;
  double bandwidth = 10.0;
  /// Per-window count decay ρ of the popularity estimate, in (0, 1]. How
  /// fast a deployment's popularity drifts, and so how much history the
  /// estimate should keep, is something only the deployment can observe.
  double tracker_decay = 0.5;
};

/// Per-epoch record.
struct EpochReport {
  std::size_t epoch = 0;
  std::size_t requests = 0;
  double repaired_cost = 0.0;   ///< after CDS repair of the carried program
  std::size_t repair_moves = 0;
  double waiting_time = 0.0;    ///< W_b of the program now on air

  /// Control-loop state (DESIGN.md §12): the decayed best-known reference
  /// cost the trigger compared against, and the repaired cost's relative
  /// excess over it (repaired/reference − 1) *before* this epoch's outcome
  /// was folded back into the reference.
  double reference_cost = 0.0;
  double cost_excess = 0.0;

  /// Escalation outcome: `escalated` iff cost_excess ≥ kEscalateThreshold.
  /// rebuilt_cost and rebuild_ms are meaningful only when `escalated` —
  /// steady-state epochs never run the rebuild and report both as 0.
  bool escalated = false;
  double rebuilt_cost = 0.0;    ///< full DRP-CDS from scratch (escalated only)
  bool adopted_rebuild = false;

  /// Estimator staleness: how many windows the decayed counts effectively
  /// remember (DecayedFrequencyTracker::effective_windows).
  double estimator_staleness = 0.0;

  /// Version of the snapshot this epoch published (strictly monotone).
  std::size_t version = 0;

  /// Wall time of the CDS repair step (Stopwatch, milliseconds).
  double repair_ms = 0.0;
  /// Wall time of the DRP-CDS rebuild (0 when the epoch did not escalate).
  double rebuild_ms = 0.0;
};

/// Immutable program version: the database the program was planned against,
/// the allocation on air (bound to that database), its version number, its
/// cost and waiting time. Snapshots are built once, published by swapping
/// the guarded shared_ptr slot, and never mutated afterwards — any number of
/// concurrent readers can hold one while the server moves on.
struct ProgramSnapshot {
  /// Builds the snapshot and binds `alloc` to the stored `db` copy.
  ProgramSnapshot(Database database, ChannelId channels,
                  std::vector<ChannelId> assignment, std::size_t version,
                  double bandwidth);

  // alloc references db by address, so a snapshot must never be copied or
  // moved — it lives and dies inside its shared_ptr.
  ProgramSnapshot(const ProgramSnapshot&) = delete;
  ProgramSnapshot& operator=(const ProgramSnapshot&) = delete;

  const Database db;
  const Allocation alloc;        ///< bound to this->db
  /// Publication version, strictly monotone across publishes; equals the
  /// epoch that produced the snapshot (version 0 is the initial program).
  const std::size_t version;
  const double cost;             ///< alloc.cost() recorded at build time
  const double waiting_time;     ///< W_b of alloc at the config bandwidth
};

/// Long-running server: owns the catalogue sizes, the popularity estimate,
/// the repair/rebuild control loop and the published program versions.
/// observe_window() is the single writer (safe to call from any one thread
/// at a time; the mutex makes concurrent callers serialize rather than
/// race); snapshot() is the one read path, safe from any thread.
class BroadcastServerLoop {
 public:
  /// Escalate when the repaired cost is at least 5% above the reference:
  /// the estimate's window-to-window noise under steady traffic stays
  /// below that, while a real popularity shift crosses it within a few
  /// epochs (both pinned by tests/drift_serve_test.cc).
  static constexpr double kEscalateThreshold = 0.05;
  /// Adopt a rebuild only if it is at least 1% cheaper than the repair:
  /// two local optima closer than that are equally good, and switching
  /// would move items between channels (clients re-tune) for nothing.
  static constexpr double kAdoptMargin = 0.01;
  /// When a non-escalated epoch's cost lands above the reference, the
  /// reference moves toward it by this weight, so a slow genuine rise of
  /// the achievable cost stops reading as regression after about 1/0.05 =
  /// 20 epochs instead of escalating every epoch.
  static constexpr double kReferenceDecay = 0.05;
  /// Laplace smoothing mass per item (the add-one rule): every item keeps
  /// a positive frequency, so it stays on air before anyone requests it,
  /// and one pseudo-request per item is small next to a window's traffic.
  static constexpr double kLaplaceAlpha = 1.0;

  /// Starts from a uniform popularity estimate over the given item sizes and
  /// an initial DRP-CDS program (published as snapshot version 0).
  BroadcastServerLoop(std::vector<double> item_sizes, const ServerLoopConfig& config);

  /// Feeds one observed request window; returns what the server did. Takes
  /// the writer mutex for the whole epoch and publishes the chosen program
  /// as a fresh immutable snapshot before returning. A window naming an
  /// unknown item throws ContractViolation and leaves the loop unchanged.
  EpochReport observe_window(const std::vector<Request>& window)
      DBS_EXCLUDES(mutex_);

  /// The program currently on air, as an immutable shared snapshot. Safe to
  /// call from any thread; the critical section is one shared_ptr copy, so
  /// readers never wait on an epoch's computation. The returned snapshot
  /// stays valid (and unchanged) for as long as the caller holds it.
  std::shared_ptr<const ProgramSnapshot> snapshot() const
      DBS_EXCLUDES(publish_mutex_) {
    const MutexLock lock(publish_mutex_);
    return published_;
  }

  const ServerLoopConfig& config() const { return config_; }

 private:
  Database rebuild_database() const DBS_REQUIRES(mutex_);

  /// Swaps the published snapshot slot (the only place publish_mutex_ is
  /// taken on the writer side — an O(1) pointer move).
  void publish(std::shared_ptr<const ProgramSnapshot> next)
      DBS_EXCLUDES(publish_mutex_);

  // Concurrency contract: config_ and sizes_ are immutable after
  // construction; the estimator, epoch counter and reference cost belong to
  // the writer and are guarded by mutex_; published_ is the RCU hand-off
  // slot readers copy from under publish_mutex_, which is never held across
  // any computation. Lock order: mutex_ before publish_mutex_; readers take
  // publish_mutex_ alone.
  const ServerLoopConfig config_;
  const std::vector<double> sizes_;
  mutable Mutex mutex_;
  DecayedFrequencyTracker tracker_ DBS_GUARDED_BY(mutex_);
  std::size_t epoch_ DBS_GUARDED_BY(mutex_) = 0;
  double reference_cost_ DBS_GUARDED_BY(mutex_) = 0.0;
  mutable Mutex publish_mutex_;
  std::shared_ptr<const ProgramSnapshot> published_ DBS_GUARDED_BY(publish_mutex_);
};

}  // namespace dbs
