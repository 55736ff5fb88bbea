#include "serve/server_loop.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/drp_cds.h"
#include "model/cost.h"
#include "obs/obs.h"

namespace dbs {

ProgramSnapshot::ProgramSnapshot(Database database, ChannelId channels,
                                 std::vector<ChannelId> assignment,
                                 std::size_t version, double bandwidth)
    : db(std::move(database)),
      alloc(db, channels, std::move(assignment)),
      version(version),
      cost(alloc.cost()),
      waiting_time(program_waiting_time(alloc, bandwidth)) {}

BroadcastServerLoop::BroadcastServerLoop(std::vector<double> item_sizes,
                                         const ServerLoopConfig& config)
    : config_(config), sizes_(std::move(item_sizes)),
      tracker_(sizes_.size(), config.tracker_decay, kLaplaceAlpha) {
  DBS_CHECK(config.bandwidth > 0.0);
  DBS_CHECK_MSG(config.channels <= sizes_.size(),
                "cannot fill more channels than items");
  const MutexLock lock(mutex_);
  Database initial = rebuild_database();
  DrpCdsResult planned = run_drp_cds(initial, config_.channels);
  reference_cost_ = planned.final_cost;
  publish(std::make_shared<const ProgramSnapshot>(
      std::move(initial), config_.channels, planned.allocation.assignment(),
      epoch_, config_.bandwidth));
}

void BroadcastServerLoop::publish(std::shared_ptr<const ProgramSnapshot> next) {
  const MutexLock lock(publish_mutex_);
  published_ = std::move(next);
}

Database BroadcastServerLoop::rebuild_database() const {
  return Database(sizes_, tracker_.frequencies());
}

EpochReport BroadcastServerLoop::observe_window(const std::vector<Request>& window) {
  DBS_OBS_SPAN("serve.epoch");
  const MutexLock lock(mutex_);
  Database fresh = [&] {
    DBS_OBS_SPAN("serve.epoch.estimate");
    tracker_.observe(window);
    return rebuild_database();
  }();
  const std::shared_ptr<const ProgramSnapshot> current = snapshot();

  // Repair: carry the on-air assignment into the new popularity estimate and
  // let CDS fix it up from where it stands — the steady-state cheap path.
  Stopwatch repair_watch;
  RepairResult repaired = [&] {
    DBS_OBS_SPAN("serve.epoch.repair");
    return repair_assignment(fresh, config_.channels,
                             current->alloc.assignment());
  }();
  const double repair_ms = repair_watch.millis();

  EpochReport report;
  report.epoch = ++epoch_;
  report.requests = window.size();
  report.repaired_cost = repaired.final_cost;
  report.repair_moves = repaired.cds.iterations;
  report.repair_ms = repair_ms;
  report.estimator_staleness = tracker_.effective_windows();
  report.reference_cost = reference_cost_;
  report.cost_excess = repaired.final_cost / reference_cost_ - 1.0;
  report.escalated = report.cost_excess >= kEscalateThreshold;

  double chosen_cost = repaired.final_cost;
  if (report.escalated) {
    Stopwatch rebuild_watch;
    DrpCdsResult rebuilt = [&] {
      DBS_OBS_SPAN("serve.epoch.rebuild");
      return run_drp_cds(fresh, config_.channels);
    }();
    report.rebuild_ms = rebuild_watch.millis();
    report.rebuilt_cost = rebuilt.final_cost;
    report.adopted_rebuild =
        rebuilt.final_cost < repaired.final_cost * (1.0 - kAdoptMargin);
    if (report.adopted_rebuild) {
      repaired.allocation = std::move(rebuilt.allocation);
      chosen_cost = rebuilt.final_cost;
    }
    // Whether adopted or not, the escalation measured the truly achievable
    // cost on this estimate: resetting the reference to it stops the trigger
    // from re-firing every epoch after drift genuinely raised the optimum.
    reference_cost_ = std::min(repaired.final_cost, rebuilt.final_cost);
  } else if (chosen_cost < reference_cost_) {
    reference_cost_ = chosen_cost;  // new best-known
  } else {
    // Decayed best-known reference: relax toward the observed cost so slow
    // genuine drift stops registering as regression eventually.
    reference_cost_ = (1.0 - kReferenceDecay) * reference_cost_ +
                      kReferenceDecay * chosen_cost;
  }

  DBS_OBS_COUNTER_INC("serve.epochs");
  DBS_OBS_COUNTER_ADD("serve.requests_observed", window.size());
  DBS_OBS_COUNTER_ADD("serve.repair_moves", report.repair_moves);
  if (report.escalated) {
    DBS_OBS_COUNTER_INC("serve.escalations");
    DBS_OBS_HISTOGRAM_OBSERVE("serve.rebuild_ms", report.rebuild_ms);
  }
  if (report.adopted_rebuild) DBS_OBS_COUNTER_INC("serve.rebuild_adoptions");
  DBS_OBS_HISTOGRAM_OBSERVE("serve.repair_ms", repair_ms);
  DBS_OBS_GAUGE_SET("serve.reference_cost", reference_cost_);
  DBS_OBS_GAUGE_SET("serve.cost_excess", report.cost_excess);
  DBS_OBS_GAUGE_SET("serve.estimator.effective_windows",
                    report.estimator_staleness);

  // Publish the chosen program as a fresh immutable snapshot (RCU hand-off):
  // the snapshot owns its own Database copy, so readers holding the old
  // version keep a consistent db+alloc pair while new readers see this one.
  auto next = std::make_shared<const ProgramSnapshot>(
      std::move(fresh), config_.channels, repaired.allocation.assignment(),
      epoch_, config_.bandwidth);
  report.version = next->version;
  report.waiting_time = next->waiting_time;
  publish(std::move(next));
  return report;
}

}  // namespace dbs
