#include "serve/server_loop.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/multilevel.h"
#include "core/relabel.h"
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
      tracker_(sizes_.size(), config.tracker_decay) {
  DBS_CHECK(config.bandwidth > 0.0);
  DBS_CHECK_MSG(config.channels <= sizes_.size(),
                "cannot fill more channels than items");
  const MutexLock lock(mutex_);
  Database initial = rebuild_database();
  std::vector<ChannelId> planned =
      run_multilevel(initial, config_.channels).allocation.assignment();
  publish(std::make_shared<const ProgramSnapshot>(
      std::move(initial), config_.channels, std::move(planned), epoch_,
      config_.bandwidth));
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
  const std::vector<ChannelId>& on_air = current->alloc.assignment();

  // Re-plan from scratch, then rename the plan's channels after the on-air
  // channels they overlap most: labels are arbitrary, so only the items the
  // plan really regrouped change channel.
  EpochReport report;
  Stopwatch replan_watch;
  std::vector<ChannelId> planned = [&] {
    DBS_OBS_SPAN("serve.epoch.replan");
    MultilevelResult plan = run_multilevel(fresh, config_.channels);
    report.repair_moves = plan.cds.iterations;
    std::vector<ChannelId> assignment = plan.allocation.assignment();
    const std::vector<ChannelId> label =
        match_channels(on_air, assignment, config_.channels);
    for (ChannelId& c : assignment) c = label[c];
    return assignment;
  }();
  report.repair_ms = replan_watch.millis();

  std::size_t moved = 0;
  for (std::size_t x = 0; x < planned.size(); ++x) {
    if (planned[x] != on_air[x]) ++moved;
  }
  report.epoch = ++epoch_;
  report.requests = window.size();
  report.churn = static_cast<double>(moved) / static_cast<double>(planned.size());
  report.estimator_staleness = tracker_.effective_windows();

  DBS_OBS_COUNTER_INC("serve.epochs");
  DBS_OBS_COUNTER_ADD("serve.requests_observed", window.size());
  DBS_OBS_COUNTER_ADD("serve.repair_moves", report.repair_moves);
  DBS_OBS_HISTOGRAM_OBSERVE("serve.repair_ms", report.repair_ms);
  DBS_OBS_GAUGE_SET("serve.churn", report.churn);
  DBS_OBS_GAUGE_SET("serve.estimator.effective_windows",
                    report.estimator_staleness);

  // Publish as a fresh immutable snapshot (RCU hand-off): the snapshot owns
  // its own Database copy, so readers holding the old version keep a
  // consistent db+alloc pair while new readers see this one.
  {
    DBS_OBS_SPAN("serve.epoch.publish");
    auto next = std::make_shared<const ProgramSnapshot>(
        std::move(fresh), config_.channels, std::move(planned), epoch_,
        config_.bandwidth);
    report.version = next->version;
    report.waiting_time = next->waiting_time;
    publish(std::move(next));
  }
  return report;
}

}  // namespace dbs
