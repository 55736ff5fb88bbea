#include "api/planner.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "obs/obs.h"

namespace dbs {

PlanResult plan_channel_count(const Database& db, double total_bandwidth,
                              ChannelId max_channels) {
  DBS_OBS_SPAN("api.planner.plan");
  DBS_CHECK(total_bandwidth > 0.0);
  DBS_CHECK(max_channels >= 1);
  // Matches schedule()'s contract, and guarantees the sweep below runs at
  // least once — without it an empty catalogue would fall through to a
  // std::nullopt dereference.
  DBS_CHECK_MSG(db.size() > 0, "plan_channel_count() needs a non-empty catalogue");
  // Take the min in std::size_t: casting db.size() to ChannelId first could
  // truncate a huge catalogue to a smaller limit (or even to zero).
  const auto limit =
      static_cast<ChannelId>(std::min<std::size_t>(max_channels, db.size()));

  std::optional<ScheduleResult> best;
  ChannelId best_k = 1;
  std::vector<PlanPoint> sweep;
  sweep.reserve(limit);

  for (ChannelId k = 1; k <= limit; ++k) {
    DBS_OBS_SPAN("api.planner.sweep_k");
    ScheduleRequest request;  // DRP-CDS
    request.channels = k;
    request.bandwidth = total_bandwidth / static_cast<double>(k);
    ScheduleResult result = schedule(db, request);
    sweep.push_back(PlanPoint{k, request.bandwidth, result.waiting_time});
    if (!best.has_value() || result.waiting_time < best->waiting_time) {
      best = std::move(result);
      best_k = k;
    }
  }

  DBS_OBS_COUNTER_INC("api.planner.runs");
  DBS_OBS_COUNTER_ADD("api.planner.k_evaluated", limit);
  DBS_OBS_GAUGE_SET("api.planner.best_k", best_k);
  DBS_CHECK_MSG(best.has_value(), "planner sweep ran zero iterations");
  return PlanResult{std::move(*best), best_k, std::move(sweep)};
}

}  // namespace dbs
