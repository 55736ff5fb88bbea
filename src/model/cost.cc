#include "model/cost.h"

#include "common/check.h"

namespace dbs {

double item_waiting_time(const Allocation& alloc, ItemId id, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  const ChannelId c = alloc.channel_of(id);
  const Item& it = alloc.database().item(id);
  return alloc.size_of(c) / (2.0 * bandwidth) + it.size / bandwidth;
}

double channel_waiting_time(const Allocation& alloc, ChannelId c, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  const double f = alloc.freq_of(c);
  if (f <= 0.0) return 0.0;
  // W^(i) = Z_i/(2b) + P_i / (b F_i), with P_i = Σ f_j z_j over the channel.
  return alloc.size_of(c) / (2.0 * bandwidth) +
         alloc.weighted_size_of(c) / (bandwidth * f);
}

double program_waiting_time(const Allocation& alloc, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  return probe_component(alloc, bandwidth) +
         download_component(alloc.database(), bandwidth);
}

double download_component(const Database& db, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  return db.weighted_size() / bandwidth;
}

double probe_component(const Allocation& alloc, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  return alloc.cost() / (2.0 * bandwidth);
}

}  // namespace dbs
