#include "replication/replicate.h"

#include <algorithm>

#include "common/check.h"
#include "replication/min_wait.h"

namespace dbs {
namespace {

// Wait reduction a copy must bring to be added; smaller gains are
// floating-point noise, not an improvement.
constexpr double kMinGain = 1e-9;

/// Incremental analytic evaluator over a mutable placement. Keeps per-channel
/// cycle times and per-item copy sets; recomputes only what a candidate copy
/// touches.
class Evaluator {
 public:
  Evaluator(const Database& db, const Allocation& alloc, double bandwidth)
      : db_(db), bandwidth_(bandwidth), cycle_(alloc.channels(), 0.0),
        copies_(db.size()), members_(alloc.members()) {
    for (ItemId id = 0; id < db.size(); ++id) {
      const ChannelId c = alloc.channel_of(id);
      copies_[id].push_back(c);
      cycle_[c] += db.item(id).size / bandwidth_;
    }
  }

  double item_wait(ItemId id) const {
    std::vector<double> cycles;
    cycles.reserve(copies_[id].size());
    for (ChannelId c : copies_[id]) cycles.push_back(cycle_[c]);
    return db_.item(id).size / bandwidth_ + expected_min_uniform(std::move(cycles));
  }

  double total_wait() const {
    double w = 0.0;
    for (ItemId id = 0; id < db_.size(); ++id) w += db_.item(id).freq * item_wait(id);
    return w;
  }

  bool has_copy(ItemId id, ChannelId c) const {
    return std::find(copies_[id].begin(), copies_[id].end(), c) != copies_[id].end();
  }

  std::size_t copy_count(ItemId id) const { return copies_[id].size(); }

  /// Exact change in total wait if `id` gains a copy on channel `c`
  /// (negative = improvement). Only items on `c` plus `id` are affected.
  double delta_if_copied(ItemId id, ChannelId c) const {
    const double grown = cycle_[c] + db_.item(id).size / bandwidth_;
    double delta = 0.0;
    // Items already on channel c: their copy on c slows down.
    for (ItemId member : members_[c]) {
      if (member == id) continue;
      delta += db_.item(member).freq *
               (wait_with_cycle(member, c, grown) - item_wait(member));
    }
    // The replicated item itself: gains the new (grown) channel as an option.
    std::vector<double> cycles;
    cycles.reserve(copies_[id].size() + 1);
    for (ChannelId own : copies_[id]) cycles.push_back(cycle_[own]);
    cycles.push_back(grown);
    const double new_wait =
        db_.item(id).size / bandwidth_ + expected_min_uniform(std::move(cycles));
    delta += db_.item(id).freq * (new_wait - item_wait(id));
    return delta;
  }

  void apply_copy(ItemId id, ChannelId c) {
    copies_[id].push_back(c);
    members_[c].push_back(id);
    cycle_[c] += db_.item(id).size / bandwidth_;
  }

  Placement placement() const {
    Placement p(members_.size());
    for (ChannelId c = 0; c < members_.size(); ++c) {
      p[c] = members_[c];
      std::sort(p[c].begin(), p[c].end());
    }
    return p;
  }

 private:
  /// item_wait(member) with channel `c`'s cycle replaced by `cycle_override`.
  double wait_with_cycle(ItemId member, ChannelId c, double cycle_override) const {
    std::vector<double> cycles;
    cycles.reserve(copies_[member].size());
    for (ChannelId own : copies_[member]) {
      cycles.push_back(own == c ? cycle_override : cycle_[own]);
    }
    return db_.item(member).size / bandwidth_ +
           expected_min_uniform(std::move(cycles));
  }

  const Database& db_;
  double bandwidth_;
  std::vector<double> cycle_;
  std::vector<std::vector<ChannelId>> copies_;
  std::vector<std::vector<ItemId>> members_;
};

}  // namespace

ReplicationResult replicate_greedy(const Allocation& alloc, double bandwidth,
                                   const ReplicationOptions& options) {
  DBS_CHECK(bandwidth > 0.0);
  DBS_CHECK(options.max_copies_per_item >= 1);
  const Database& db = alloc.database();
  Evaluator eval(db, alloc, bandwidth);

  ReplicationResult result;
  result.base_wait = eval.total_wait();

  while (result.copies_added < options.max_total_copies) {
    ItemId best_item = 0;
    ChannelId best_channel = 0;
    double best_delta = 0.0;
    bool have = false;
    for (ItemId id = 0; id < db.size(); ++id) {
      if (eval.copy_count(id) >= options.max_copies_per_item) continue;
      for (ChannelId c = 0; c < alloc.channels(); ++c) {
        if (eval.has_copy(id, c)) continue;
        const double delta = eval.delta_if_copied(id, c);
        if (!have || delta < best_delta) {
          have = true;
          best_delta = delta;
          best_item = id;
          best_channel = c;
        }
      }
    }
    if (!have || best_delta > -kMinGain) break;
    eval.apply_copy(best_item, best_channel);
    ++result.copies_added;
  }

  result.placement = eval.placement();
  result.replicated_wait = eval.total_wait();
  return result;
}

}  // namespace dbs
