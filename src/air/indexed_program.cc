#include "air/indexed_program.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace dbs {

IndexedProgram::IndexedProgram(const Allocation& alloc, double bandwidth,
                               const IndexConfig& config, bool optimal_m)
    : db_(&alloc.database()), bandwidth_(bandwidth),
      index_time_(config.index_size / bandwidth),
      header_time_(config.header_size / bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  DBS_CHECK(config.index_size > 0.0);
  DBS_CHECK(config.header_size >= 0.0);
  DBS_CHECK(config.replication >= 1);

  const ChannelId k = alloc.channels();
  cycle_.assign(k, 0.0);
  layout_.resize(k);
  item_channel_.assign(db_->size(), 0);
  item_slot_.assign(db_->size(), 0);

  const std::vector<std::vector<ItemId>> members = alloc.members();
  for (ChannelId c = 0; c < k; ++c) {
    const std::vector<ItemId>& ids = members[c];
    if (ids.empty()) continue;
    std::size_t m = config.replication;
    if (optimal_m) m = optimal_replication(alloc, c, bandwidth, config);
    m = std::max<std::size_t>(1, std::min(m, ids.size()));

    // Interleave: before starting each of m roughly equal-time data runs,
    // transmit one index segment.
    const double data_time = alloc.size_of(c) / bandwidth;
    const double run_target = data_time / static_cast<double>(m);

    ChannelLayout& layout = layout_[c];
    double offset = 0.0;
    std::size_t next_item = 0;
    for (std::size_t seg = 0; seg < m; ++seg) {
      layout.index_starts.push_back(offset);
      offset += index_time_;
      double run = 0.0;
      while (next_item < ids.size() &&
             (run < run_target || seg + 1 == m)) {
        const ItemId id = ids[next_item++];
        item_channel_[id] = c;
        item_slot_[id] = layout.items.size();
        layout.items.push_back(id);
        layout.item_starts.push_back(offset);
        const double duration = db_->item(id).size / bandwidth_;
        offset += duration;
        run += duration;
      }
    }
    DBS_CHECK(next_item == ids.size());
    cycle_[c] = offset;
  }
}

double IndexedProgram::cycle_time(ChannelId c) const {
  DBS_CHECK(c < cycle_.size());
  return cycle_[c];
}

std::size_t IndexedProgram::replication_of(ChannelId c) const {
  DBS_CHECK(c < layout_.size());
  return layout_[c].index_starts.size();
}

double IndexedProgram::next_occurrence(double offset, double cycle, double t) {
  const double m = std::ceil((t - offset) / cycle);
  return offset + std::max(0.0, m) * cycle;
}

IndexedRequestOutcome IndexedProgram::replay_request(ItemId item, double t) const {
  DBS_CHECK(item < item_channel_.size());
  DBS_CHECK(t >= 0.0);
  const ChannelId c = item_channel_[item];
  const ChannelLayout& layout = layout_[c];
  const double cycle = cycle_[c];
  DBS_CHECK_MSG(cycle > 0.0, "item on an empty channel");

  // Step 1: read the current bucket header to locate the next index segment.
  const double after_header = t + header_time_;
  double index_start = std::numeric_limits<double>::infinity();
  for (double offset : layout.index_starts) {
    index_start = std::min(index_start, next_occurrence(offset, cycle, after_header));
  }

  // Step 2: read that index segment.
  const double after_index = index_start + index_time_;

  // Step 3: doze until the item's next start at or after the index read.
  const double item_start =
      next_occurrence(layout.item_starts[item_slot_[item]], cycle, after_index);
  const double duration = db_->item(item).size / bandwidth_;
  const double done = item_start + duration;

  IndexedRequestOutcome outcome;
  outcome.access = done - t;
  outcome.tuning = header_time_ + index_time_ + duration;
  return outcome;
}

IndexedSimReport IndexedProgram::replay(const std::vector<Request>& trace) const {
  std::vector<double> access;
  std::vector<double> tuning;
  access.reserve(trace.size());
  tuning.reserve(trace.size());
  for (const Request& r : trace) {
    const IndexedRequestOutcome outcome = replay_request(r.item, r.time);
    access.push_back(outcome.access);
    tuning.push_back(outcome.tuning);
  }
  IndexedSimReport report;
  report.requests = trace.size();
  report.access = summarize(access);
  report.tuning = summarize(tuning);
  return report;
}

}  // namespace dbs
