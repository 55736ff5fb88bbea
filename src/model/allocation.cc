#include "model/allocation.h"

#include <cmath>
#include <span>
#include <sstream>

#include "common/check.h"

namespace dbs {

Allocation::Allocation(const Database& db, ChannelId channels)
    // dbs-lint: contract delegated to the explicit-assignment constructor
    : Allocation(db, channels, std::vector<ChannelId>(db.size(), 0)) {}

Allocation::Allocation(const Database& db, ChannelId channels,
                       std::vector<ChannelId> assignment)
    : db_(&db), channels_(channels), assignment_(std::move(assignment)) {
  DBS_CHECK_MSG(channels_ > 0, "need at least one channel");
  DBS_CHECK_MSG(assignment_.size() == db.size(),
                "assignment covers " << assignment_.size() << " items, database has "
                                     << db.size());
  freq_.assign(channels_, 0.0);
  size_.assign(channels_, 0.0);
  count_.assign(channels_, 0);
  weighted_.assign(channels_, 0.0);
  const std::span<const double> f = db.freqs();
  const std::span<const double> z = db.sizes();
  for (ItemId id = 0; id < assignment_.size(); ++id) {
    const ChannelId c = assignment_[id];
    DBS_CHECK_MSG(c < channels_, "item " << id << " assigned to channel " << c
                                         << " but only " << channels_ << " exist");
    freq_[c] += f[id];
    size_[c] += z[id];
    ++count_[c];
    weighted_[c] += f[id] * z[id];
  }
}

ChannelId Allocation::channel_of(ItemId id) const {
  DBS_CHECK(id < assignment_.size());
  return assignment_[id];
}

double Allocation::freq_of(ChannelId c) const {
  DBS_CHECK(c < channels_);
  return freq_[c];
}

double Allocation::size_of(ChannelId c) const {
  DBS_CHECK(c < channels_);
  return size_[c];
}

std::size_t Allocation::count_of(ChannelId c) const {
  DBS_CHECK(c < channels_);
  return count_[c];
}

double Allocation::weighted_size_of(ChannelId c) const {
  DBS_CHECK(c < channels_);
  return weighted_[c];
}

void Allocation::move(ItemId id, ChannelId to) {
  DBS_CHECK(id < assignment_.size());
  DBS_CHECK(to < channels_);
  const ChannelId from = assignment_[id];
  if (from == to) return;
  const double f = db_->freqs()[id];
  const double z = db_->sizes()[id];
  const double fz = f * z;
  freq_[from] -= f;
  size_[from] -= z;
  --count_[from];
  weighted_[from] -= fz;
  freq_[to] += f;
  size_[to] += z;
  ++count_[to];
  weighted_[to] += fz;
  assignment_[id] = to;
}

double Allocation::channel_cost(ChannelId c) const {
  DBS_CHECK(c < channels_);
  return freq_[c] * size_[c];
}

double Allocation::cost() const {
  double total = 0.0;
  for (ChannelId c = 0; c < channels_; ++c) total += freq_[c] * size_[c];
  return total;
}

double Allocation::cost_recomputed() const {
  std::vector<double> f(channels_, 0.0);
  std::vector<double> z(channels_, 0.0);
  const std::span<const double> item_freq = db_->freqs();
  const std::span<const double> item_size = db_->sizes();
  for (ItemId id = 0; id < assignment_.size(); ++id) {
    f[assignment_[id]] += item_freq[id];
    z[assignment_[id]] += item_size[id];
  }
  double total = 0.0;
  for (ChannelId c = 0; c < channels_; ++c) total += f[c] * z[c];
  return total;
}

double Allocation::move_gain(ItemId id, ChannelId to) const {
  DBS_CHECK(id < assignment_.size());
  DBS_CHECK(to < channels_);
  const ChannelId from = assignment_[id];
  if (from == to) return 0.0;
  const double f = db_->freqs()[id];
  const double z = db_->sizes()[id];
  // Eq. (4): Δc = f_x(Z_p − Z_q) + z_x(F_p − F_q) − 2 f_x z_x,
  // with p = from, q = to, measured *before* the move.
  return f * (size_[from] - size_[to]) + z * (freq_[from] - freq_[to]) -
         2.0 * f * z;
}

std::vector<std::vector<ItemId>> Allocation::members() const {
  std::vector<std::vector<ItemId>> lists(channels_);
  for (ChannelId c = 0; c < channels_; ++c) lists[c].reserve(count_[c]);
  for (ItemId id = 0; id < assignment_.size(); ++id) {
    lists[assignment_[id]].push_back(id);
  }
  return lists;
}

bool Allocation::validate(std::string* error) const {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (assignment_.size() != db_->size()) return fail("assignment size mismatch");
  std::vector<double> f(channels_, 0.0);
  std::vector<double> z(channels_, 0.0);
  std::vector<std::size_t> n(channels_, 0);
  std::vector<double> p(channels_, 0.0);
  for (ItemId id = 0; id < assignment_.size(); ++id) {
    const ChannelId c = assignment_[id];
    if (c >= channels_) {
      std::ostringstream os;
      os << "item " << id << " assigned to out-of-range channel " << c;
      return fail(os.str());
    }
    f[c] += db_->freqs()[id];
    z[c] += db_->sizes()[id];
    ++n[c];
    p[c] += db_->freqs()[id] * db_->sizes()[id];
  }
  constexpr double kTol = 1e-9;
  for (ChannelId c = 0; c < channels_; ++c) {
    if (n[c] != count_[c] || std::abs(f[c] - freq_[c]) > kTol ||
        std::abs(z[c] - size_[c]) > kTol * (1.0 + z[c]) ||
        std::abs(p[c] - weighted_[c]) > kTol * (1.0 + p[c])) {
      std::ostringstream os;
      os << "cached aggregates for channel " << c << " diverge from recomputation";
      return fail(os.str());
    }
  }
  return true;
}

}  // namespace dbs
