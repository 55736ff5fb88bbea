#include "model/database.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace dbs {

Database::Database(std::vector<Item> items) {
  freq_.reserve(items.size());
  size_.reserve(items.size());
  for (const Item& it : items) {
    size_.push_back(it.size);
    freq_.push_back(it.freq);
  }
  validate_and_normalize();
}

Database::Database(const std::vector<double>& sizes, const std::vector<double>& freqs)
    : freq_(freqs), size_(sizes) {
  DBS_CHECK_MSG(sizes.size() == freqs.size(),
                "sizes (" << sizes.size() << ") and freqs (" << freqs.size()
                          << ") must be parallel");
  validate_and_normalize();
}

void Database::validate_and_normalize() {
  DBS_CHECK_MSG(!freq_.empty(), "a broadcast database needs at least one item");
  double freq_sum = 0.0;
  for (std::size_t i = 0; i < freq_.size(); ++i) {
    DBS_CHECK_MSG(std::isfinite(size_[i]) && size_[i] > 0.0,
                  "item " << i << " has non-finite or non-positive size " << size_[i]);
    DBS_CHECK_MSG(std::isfinite(freq_[i]) && freq_[i] >= 0.0,
                  "item " << i << " has non-finite or negative frequency " << freq_[i]);
    freq_sum += freq_[i];
  }
  DBS_CHECK_MSG(freq_sum > 0.0, "total access frequency must be positive");

  // The benefit order and its prefix sums are part of the catalogue: every
  // scheduler run shares this one sort instead of re-deriving it (the sort
  // used to dominate DRP's measured wall time at N = 10^6). The ratio f/z is
  // only the sort key; it lives in this block, so its memory is free again
  // before the prefix sums allocate theirs.
  total_size_ = 0.0;
  weighted_size_ = 0.0;
  {
    std::vector<double> ratio(freq_.size());
    for (std::size_t i = 0; i < freq_.size(); ++i) {
      freq_[i] /= freq_sum;
      total_size_ += size_[i];
      weighted_size_ += freq_[i] * size_[i];
      ratio[i] = freq_[i] / size_[i];
    }
    benefit_order_.resize(freq_.size());
    std::iota(benefit_order_.begin(), benefit_order_.end(), 0);
    std::stable_sort(benefit_order_.begin(), benefit_order_.end(),
                     [&ratio](ItemId a, ItemId b) {
                       if (ratio[a] != ratio[b]) return ratio[a] > ratio[b];
                       return a < b;
                     });
  }
  benefit_prefix_ = PrefixSums(*this, benefit_order_);
}

Item Database::item(ItemId id) const {
  DBS_CHECK_MSG(id < freq_.size(), "item id " << id << " out of range");
  return Item{id, size_[id], freq_[id]};
}

std::vector<Item> Database::items() const {
  std::vector<Item> rows;
  rows.reserve(freq_.size());
  for (std::size_t i = 0; i < freq_.size(); ++i) {
    rows.push_back(Item{static_cast<ItemId>(i), size_[i], freq_[i]});
  }
  return rows;
}

std::vector<ItemId> Database::ids_by_freq_desc() const {
  std::vector<ItemId> ids(freq_.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [this](ItemId a, ItemId b) {
    if (freq_[a] != freq_[b]) return freq_[a] > freq_[b];
    return a < b;
  });
  return ids;
}

}  // namespace dbs
