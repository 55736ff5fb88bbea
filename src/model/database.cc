#include "model/database.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"

namespace dbs {
namespace {

/// Radix key of a non-negative double: ascending keys list the values in
/// descending order. A non-negative double orders like its bit pattern once
/// −0.0 is folded into +0.0, so the key is that pattern complemented.
std::uint64_t descending_key(double value) {
  return ~std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value);
}

/// Fills `ids` with the item ids 0..n−1 (n ≥ 1) sorted by ascending
/// `key(id)`, ties broken by id: the order std::stable_sort gives. Keys are
/// computed from the id wherever they are needed, so no key column is ever
/// allocated. Returns whether it had to sort: keys that already arrive in
/// order (every multilevel coarse level's benefit ratios do) leave the
/// identity.
///
/// Otherwise each id replaces the lowest bit_width(n − 1) bits of its key,
/// and a stable LSD radix sort orders these one-word records by their
/// remaining high bits: the records start in id order, so equal high bits
/// keep ascending ids. Moving 8-byte records instead of a key and an id
/// saves a pass and a write stream per bucket (about half the time at
/// N = 10⁶). Records whose high bits tie are then put in full-key order,
/// one run at a time; on a 10⁶-item Zipf catalogue that is 14 pairs.
/// Digits are 11 bits wide at every n: a pass writes 2048 buckets, and the
/// histograms of all passes take at most 48 KiB. Adds the scatter passes it
/// runs to `passes`; the callers publish them as
/// `model.database.radix_passes` (an add in here slowed the sort's loops by
/// about a fifth at N = 10⁶ in a GCC 12 -O3 build).
template <class KeyOf>
bool sort_ids_by_key(std::size_t n, KeyOf key, std::vector<ItemId>& ids, int& passes) {
  ids.resize(n);
  std::size_t ascending = 1;
  for (std::uint64_t previous = key(0); ascending < n; ++ascending) {
    const std::uint64_t next = key(ascending);
    if (next < previous) break;
    previous = next;
  }
  if (ascending == n) {
    std::iota(ids.begin(), ids.end(), 0);
    return false;
  }

  const int id_bits = static_cast<int>(std::bit_width(n - 1));
  const std::uint64_t id_mask = (std::uint64_t{1} << id_bits) - 1;
  constexpr int digit_bits = 11;
  const int digits = (64 - id_bits + digit_bits - 1) / digit_bits;
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const std::uint64_t digit_mask = buckets - 1;
  std::vector<std::uint32_t> counts(digits * buckets, 0);
  std::vector<std::uint64_t> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i] = (key(i) & ~id_mask) | i;
    for (int d = 0; d < digits; ++d) {
      ++counts[d * buckets + ((records[i] >> (id_bits + d * digit_bits)) & digit_mask)];
    }
  }
  std::vector<std::uint64_t> scratch(n);
  for (int d = 0; d < digits; ++d) {
    const int shift = id_bits + d * digit_bits;
    std::uint32_t* offset = counts.data() + d * buckets;
    // A digit every record shares would leave the order as it is.
    if (offset[(records[0] >> shift) & digit_mask] == n) continue;
    std::exclusive_scan(offset, offset + buckets, offset, std::uint32_t{0});
    for (const std::uint64_t record : records) {
      scratch[offset[(record >> shift) & digit_mask]++] = record;
    }
    records.swap(scratch);
    ++passes;
  }

  const auto by_key = [&](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t key_a = key(a & id_mask);
    const std::uint64_t key_b = key(b & id_mask);
    return key_a != key_b ? key_a < key_b : a < b;
  };
  for (std::size_t begin = 0; begin < n;) {
    std::size_t end = begin + 1;
    while (end < n && (records[end] >> id_bits) == (records[begin] >> id_bits)) ++end;
    if (end - begin > 1) std::sort(records.begin() + begin, records.begin() + end, by_key);
    for (; begin < end; ++begin) ids[begin] = static_cast<ItemId>(records[begin] & id_mask);
  }
  return true;
}

}  // namespace

Database::Database(std::vector<double> sizes, std::vector<double> freqs)
    : freq_(std::move(freqs)), size_(std::move(sizes)) {
  DBS_OBS_SPAN("model.database.build");
  DBS_CHECK_MSG(size_.size() == freq_.size(),
                "sizes (" << size_.size() << ") and freqs (" << freq_.size()
                          << ") must be parallel");
  DBS_CHECK_MSG(!freq_.empty(), "a broadcast database needs at least one item");
  const std::size_t n = freq_.size();
  double freq_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    DBS_CHECK_MSG(std::isfinite(size_[i]) && size_[i] > 0.0,
                  "item " << i << " has non-finite or non-positive size " << size_[i]);
    DBS_CHECK_MSG(std::isfinite(freq_[i]) && freq_[i] >= 0.0,
                  "item " << i << " has non-finite or negative frequency " << freq_[i]);
    freq_sum += freq_[i];
    total_size_ += size_[i];
  }
  DBS_CHECK_MSG(freq_sum > 0.0, "total access frequency must be positive");
  // Finite items can still sum to +inf: normalizing by it would zero every
  // frequency, and an infinite total size poisons every cost.
  DBS_CHECK_MSG(std::isfinite(freq_sum),
                "total access frequency overflows to " << freq_sum);
  DBS_CHECK_MSG(std::isfinite(total_size_), "total size overflows to " << total_size_);

  // The benefit order and its rank-major columns are part of the catalogue:
  // every scheduler run shares this one sort instead of re-deriving it. The
  // ratio f/z is only the sort key, computed from the columns wherever the
  // sort reads it. Input already in order is its own rank-major copy.
  // Otherwise each rank-major column is gathered in a pass of its own, so a
  // pass reads from one id column.
  for (std::size_t i = 0; i < n; ++i) {
    freq_[i] /= freq_sum;
    weighted_size_ += freq_[i] * size_[i];
  }
  const auto key = [this](std::size_t id) {
    return descending_key(freq_[id] / size_[id]);
  };
  int passes = 0;
  const bool sorted = sort_ids_by_key(n, key, benefit_order_, passes);
  DBS_OBS_COUNTER_ADD("model.database.radix_passes", passes);
  if (!sorted) return;
  benefit_freq_.resize(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    benefit_freq_[rank] = freq_[benefit_order_[rank]];
  }
  benefit_size_.resize(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    benefit_size_[rank] = size_[benefit_order_[rank]];
  }
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
  const auto key = [this](std::size_t id) { return descending_key(freq_[id]); };
  std::vector<ItemId> ids;
  int passes = 0;
  sort_ids_by_key(freq_.size(), key, ids, passes);
  DBS_OBS_COUNTER_ADD("model.database.radix_passes", passes);
  return ids;
}

}  // namespace dbs
