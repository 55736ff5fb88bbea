#include "model/prefix_sums.h"

#include "common/check.h"
#include "model/database.h"

namespace dbs {

PrefixSums::PrefixSums(const Database& db, std::span<const ItemId> order)
    : freq(order.size() + 1), size(order.size() + 1) {
  DBS_CHECK_MSG(order.size() <= db.size(),
                "order names more items than the database holds");
  const std::span<const double> item_freq = db.freqs();
  const std::span<const double> item_size = db.sizes();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ItemId id = order[i];
    DBS_CHECK_MSG(id < db.size(), "order names unknown item " << id);
    freq[i + 1] = freq[i] + item_freq[id];
    size[i + 1] = size[i] + item_size[id];
  }
}

PrefixSums::PrefixSums(std::span<const double> freqs, std::span<const double> sizes)
    : freq(freqs.size() + 1), size(sizes.size() + 1) {
  DBS_CHECK_MSG(freqs.size() == sizes.size(), "prefix columns must be parallel");
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    freq[i + 1] = freq[i] + freqs[i];
    size[i + 1] = size[i] + sizes[i];
  }
}

}  // namespace dbs
