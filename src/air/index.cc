#include "air/index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dbs {
namespace {

/// Frequency-weighted mean download time of channel c: P_i / (b F_i).
double mean_download(const Allocation& alloc, ChannelId c, double bandwidth) {
  const double f = alloc.freq_of(c);
  return f > 0.0 ? alloc.weighted_size_of(c) / (bandwidth * f) : 0.0;
}

}  // namespace

IndexedChannelMetrics indexed_channel_metrics(const Allocation& alloc, ChannelId c,
                                              double bandwidth,
                                              const IndexConfig& config) {
  DBS_CHECK(bandwidth > 0.0);
  DBS_CHECK(config.replication >= 1);
  DBS_CHECK(config.index_size > 0.0);
  DBS_CHECK_MSG(alloc.count_of(c) > 0, "channel " << c << " is empty");

  const double m = static_cast<double>(config.replication);
  const double data = alloc.size_of(c) / bandwidth;           // D
  const double index = config.index_size / bandwidth;         // I
  const double header = config.header_size / bandwidth;
  const double download = mean_download(alloc, c, bandwidth); // E[z]/b (weighted)

  IndexedChannelMetrics metrics;
  metrics.cycle_time = data + m * index;
  metrics.expected_access =
      (data / m + index) / 2.0 + index + (data + m * index) / 2.0 + download;
  metrics.expected_tuning = header + index + download;
  return metrics;
}

std::size_t optimal_replication(const Allocation& alloc, ChannelId c,
                                double bandwidth, const IndexConfig& config) {
  DBS_CHECK(bandwidth > 0.0);
  const double data = alloc.size_of(c);
  const double ratio = data / config.index_size;
  const double m_star = std::sqrt(std::max(ratio, 1.0));
  const auto lo = static_cast<std::size_t>(std::max(1.0, std::floor(m_star)));
  const std::size_t hi = lo + 1;

  auto access_at = [&](std::size_t m) {
    IndexConfig candidate = config;
    candidate.replication = m;
    return indexed_channel_metrics(alloc, c, bandwidth, candidate).expected_access;
  };
  return access_at(lo) <= access_at(hi) ? lo : hi;
}

double indexed_program_access(const Allocation& alloc, double bandwidth,
                              const IndexConfig& config) {
  double total = 0.0;
  for (ChannelId c = 0; c < alloc.channels(); ++c) {
    if (alloc.count_of(c) == 0) continue;
    IndexConfig tuned = config;
    tuned.replication = optimal_replication(alloc, c, bandwidth, config);
    total += alloc.freq_of(c) *
             indexed_channel_metrics(alloc, c, bandwidth, tuned).expected_access;
  }
  return total;
}

double indexed_program_tuning(const Allocation& alloc, double bandwidth,
                              const IndexConfig& config) {
  double total = 0.0;
  for (ChannelId c = 0; c < alloc.channels(); ++c) {
    if (alloc.count_of(c) == 0) continue;
    IndexConfig tuned = config;
    tuned.replication = optimal_replication(alloc, c, bandwidth, config);
    total += alloc.freq_of(c) *
             indexed_channel_metrics(alloc, c, bandwidth, tuned).expected_tuning;
  }
  return total;
}

}  // namespace dbs
