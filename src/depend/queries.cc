#include "depend/queries.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/distributions.h"

namespace dbs {
namespace {

constexpr double kItemSkewness = 0.8;       // Zipf over item ids for members
constexpr std::size_t kLatencySamples = 64;  // start times per query

}  // namespace

std::vector<double> QueryWorkload::induced_item_frequencies(std::size_t items) const {
  std::vector<double> freq(items, 0.0);
  for (const Query& q : queries) {
    for (ItemId id : q.items) {
      DBS_CHECK(id < items);
      freq[id] += q.freq;
    }
  }
  return freq;
}

QueryWorkload generate_query_workload(const Database& db,
                                      const QueryWorkloadConfig& config) {
  DBS_CHECK(config.queries > 0);
  DBS_CHECK(config.max_items >= 1);
  DBS_CHECK_MSG(config.max_items <= db.size(),
                "queries cannot need more items than the database holds");
  Rng rng(config.seed);

  const std::vector<double> query_freqs =
      zipf_probabilities(config.queries, config.skewness);
  const std::vector<double> item_weights =
      zipf_probabilities(db.size(), kItemSkewness);
  const AliasSampler item_sampler(item_weights);

  QueryWorkload workload;
  workload.queries.reserve(config.queries);
  for (std::size_t qi = 0; qi < config.queries; ++qi) {
    const std::size_t want =
        1 + static_cast<std::size_t>(rng.below(config.max_items));
    std::vector<ItemId> items;
    while (items.size() < want) {
      const auto candidate = static_cast<ItemId>(item_sampler.sample(rng));
      if (std::find(items.begin(), items.end(), candidate) == items.end()) {
        items.push_back(candidate);
      }
    }
    std::sort(items.begin(), items.end());
    workload.queries.push_back(Query{std::move(items), query_freqs[qi]});
  }
  return workload;
}

double query_latency_parallel(const BroadcastProgram& program, const Query& query,
                              double t) {
  DBS_CHECK(!query.items.empty());
  double done = 0.0;
  for (ItemId id : query.items) {
    done = std::max(done, program.delivery_time(id, t));
  }
  return done - t;
}

double query_latency_sequential(const BroadcastProgram& program, const Query& query,
                                double t) {
  DBS_CHECK(!query.items.empty());
  std::vector<ItemId> missing = query.items;
  double now = t;
  while (!missing.empty()) {
    std::size_t best = 0;
    double best_done = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < missing.size(); ++i) {
      const double done = program.delivery_time(missing[i], now);
      if (done < best_done) {
        best_done = done;
        best = i;
      }
    }
    now = best_done;
    missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(best));
  }
  return now - t;
}

QueryLatencyReport evaluate_query_workload(const BroadcastProgram& program,
                                           const QueryWorkload& workload) {
  // Sample start times uniformly over the hyper-span of all cycles (use the
  // longest cycle as the sampling window — per-channel phases are periodic).
  double window = 0.0;
  for (ChannelId c = 0; c < program.channels(); ++c) {
    window = std::max(window, program.cycle_time(c));
  }
  if (window <= 0.0) window = 1.0;

  QueryLatencyReport report;
  double freq_total = 0.0;
  for (const Query& q : workload.queries) {
    double par = 0.0;
    double seq = 0.0;
    for (std::size_t s = 0; s < kLatencySamples; ++s) {
      const double t = window * (static_cast<double>(s) + 0.5) /
                       static_cast<double>(kLatencySamples);
      par += query_latency_parallel(program, q, t);
      seq += query_latency_sequential(program, q, t);
    }
    report.parallel += q.freq * par / static_cast<double>(kLatencySamples);
    report.sequential += q.freq * seq / static_cast<double>(kLatencySamples);
    freq_total += q.freq;
  }
  DBS_CHECK(freq_total > 0.0);
  report.parallel /= freq_total;
  report.sequential /= freq_total;
  return report;
}

}  // namespace dbs
