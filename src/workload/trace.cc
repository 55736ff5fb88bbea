#include "workload/trace.h"

#include "common/check.h"
#include "common/distributions.h"

namespace dbs {

std::vector<Request> generate_trace(const Database& db, const TraceConfig& config) {
  DBS_CHECK(config.arrival_rate > 0.0);
  Rng rng(config.seed);

  std::vector<double> weights;
  weights.reserve(db.size());
  for (const Item& it : db.items()) weights.push_back(it.freq);
  const AliasSampler sampler(weights);

  std::vector<Request> trace;
  trace.reserve(config.requests);
  double now = 0.0;
  for (std::size_t i = 0; i < config.requests; ++i) {
    now += sample_exponential(rng, config.arrival_rate);
    trace.push_back(Request{now, static_cast<ItemId>(sampler.sample(rng))});
  }
  return trace;
}

}  // namespace dbs
