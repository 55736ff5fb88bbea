// Client request traces for the discrete-event simulator: requests arrive as
// a Poisson process; each request targets an item drawn from the database's
// access-frequency distribution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "model/database.h"

namespace dbs {

/// One client request: at `time`, a client tunes in wanting `item`.
struct Request {
  double time = 0.0;
  ItemId item = 0;
};

/// Parameters of a synthetic request trace.
struct TraceConfig {
  std::size_t requests = 10000;  ///< number of requests to generate
  double arrival_rate = 10.0;    ///< Poisson arrivals per unit time
  std::uint64_t seed = 7;        ///< PRNG seed
};

/// Generates a trace whose item popularity follows the database frequencies
/// exactly (sampled via the alias method) and whose arrival times form a
/// Poisson process of the configured rate. Times are strictly increasing.
std::vector<Request> generate_trace(const Database& db, const TraceConfig& config);

}  // namespace dbs
