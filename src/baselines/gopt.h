// Algorithm GOPT — the paper's global-optimum reference, implemented with a
// generational Genetic Algorithm (the paper cites Goldberg 1989 / Holland
// 1975 and omits details "for interest of space").
//
// Chromosome: an assignment vector of length N with gene values in 0..K−1.
// The paper notes exactly this encoding when explaining why GOPT's execution
// time is more sensitive to N (chromosome length) than to K (gene alphabet).
// Fitness is the reciprocal of the cost function (Eq. 3). Selection is a
// 3-way tournament; 90% of pairs cross over, half of them uniformly and half
// at one point; mutation re-draws each gene with probability 0.02; the best
// two individuals survive unchanged (elitism); every 40 generations CDS
// polishes the generation's best. These operators are fixed (gopt.cc): the
// paper gives none, and only the population, generation and stall budgets
// trade time for quality in the benches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/deadline.h"
#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// GA hyper-parameters. Defaults are sized so that on the paper's workloads
/// (N ≤ 180, K ≤ 10) GOPT matches the exact optimum on small instances while
/// remaining orders of magnitude slower than DRP-CDS — the paper's trade-off.
struct GoptOptions {
  std::size_t population = 120;
  std::size_t generations = 600;
  std::size_t stall_generations = 150;  ///< early stop if no improvement
  bool seed_with_heuristics = true; ///< inject DRP-CDS/greedy seeds (memetic start)
  bool local_search_final = true;   ///< polish the best individual with CDS
  std::uint64_t seed = 42;

  /// Cooperative cancellation (DESIGN.md §13): polled once per generation,
  /// between heuristic seeds, and forwarded into every internal CDS polish.
  /// When it fires the search stops and returns the best individual found so
  /// far. An *armed* deadline also skips the O(K·N²) ordered-DP seed, which
  /// has no cancellation point of its own — a budgeted run must not sink its
  /// whole budget before the first generation. never() (the default)
  /// reproduces the unbudgeted search bit-for-bit.
  Deadline deadline = Deadline::never();
};

/// GOPT run record.
struct GoptResult {
  Allocation allocation;
  double cost = 0.0;
  std::size_t generations_run = 0;
  std::uint64_t evaluations = 0;  ///< number of fitness evaluations performed
  bool completed = true;  ///< false iff the deadline stopped the search early
};

/// Runs the genetic search. Requires 1 ≤ K ≤ N.
GoptResult run_gopt(const Database& db, ChannelId channels,
                    const GoptOptions& options = {});

}  // namespace dbs
