// expect: api-docs, unset-option
// Golden case: a portfolio-shaped facade header (enum + options struct +
// racing entry point, mirroring src/api/portfolio.h) where the enum and the
// struct lack doc comments entirely and the entry point's doc has no \brief
// tag. Guards the PR 9 surface: the api-docs rule must keep covering new
// src/api headers, not just the ones that existed when it was written.
// Nothing sets the options struct's fields, so unset-option fires too.
#pragma once

namespace dbs {

enum class RacerKind {
  kHeuristic,
  kSeeded,
  kEvolutionary,
};

struct RaceOptions {
  int threads = 0;
  double deadline_ms = 250.0;
};

/// Races the planners and returns the cheapest allocation found — but this
/// doc block never states a brief tag, which the rule must flag.
int run_race(const RaceOptions& options);

}  // namespace dbs
