// Brute-force CDS, the oracle run_cds must match move for move: the
// paper's loop over the exhaustive O(N·K) best_move(alloc).
#pragma once

#include <cstddef>

#include "core/cds.h"

namespace dbs {

/// Applies best_move(alloc) while its gain exceeds run_cds's kCdsMinGain;
/// returns the number of moves applied.
inline std::size_t brute_force_cds(Allocation& alloc) {
  std::size_t iterations = 0;
  for (CdsMove move = best_move(alloc); move.gain > kCdsMinGain;
       move = best_move(alloc)) {
    alloc.move(move.item, move.to);
    ++iterations;
  }
  return iterations;
}

}  // namespace dbs
