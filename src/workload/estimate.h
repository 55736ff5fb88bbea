// Access-frequency estimation from observed request traces. The paper's
// server "generates a broadcast program by collecting the access patterns of
// mobile users" (§1); this is that collection step: turn a window of
// requests into the frequency vector the scheduler consumes, with Laplace
// smoothing so never-seen items keep a small positive probability (they must
// still be broadcast) and optional exponential decay across windows so the
// estimate tracks drifting popularity.
#pragma once

#include <cstddef>
#include <vector>

#include "workload/trace.h"

namespace dbs {

/// One-shot estimator: normalized (count + alpha) over a trace window.
/// alpha = 0 gives the raw maximum-likelihood estimate (items never seen get
/// probability 0); alpha > 0 is Laplace smoothing. Requires items > 0 and a
/// non-empty trace when alpha == 0.
std::vector<double> estimate_frequencies(const std::vector<Request>& window,
                                         std::size_t items, double alpha = 1.0);

/// Streaming estimator over decayed raw counts, the serve loop's estimator
/// (DESIGN.md §12). It keeps one decayed count per item,
///     c_i ← ρ·c_i + (requests for i in the window),
/// and normalizes with Laplace smoothing only when frequencies() is read:
///     f_i = (c_i + α) / (C + α·N),  C = Σ c_i,  α = kLaplaceAlpha.
/// Working on raw counts makes the fold order-independent within a window
/// (each request is an independent `+= 1.0`), weighs windows by how much
/// traffic they actually carried, and with ρ = 1 over a single window is
/// bit-identical to the batch estimate_frequencies() — both properties are
/// locked in by estimate_test.
class DecayedFrequencyTracker {
 public:
  /// Laplace smoothing mass per item (the add-one rule): every item keeps
  /// a positive frequency, so it stays on air before anyone requests it,
  /// and one pseudo-request per item is small next to a window's traffic.
  static constexpr double kLaplaceAlpha = 1.0;

  /// \brief Starts from zero counts (frequencies() is uniform until the
  /// first window). Requires items > 0 and 0 < decay ≤ 1.
  explicit DecayedFrequencyTracker(std::size_t items, double decay = 0.5);

  /// \brief Decays the carried counts by `decay`, then folds the window in.
  /// A window naming an unknown item throws ContractViolation before any
  /// count changes, so a rejected window leaves the estimate as it was.
  void observe(const std::vector<Request>& window);

  /// \brief Current normalized estimate (sums to 1, strictly positive).
  std::vector<double> frequencies() const;

  /// \brief The decayed count column c, indexed by ItemId.
  const std::vector<double>& counts() const { return counts_; }

  /// \brief Total decayed request mass C = Σ c_i still remembered.
  double effective_requests() const { return total_; }

  /// \brief How many windows the estimate effectively remembers:
  /// Σ_{k<w} ρ^k = (1 − ρ^w)/(1 − ρ), or w when ρ = 1. This is the
  /// estimator-staleness figure surfaced in EpochReport.
  double effective_windows() const;

  std::size_t windows_observed() const { return windows_; }

 private:
  double decay_;
  std::vector<double> counts_;
  double total_ = 0.0;  // Σ counts_, maintained incrementally
  std::size_t windows_ = 0;
};

}  // namespace dbs
