#include "workload/estimate.h"

#include <cmath>

#include "common/check.h"

namespace dbs {

std::vector<double> estimate_frequencies(const std::vector<Request>& window,
                                         std::size_t items, double alpha) {
  DBS_CHECK(items > 0);
  DBS_CHECK(alpha >= 0.0);
  DBS_CHECK_MSG(alpha > 0.0 || !window.empty(),
                "raw MLE needs at least one observation");
  std::vector<double> counts(items, alpha);
  for (const Request& r : window) {
    DBS_CHECK_MSG(r.item < items, "request for unknown item " << r.item);
    counts[r.item] += 1.0;
  }
  const double total =
      static_cast<double>(window.size()) + alpha * static_cast<double>(items);
  for (double& c : counts) c /= total;
  return counts;
}

DecayedFrequencyTracker::DecayedFrequencyTracker(std::size_t items, double decay)
    : decay_(decay), counts_(items, 0.0) {
  DBS_CHECK(items > 0);
  DBS_CHECK_MSG(decay > 0.0 && decay <= 1.0, "decay must lie in (0, 1]");
}

void DecayedFrequencyTracker::observe(const std::vector<Request>& window) {
  for (const Request& r : window) {
    DBS_CHECK_MSG(r.item < counts_.size(), "request for unknown item " << r.item);
  }
  if (decay_ < 1.0) {
    for (double& c : counts_) c *= decay_;
    total_ *= decay_;
  }
  for (const Request& r : window) {
    counts_[r.item] += 1.0;
    total_ += 1.0;
  }
  ++windows_;
}

std::vector<double> DecayedFrequencyTracker::frequencies() const {
  // Mirrors estimate_frequencies' arithmetic shape (counts + alpha, divided
  // by mass + alpha·N) so the ρ = 1 single-window case is bit-identical to
  // the batch estimator.
  std::vector<double> freqs(counts_.size());
  const double total =
      total_ + kLaplaceAlpha * static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    freqs[i] = (counts_[i] + kLaplaceAlpha) / total;
  }
  return freqs;
}

double DecayedFrequencyTracker::effective_windows() const {
  if (windows_ == 0) return 0.0;
  if (decay_ >= 1.0) return static_cast<double>(windows_);
  const double rho_w = std::pow(decay_, static_cast<double>(windows_));
  return (1.0 - rho_w) / (1.0 - decay_);
}

}  // namespace dbs
