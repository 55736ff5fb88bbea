// Quickstart: build a catalogue, run the paper's DRP-CDS scheduler, print
// the resulting channel layout and expected waiting time.
#include <cstdio>

#include "api/scheduler.h"
#include "model/cost.h"

int main() {
  // A small diverse catalogue: (size, access frequency) per item. Sizes are
  // in abstract units (think MB), frequencies are relative popularity —
  // the library normalizes them.
  const std::vector<double> sizes = {120.0, 4.5, 3.0, 55.0, 2.2, 18.0, 7.5, 1.1};
  const std::vector<double> freqs = {0.30, 0.22, 0.15, 0.10, 0.08, 0.07, 0.05, 0.03};
  const dbs::Database catalogue(sizes, freqs);

  dbs::ScheduleRequest request;
  request.algorithm = dbs::Algorithm::kDrpCds;
  request.channels = 3;
  request.bandwidth = 10.0;  // size units per second

  const dbs::ScheduleResult result = dbs::schedule(catalogue, request);

  std::printf("cost (sum F_i*Z_i): %.4f\n", result.cost);
  std::printf("expected waiting time W_b: %.4f s\n", result.waiting_time);
  const std::vector<std::vector<dbs::ItemId>> members = result.allocation.members();
  for (dbs::ChannelId c = 0; c < request.channels; ++c) {
    std::printf("channel %u (F=%.3f, Z=%.1f):", c, result.allocation.freq_of(c),
                result.allocation.size_of(c));
    for (dbs::ItemId id : members[c]) {
      std::printf(" d%u", id + 1);
    }
    std::printf("\n");
  }
  return 0;
}
