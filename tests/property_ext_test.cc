// Parameterized property sweeps for the extension modules, mirroring
// property_test.cc's grid discipline: every invariant must hold on every
// (N, K, θ, Φ, seed) cell.
#include <gtest/gtest.h>

#include <sstream>

#include "air/index.h"
#include "air/indexed_program.h"
#include "baselines/flat.h"
#include "core/drp_cds.h"
#include "core/swap.h"
#include "hetero/hetero.h"
#include "model/cost.h"
#include "workload/generator.h"

namespace dbs {
namespace {

struct ExtParam {
  std::size_t items;
  ChannelId channels;
  double skewness;
  double diversity;
  std::uint64_t seed;
};

class ExtGrid : public ::testing::TestWithParam<ExtParam> {
 protected:
  Database db_ = generate_database({.items = GetParam().items,
                                    .skewness = GetParam().skewness,
                                    .diversity = GetParam().diversity,
                                    .seed = GetParam().seed});
  ChannelId k_ = GetParam().channels;
  Allocation alloc_ = run_drp_cds(db_, k_).allocation;
  static constexpr double kBandwidth = 10.0;
};

TEST_P(ExtGrid, HeteroSchedulerMatchesHomogeneousAtEqualBandwidths) {
  const std::vector<double> equal(k_, kBandwidth);
  const HeteroResult r = schedule_hetero(db_, equal);
  // A homogeneous-optimal local optimum: no generalized move improves.
  EXPECT_EQ(r.wait, hetero_wait(r.allocation, equal));
  EXPECT_LE(r.wait, program_waiting_time(alloc_, kBandwidth) * 1.02 + 1e-9)
      << "hetero path must not regress the homogeneous case materially";
}

TEST_P(ExtGrid, IndexedProgramInvariants) {
  const IndexConfig cfg{.index_size = 1.0, .header_size = 0.05, .replication = 2};
  const IndexedProgram program(alloc_, kBandwidth, cfg);
  const auto trace = generate_trace(db_, {.requests = 400, .seed = GetParam().seed + 2});
  for (const Request& r : trace) {
    const auto outcome = program.replay_request(r.item, r.time);
    // Access covers at least header + index + download.
    const double floor = (cfg.header_size + cfg.index_size + db_.item(r.item).size) /
                         kBandwidth;
    EXPECT_GE(outcome.access, floor - 1e-9);
    EXPECT_GE(outcome.access, outcome.tuning - 1e-9);
  }
}

TEST_P(ExtGrid, DeepSearchDominatesFlatAndStaysValid) {
  Allocation deep = flat_round_robin(db_, k_);
  run_cds_with_swaps(deep);
  EXPECT_LE(deep.cost(), flat_round_robin(db_, k_).cost() + 1e-9);
  std::string error;
  EXPECT_TRUE(deep.validate(&error)) << error;
}

INSTANTIATE_TEST_SUITE_P(
    ExtensionGrid, ExtGrid,
    ::testing::Values(ExtParam{60, 4, 0.8, 2.0, 61}, ExtParam{120, 6, 0.8, 2.0, 62},
                      ExtParam{120, 6, 1.6, 1.0, 63}, ExtParam{120, 10, 0.4, 3.0, 64},
                      ExtParam{180, 8, 1.2, 0.0, 65}, ExtParam{40, 4, 0.8, 2.5, 66}),
    [](const ::testing::TestParamInfo<ExtParam>& info) {
      std::ostringstream os;
      os << "N" << info.param.items << "_K" << info.param.channels << "_seed"
         << info.param.seed;
      return os.str();
    });

}  // namespace
}  // namespace dbs
