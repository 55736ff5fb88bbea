#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"
#include "common/distributions.h"
#include "workload/generator.h"
#include "workload/paper_example.h"
#include "workload/trace.h"

namespace dbs {
namespace {

TEST(Generator, ProducesRequestedItemCount) {
  const Database db = generate_database({.items = 75, .seed = 1});
  EXPECT_EQ(db.size(), 75u);
}

TEST(Generator, SameSeedSameDatabase) {
  const WorkloadConfig cfg{.items = 50, .skewness = 1.1, .diversity = 2.5, .seed = 77};
  const Database a = generate_database(cfg);
  const Database b = generate_database(cfg);
  for (ItemId id = 0; id < a.size(); ++id) {
    EXPECT_DOUBLE_EQ(a.item(id).size, b.item(id).size);
    EXPECT_DOUBLE_EQ(a.item(id).freq, b.item(id).freq);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const Database a = generate_database({.items = 50, .seed = 1});
  const Database b = generate_database({.items = 50, .seed = 2});
  bool any_diff = false;
  for (ItemId id = 0; id < a.size(); ++id) {
    any_diff |= a.item(id).size != b.item(id).size;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, DiversityZeroMeansUnitSizes) {
  const Database db = generate_database({.items = 40, .diversity = 0.0, .seed = 3});
  for (const Item& it : db.items()) EXPECT_DOUBLE_EQ(it.size, 1.0);
}

TEST(Generator, SizesWithinDiversityRange) {
  const double phi = 3.0;
  const Database db = generate_database({.items = 300, .diversity = phi, .seed = 4});
  for (const Item& it : db.items()) {
    EXPECT_GE(it.size, 1.0);
    EXPECT_LE(it.size, std::pow(10.0, phi));
  }
}

TEST(Generator, SizeExponentRoughlyUniform) {
  // log10(size) should be ~U[0, Φ]: mean Φ/2.
  const double phi = 2.0;
  const Database db = generate_database({.items = 5000, .diversity = phi, .seed = 5});
  double mean_exp = 0.0;
  for (const Item& it : db.items()) mean_exp += std::log10(it.size);
  mean_exp /= static_cast<double>(db.size());
  EXPECT_NEAR(mean_exp, phi / 2.0, 0.05);
}

TEST(Generator, FrequenciesAreZipfWithoutShuffle) {
  const Database db = generate_database(
      {.items = 10, .skewness = 1.0, .diversity = 1.0, .seed = 6});
  // ids_by_freq_desc() undoes the rank shuffle: rank r + 1 is order[r], and
  // f_1/f_(r+1) = r + 1 for theta = 1.
  const std::vector<ItemId> order = db.ids_by_freq_desc();
  for (std::size_t r = 0; r < order.size(); ++r) {
    EXPECT_NEAR(db.item(order[0]).freq / db.item(order[r]).freq,
                static_cast<double>(r + 1), 1e-9)
        << "rank " << r + 1;
  }
}

TEST(Generator, ShuffleKeepsMultiset) {
  // The rank shuffle permutes the Zipf column without changing its values.
  const Database db = generate_database(
      {.items = 30, .skewness = 0.8, .diversity = 1.0, .seed = 7});
  std::vector<double> freqs;
  for (const Item& it : db.items()) freqs.push_back(it.freq);
  std::sort(freqs.begin(), freqs.end(), std::greater<>());
  const std::vector<double> zipf = zipf_probabilities(30, 0.8);
  ASSERT_EQ(freqs.size(), zipf.size());
  for (std::size_t i = 0; i < zipf.size(); ++i) EXPECT_NEAR(freqs[i], zipf[i], 1e-12);
}

TEST(Generator, RejectsBadConfig) {
  EXPECT_THROW(generate_database({.items = 0}), ContractViolation);
  EXPECT_THROW(generate_database({.items = 5, .skewness = -1.0}), ContractViolation);
}

TEST(PaperExample, FifteenItemsSummingToOne) {
  const Database db = paper_table2_database();
  ASSERT_EQ(db.size(), 15u);
  double sum = 0.0;
  for (const Item& it : db.items()) sum += it.freq;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Frequencies already sum to 1 in Table 2, so values are unchanged.
  EXPECT_DOUBLE_EQ(db.item(0).freq, 0.2374);
  EXPECT_DOUBLE_EQ(db.item(10).size, 30.62);
}

TEST(PaperExample, TotalSizeIs135_60) {
  EXPECT_NEAR(paper_table2_database().total_size(), 135.60, 1e-9);
}

TEST(PaperExample, BenefitRatioOrderMatchesTable3) {
  const Database db = paper_table2_database();
  EXPECT_EQ(db.benefit_order(), paper_table3_br_order());
}

TEST(Trace, GeneratesRequestedCountInOrder) {
  const Database db = generate_database({.items = 20, .seed = 8});
  const auto trace = generate_trace(db, {.requests = 500, .arrival_rate = 5.0, .seed = 1});
  ASSERT_EQ(trace.size(), 500u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].time, trace[i - 1].time);
  }
}

TEST(Trace, InterArrivalMeanMatchesRate) {
  const Database db = generate_database({.items = 10, .seed = 9});
  const double rate = 8.0;
  const auto trace = generate_trace(db, {.requests = 20000, .arrival_rate = rate, .seed = 2});
  const double mean_gap = trace.back().time / static_cast<double>(trace.size());
  EXPECT_NEAR(mean_gap, 1.0 / rate, 0.01);
}

TEST(Trace, RejectsNonPositiveRate) {
  const Database db = generate_database({.items = 5, .seed = 1});
  EXPECT_THROW(generate_trace(db, {.requests = 10, .arrival_rate = 0.0}),
               ContractViolation);
}

}  // namespace
}  // namespace dbs
