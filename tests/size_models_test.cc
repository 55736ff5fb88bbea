#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/drp_cds.h"
#include "baselines/vfk.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(SizeModels, UniformExponentIsDefaultAndMatchesLegacySampler) {
  WorkloadConfig cfg{.items = 50, .seed = 1};
  ASSERT_EQ(cfg.size_model, SizeModel::kUniformExponent);
  Rng a(9);
  Rng b(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(sample_item_size(a, 2.0), sample_item_size_model(b, cfg));
  }
}

TEST(SizeModels, LognormalMeanExponentIsHalfDiversity) {
  WorkloadConfig cfg{.items = 1, .diversity = 2.0, .seed = 2};
  cfg.size_model = SizeModel::kLognormal;
  Rng rng(3);
  double mean_exp = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    mean_exp += std::log10(sample_item_size_model(rng, cfg));
  }
  EXPECT_NEAR(mean_exp / n, 1.0, 0.02);
}

TEST(SizeModels, LognormalStaysWithinClamp) {
  WorkloadConfig cfg{.items = 1, .diversity = 2.0, .seed = 4};
  // σ = 0.8 puts about 1.2% of the draws past the clamp at 10^-1 and
  // 10^(Φ+1), so 20000 draws exercise both ends.
  cfg.size_model = SizeModel::kLognormal;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double z = sample_item_size_model(rng, cfg);
    EXPECT_GE(z, 0.1 - 1e-12);
    EXPECT_LE(z, 1000.0 + 1e-9);
  }
}

TEST(SizeModels, BimodalSeparatesTextFromMedia) {
  WorkloadConfig cfg{.items = 1, .diversity = 2.0, .seed = 6};
  cfg.size_model = SizeModel::kBimodal;
  Rng rng(7);
  int media = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double z = sample_item_size_model(rng, cfg);
    const bool is_media = z >= std::pow(10.0, 1.5) - 1e-9;
    const bool is_text = z <= std::pow(10.0, 0.5) + 1e-9;
    ASSERT_TRUE(is_media || is_text) << "size " << z << " falls in the gap";
    media += is_media;
  }
  EXPECT_NEAR(static_cast<double>(media) / n, kBimodalMediaShare, 0.01);
}

TEST(SizeModels, GeneratorHonoursTheModel) {
  WorkloadConfig cfg{.items = 500, .diversity = 2.0, .seed = 8};
  cfg.size_model = SizeModel::kBimodal;
  const Database db = generate_database(cfg);
  for (const Item& it : db.items()) {
    EXPECT_TRUE(it.size <= std::pow(10.0, 0.5) + 1e-9 ||
                it.size >= std::pow(10.0, 1.5) - 1e-9);
  }
}

TEST(SizeModels, DrpCdsStillBeatsVfkUnderEveryModel) {
  // The paper's headline is robust to the size family, not an artifact of
  // the uniform-exponent model.
  for (SizeModel model :
       {SizeModel::kUniformExponent, SizeModel::kLognormal, SizeModel::kBimodal}) {
    double vfk_total = 0.0;
    double drp_total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      WorkloadConfig cfg{.items = 100, .skewness = 0.8, .diversity = 2.5,
                         .seed = seed};
      cfg.size_model = model;
      const Database db = generate_database(cfg);
      vfk_total += run_vfk(db, 6).cost();
      drp_total += run_drp_cds(db, 6).final_cost;
    }
    EXPECT_GT(vfk_total, drp_total) << "model " << static_cast<int>(model);
  }
}

}  // namespace
}  // namespace dbs
