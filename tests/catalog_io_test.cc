#include "workload/catalog_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/drp_cds.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(CatalogIo, ParsesBasicFile) {
  std::istringstream in(
      "# comment\n"
      "size,freq,name\n"
      "10.5,0.5,video.mp4\n"
      "\n"
      "2,0.25,page.html\n"
      "1,0.25\n");
  const Catalog catalog = load_catalog(in);
  ASSERT_EQ(catalog.database.size(), 3u);
  EXPECT_DOUBLE_EQ(catalog.database.item(0).size, 10.5);
  EXPECT_DOUBLE_EQ(catalog.database.item(0).freq, 0.5);
  EXPECT_EQ(catalog.name_of(0), "video.mp4");
  EXPECT_EQ(catalog.name_of(2), "d3");  // no name column on that row
}

TEST(CatalogIo, NormalizesFrequencies) {
  std::istringstream in("1,3\n1,1\n");
  const Catalog catalog = load_catalog(in);
  EXPECT_DOUBLE_EQ(catalog.database.item(0).freq, 0.75);
}

TEST(CatalogIo, HeaderIsOptional) {
  std::istringstream in("4,0.6\n2,0.4\n");
  EXPECT_EQ(load_catalog(in).database.size(), 2u);
}

TEST(CatalogIo, RejectsMalformedLines) {
  for (const char* bad : {"1", "1,2,3,4", "abc,0.5", "1.5x,0.5", "-2,0.5", "2,-0.5",
                          "nan,0.5", "inf,0.5", "-inf,0.5", "2,nan", "2,inf", "2,-inf",
                          "1e400,0.5", "2,1e400", "1e-400,0.5", "2,1e-400"}) {
    std::istringstream in(std::string(bad) + "\n");
    EXPECT_THROW(load_catalog(in), std::runtime_error) << bad;
  }
}

TEST(CatalogIo, ErrorMessagesCarryLineNumbers) {
  std::istringstream in("1,0.5\n2,0.5\nbroken\n");
  try {
    load_catalog(in);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(CatalogIo, EmptyFileRejected) {
  std::istringstream in("# only comments\n\n");
  EXPECT_THROW(load_catalog(in), std::runtime_error);
}

TEST(CatalogIo, MissingFileRejected) {
  EXPECT_THROW(load_catalog_file("/no/such/catalog.csv"), std::runtime_error);
}

TEST(CatalogIo, StoreLoadRoundTrip) {
  std::istringstream in("10,0.5,a\n30,0.3,b\n60,0.2,c\n");
  const Catalog original = load_catalog(in);
  std::ostringstream out;
  store_catalog(out, original);
  std::istringstream back(out.str());
  const Catalog reloaded = load_catalog(back);
  ASSERT_EQ(reloaded.database.size(), original.database.size());
  for (ItemId id = 0; id < original.database.size(); ++id) {
    EXPECT_DOUBLE_EQ(reloaded.database.item(id).size, original.database.item(id).size);
    EXPECT_NEAR(reloaded.database.item(id).freq, original.database.item(id).freq, 1e-12);
    EXPECT_EQ(reloaded.name_of(id), original.name_of(id));
  }

  // Generated: sizes reload bit-identical; frequencies (re-normalised by a
  // sum of 1 ± a few ulp) and the planned cost within 1e-15 relative.
  const Catalog generated{generate_database({.items = 2000, .diversity = 2.0, .seed = 7}), {}};
  std::ostringstream big_out;
  store_catalog(big_out, generated);
  std::istringstream big_in(big_out.str());
  const Database big = load_catalog(big_in).database;
  ASSERT_EQ(big.size(), generated.database.size());
  std::size_t changed_sizes = 0;
  double freq_drift = 0.0;
  for (ItemId id = 0; id < big.size(); ++id) {
    const Item& want = generated.database.item(id);
    changed_sizes += big.item(id).size != want.size;
    freq_drift = std::max(freq_drift, std::abs(big.item(id).freq / want.freq - 1.0));
  }
  EXPECT_EQ(changed_sizes, 0u);
  EXPECT_LE(freq_drift, 1e-15);

  const double cost = run_drp_cds(generated.database, 10).allocation.cost();
  EXPECT_LE(std::abs(run_drp_cds(big, 10).allocation.cost() / cost - 1.0), 1e-15);

  // Subnormal values: Database accepts a size of 1e-310, and normalising a
  // frequency of 1e-310 against 1 keeps it subnormal, so the stored file
  // holds subnormal text that must load back.
  const Catalog tiny{Database({1.0, 1e-310}, {1.0, 1e-310}), {}};
  std::ostringstream tiny_out;
  store_catalog(tiny_out, tiny);
  std::istringstream tiny_in(tiny_out.str());
  const Database tiny_back = load_catalog(tiny_in).database;
  ASSERT_EQ(tiny_back.size(), 2u);
  for (ItemId id = 0; id < 2; ++id) {
    EXPECT_EQ(tiny_back.item(id).size, tiny.database.item(id).size) << "item " << id;
    EXPECT_EQ(tiny_back.item(id).freq, tiny.database.item(id).freq) << "item " << id;
  }
}

TEST(CatalogIo, StoreRejectsNamesTheLoaderWouldSplit) {
  const Catalog catalog{Database({1.0, 2.0}, {0.5, 0.5}), {"plain", "a,b"}};
  std::ostringstream out;
  try {
    store_catalog(out, catalog);
    ADD_FAILURE() << "stored a name containing a comma";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("item 1"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(out.str().empty()) << "nothing may be written before the refusal";
}

TEST(CatalogIo, LoadsPaperSampleFromRepo) {
  // The shipped sample catalogue is the paper's Table 2 profile.
  const Catalog catalog = load_catalog_file(
      std::string(DBS_SOURCE_DIR) + "/examples/data/sample_catalog.csv");
  EXPECT_EQ(catalog.database.size(), 15u);
  EXPECT_NEAR(catalog.database.total_size(), 135.60, 1e-9);
  EXPECT_EQ(catalog.name_of(10), "d11");
}

}  // namespace
}  // namespace dbs
