#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/csv.h"
#include "common/strings.h"
#include "common/table.h"

namespace dbs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ctest runs each case as its own process, possibly in parallel, so every
// case writes a file named after itself: one case's TearDown must never
// delete a file another case is still reading.
class CsvTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "/dbs_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"k", "cost"});
    csv.row({"4", "1.5"});
    csv.row_values({5.0, 2.25});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  EXPECT_EQ(slurp(path_), "k,cost\n4,1.5\n5,2.25\n");
}

TEST_F(CsvTest, RejectsMismatchedRowWidth) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), ContractViolation);
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"name"});
    csv.row({"has,comma"});
    csv.row({"has\"quote"});
  }
  EXPECT_EQ(slurp(path_), "name\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(CsvEscape, PlainFieldsUntouched) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(CsvEscape, NewlineTriggersQuoting) {
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterErrors, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

TEST(FormatDouble, RoundTripsExactly) {
  for (double v : {0.0, 1.5, -2.25, 1.0 / 3.0, 135.60, 1e-17, 12345678.9}) {
    const std::string s = format_double(v);
    double parsed = 0.0;
    std::sscanf(s.c_str(), "%lf", &parsed);
    EXPECT_DOUBLE_EQ(parsed, v) << "formatted as " << s;
  }
}

TEST(FormatFixed, PlacesRespected) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
  EXPECT_EQ(format_fixed(-0.5, 3), "-0.500");
}

TEST(Padding, LeftAndRight) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable table({"K", "drp", "gopt"});
  table.add_row("4", {1.25, 1.2}, 2);
  table.add_row("10", {0.5, 0.45}, 2);
  const std::string out = table.render();
  EXPECT_NE(out.find("K"), std::string::npos);
  EXPECT_NE(out.find("1.25"), std::string::npos);
  EXPECT_NE(out.find("0.45"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(AsciiTable, PadsShortRows) {
  AsciiTable table({"a", "b"});
  table.add_row({std::vector<std::string>{"only"}});
  EXPECT_NO_THROW(table.render());
}

}  // namespace
}  // namespace dbs
