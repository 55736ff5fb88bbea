#include "workload/paper_example.h"

#include <utility>

namespace dbs {

Database paper_table2_database() {
  // (freq, size) rows of Table 2, in d_1..d_15 order.
  std::vector<double> freqs = {
      0.2374, 0.1363, 0.0986, 0.0783, 0.0655, 0.0566, 0.0500, 0.0450,
      0.0409, 0.0376, 0.0349, 0.0325, 0.0305, 0.0287, 0.0272};
  std::vector<double> sizes = {
      21.18, 4.77, 3.59, 15.34, 2.91, 2.49, 17.51, 10.86,
      1.02,  6.41, 30.62, 4.09, 5.33, 7.74, 1.74};
  return Database(std::move(sizes), std::move(freqs));
}

std::vector<ItemId> paper_table3_br_order() {
  // Paper indices d9 d2 d3 d6 d5 d15 d1 d12 d10 d13 d4 d8 d14 d7 d11,
  // converted to 0-based ids.
  return {8, 1, 2, 5, 4, 14, 0, 11, 9, 12, 3, 7, 13, 6, 10};
}

}  // namespace dbs
