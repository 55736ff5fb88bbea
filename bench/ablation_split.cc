// Ablation: DRP's split-selection rule. The paper always splits the group
// with the maximum cost F·Z; this bench compares that rule against splitting
// the largest-aggregate-size group and the most-populated group, with and
// without CDS refinement.
#include <cstdio>

#include "core/drp_cds.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace dbs;
  using namespace dbs::bench;
  const Options options = Options::parse(argc, argv);
  const Defaults d;
  banner("Ablation: split selection",
         "max-cost (paper) vs max-size vs max-count group picking", options);

  const std::vector<std::pair<const char*, SplitSelection>> rules = {
      {"max-cost", SplitSelection::kMaxCost},
      {"max-size", SplitSelection::kMaxSize},
      {"max-count", SplitSelection::kMaxCount},
  };

  AsciiTable table({"K", "max-cost", "max-size", "max-count", "max-cost+cds",
                    "max-size+cds", "max-count+cds"});
  std::vector<std::vector<double>> rows;

  for (ChannelId k = 4; k <= 10; k += 2) {
    std::vector<double> cells;
    std::vector<double> csv_row = {static_cast<double>(k)};
    for (bool with_cds : {false, true}) {
      for (const auto& [name, rule] : rules) {
        double total = 0.0;
        for (std::size_t trial = 0; trial < options.trials; ++trial) {
          const Database db = generate_database({.items = d.items,
                                                 .skewness = d.skewness,
                                                 .diversity = d.diversity,
                                                 .seed = 7000 + k * 17 + trial});
          DrpCdsOptions opt;
          opt.drp.selection = rule;
          total += with_cds ? run_drp_cds(db, k, opt).final_cost
                            : run_drp(db, k, opt.drp).allocation.cost();
        }
        cells.push_back(total / static_cast<double>(options.trials));
      }
    }
    csv_row.insert(csv_row.end(), cells.begin(), cells.end());
    table.add_row(std::to_string(k), cells, 3);
    rows.push_back(csv_row);
  }
  emit(table, options,
       {"k", "max_cost", "max_size", "max_count", "max_cost_cds", "max_size_cds",
        "max_count_cds"},
       rows);
  std::puts("expect: max-cost (the paper's rule) at least ties the "
            "alternatives before CDS; after CDS the rules largely converge.");
  return 0;
}
