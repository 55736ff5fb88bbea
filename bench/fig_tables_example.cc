// Tables 2-4: replays the paper's worked example — the 15-item profile, the
// DRP splitting trace and the CDS refinement trace — printing each
// intermediate state next to the paper's reported numbers.
#include <cstdio>

#include "core/cds.h"
#include "core/drp.h"
#include "common/strings.h"
#include "common/table.h"
#include "workload/paper_example.h"

namespace {

void print_groups(const dbs::Allocation& alloc, const char* title) {
  std::printf("%s (total cost %.2f)\n", title, alloc.cost());
  const std::vector<std::vector<dbs::ItemId>> members = alloc.members();
  for (dbs::ChannelId c = 0; c < alloc.channels(); ++c) {
    std::printf("  group %u (cost %6.2f):", c + 1, alloc.channel_cost(c));
    for (dbs::ItemId id : members[c]) std::printf(" d%u", id + 1);
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace dbs;
  const Database db = paper_table2_database();

  std::puts("== Tables 2-4 — the paper's worked example (N=15, K=5) ==");
  std::printf("Table 2 check: 15 items, total size %.2f (paper: 135.60), "
              "total freq 1.0\n\n", db.total_size());

  // --- DRP trace (Table 3) -------------------------------------------------
  std::puts("Table 3 — DRP splitting trace:");
  for (ChannelId k = 1; k <= 5; ++k) {
    const DrpResult r = run_drp(db, k);
    std::printf("  %u group(s):", k);
    for (const DrpGroup& g : r.groups) std::printf(" %.2f", g.cost);
    std::printf("  (total %.2f)\n", r.allocation.cost());
  }
  std::puts("  paper: 135.60 -> {29.04, 28.62} -> {7.02, 6.82, 28.62} -> ... "
            "-> total 24.09");
  std::puts("  note: at the 4th split the paper's table deviates from its own "
            "max-cost rule; following the pseudocode strictly gives ~24.22 "
            "(see DESIGN.md).\n");

  // --- CDS trace from the paper's Table 4(a) grouping ----------------------
  std::vector<ChannelId> assignment(15, 0);
  auto set_group = [&](std::initializer_list<int> ids, ChannelId c) {
    for (int d : ids) assignment[static_cast<std::size_t>(d - 1)] = c;
  };
  set_group({9, 2, 3}, 0);
  set_group({6, 5, 15}, 1);
  set_group({1, 12}, 2);
  set_group({10, 13, 4, 8}, 3);
  set_group({14, 7, 11}, 4);
  Allocation alloc(db, 5, assignment);

  print_groups(alloc, "Table 4(a) — CDS initial state (paper: 24.09)");
  int iteration = 0;
  while (true) {
    const CdsMove move = best_move(alloc);
    if (move.gain <= 1e-12) break;
    alloc.move(move.item, move.to);
    ++iteration;
    std::printf("iteration %d: move d%u from group %u to group %u, dc=%.2f, "
                "cost=%.2f\n", iteration, move.item + 1, move.from + 1,
                move.to + 1, move.gain, alloc.cost());
  }
  std::puts("  paper: move d10 g4->g2 (dc=0.95, 23.13); move d12 g3->g2 "
            "(dc=0.45, 22.68); ... local optimum 22.29");
  print_groups(alloc, "\nFinal grouping (paper Table 4(d), cost 22.29)");
  return 0;
}
