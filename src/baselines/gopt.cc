#include "baselines/gopt.h"

#include <algorithm>
#include <utility>

#include "baselines/greedy.h"
#include "baselines/ordered_dp.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/cds.h"
#include "core/drp.h"

namespace dbs {
namespace {

// The GA's operators (gopt.h). Elitism relies on population ≥ kElites, which
// run_gopt checks.
constexpr std::size_t kTournament = 3;      // parents drawn per selection
constexpr double kCrossoverRate = 0.9;      // share of pairs crossed over
constexpr double kUniformCrossover = 0.5;   // share of crossovers that are uniform
constexpr double kMutationRate = 0.02;      // per-gene re-draw probability
constexpr std::size_t kElites = 2;          // individuals copied unchanged
// Every this many generations CDS polishes the generation's best and puts it
// back, which lets the GA leave local optima crossover alone cannot.
constexpr std::size_t kPolishInterval = 40;

using Chromosome = std::vector<ChannelId>;

/// Cost of a chromosome: Σ F_i·Z_i computed in one pass.
double chromosome_cost(const Database& db, ChannelId channels,
                       const Chromosome& genes) {
  std::vector<double> f(channels, 0.0), z(channels, 0.0);
  for (ItemId id = 0; id < genes.size(); ++id) {
    const Item& it = db.item(id);
    f[genes[id]] += it.freq;
    z[genes[id]] += it.size;
  }
  double cost = 0.0;
  for (ChannelId c = 0; c < channels; ++c) cost += f[c] * z[c];
  return cost;
}

struct Individual {
  Chromosome genes;
  double cost = 0.0;
};

}  // namespace

GoptResult run_gopt(const Database& db, ChannelId channels,
                    const GoptOptions& options) {
  const std::size_t n = db.size();
  DBS_CHECK(channels >= 1);
  DBS_CHECK_MSG(channels <= n, "cannot fill more channels than items");
  DBS_CHECK(options.population >= kElites);

  Rng rng(options.seed);
  std::uint64_t evaluations = 0;

  auto evaluate = [&](Individual& ind) {
    ind.cost = chromosome_cost(db, channels, ind.genes);
    ++evaluations;
  };

  // Every internal CDS polish shares the run's deadline, so a budgeted GOPT
  // cannot hide an unbounded local search inside a generation.
  CdsOptions polish_options;
  polish_options.deadline = options.deadline;

  // ---- initial population -------------------------------------------------
  std::vector<Individual> population(options.population);
  std::size_t next = 0;
  if (options.seed_with_heuristics) {
    // Memetic seeds: the paper's two-step heuristic and the DP-optimal
    // contiguous partition, each CDS-polished, plus plain greedy. With
    // elitism this makes GOPT never worse than any of them, matching its
    // role as the (near-)global-optimum reference.
    Allocation drp_polished = run_drp(db, channels).allocation;
    run_cds(drp_polished, polish_options);
    population[next].genes = drp_polished.assignment();
    evaluate(population[next++]);
    if (next < population.size() && !options.deadline.armed()) {
      // Skipped under any armed deadline (not just an expired one): the
      // ordered-DP seed is O(K·N²) with no cancellation point, so on large
      // instances it alone could overrun an entire race budget.
      Allocation dp_polished = ordered_dp_optimal(db, channels);
      run_cds(dp_polished, polish_options);
      population[next].genes = dp_polished.assignment();
      evaluate(population[next++]);
    }
    if (next < population.size()) {
      population[next].genes = greedy_insertion(db, channels).assignment();
      evaluate(population[next++]);
    }
  }
  for (; next < population.size(); ++next) {
    Chromosome genes(n);
    for (ItemId id = 0; id < n; ++id) {
      genes[id] = static_cast<ChannelId>(rng.below(channels));
    }
    population[next].genes = std::move(genes);
    evaluate(population[next]);
  }

  auto better = [](const Individual& a, const Individual& b) {
    return a.cost < b.cost;
  };

  Individual best = *std::min_element(population.begin(), population.end(), better);

  auto tournament_pick = [&]() -> const Individual& {
    const Individual* winner = &population[rng.below(population.size())];
    for (std::size_t t = 1; t < kTournament; ++t) {
      const Individual& challenger = population[rng.below(population.size())];
      if (challenger.cost < winner->cost) winner = &challenger;
    }
    return *winner;
  };

  // ---- generational loop --------------------------------------------------
  std::size_t generations_run = 0;
  std::size_t stall = 0;
  bool completed = true;
  std::vector<Individual> offspring(population.size());

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    if (options.deadline.expired()) {
      // Cooperative cancellation granule: one generation.
      completed = false;
      break;
    }
    ++generations_run;

    // Elitism: copy the best individuals unchanged.
    std::partial_sort(population.begin(),
                      population.begin() + static_cast<std::ptrdiff_t>(kElites),
                      population.end(), better);
    std::size_t produced = 0;
    for (; produced < kElites; ++produced) {
      offspring[produced] = population[produced];
    }

    while (produced < population.size()) {
      Individual child;
      const Individual& mother = tournament_pick();
      if (rng.chance(kCrossoverRate)) {
        const Individual& father = tournament_pick();
        child.genes.resize(n);
        if (rng.chance(kUniformCrossover)) {
          for (std::size_t i = 0; i < n; ++i) {
            child.genes[i] = rng.chance(0.5) ? mother.genes[i] : father.genes[i];
          }
        } else {
          const std::size_t cut = static_cast<std::size_t>(rng.below(n + 1));
          for (std::size_t i = 0; i < n; ++i) {
            child.genes[i] = i < cut ? mother.genes[i] : father.genes[i];
          }
        }
      } else {
        child.genes = mother.genes;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.chance(kMutationRate)) {
          child.genes[i] = static_cast<ChannelId>(rng.below(channels));
        }
      }
      evaluate(child);
      offspring[produced++] = std::move(child);
    }
    population.swap(offspring);

    // Memetic step: occasionally polish the generation's best individual to
    // its local optimum and put it back; recombination then explores from
    // refined material instead of half-finished assignments.
    if ((gen + 1) % kPolishInterval == 0) {
      auto best_it = std::min_element(population.begin(), population.end(), better);
      Allocation polished(db, channels, best_it->genes);
      run_cds(polished, polish_options);
      best_it->genes = polished.assignment();
      evaluate(*best_it);
    }

    const Individual& gen_best =
        *std::min_element(population.begin(), population.end(), better);
    if (gen_best.cost < best.cost) {
      best = gen_best;
      stall = 0;
    } else if (++stall >= options.stall_generations) {
      break;
    }
  }

  Allocation alloc(db, channels, best.genes);
  if (options.local_search_final) {
    // Memetic polish; strictly non-increasing in cost. Deadline-capped like
    // every other CDS run, so an expired budget still gets whatever moves
    // fit before returning.
    run_cds(alloc, polish_options);
  }
  const double final_cost = alloc.cost();
  return GoptResult{std::move(alloc), final_cost, generations_run, evaluations,
                    completed};
}

}  // namespace dbs
