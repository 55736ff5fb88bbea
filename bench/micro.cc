// Microbenchmarks (google-benchmark) for the primitive operations behind the
// paper's complexity analysis: the O(N) partition scan, the O(1) Δc formula,
// single CDS sweeps, full DRP / DRP-CDS / VF^K / GOPT runs, the workload
// generator and simulator substrates, and the broadcast program build.
#include <benchmark/benchmark.h>

#include "baselines/annealing.h"
#include "baselines/gopt.h"
#include "baselines/vfk.h"
#include "common/distributions.h"
#include "core/cds.h"
#include "core/drp.h"
#include "core/drp_cds.h"
#include "core/partition.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace {

using namespace dbs;

Database make_db(std::size_t n, std::uint64_t seed = 1) {
  return generate_database({.items = n, .skewness = 0.8, .diversity = 2.0,
                            .seed = seed});
}

void BM_ZipfGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf_probabilities(n, 0.8));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ZipfGeneration)->Range(64, 4096)->Complexity(benchmark::oN);

void BM_WorkloadGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generate_database({.items = n, .skewness = 0.8, .diversity = 2.0,
                           .seed = ++seed}));
  }
}
BENCHMARK(BM_WorkloadGeneration)->Range(64, 4096);

void BM_PartitionScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Database db = make_db(n);
  const auto& order = db.benefit_order();
  const PrefixSums sums(db, order);
  for (auto _ : state) {
    benchmark::DoNotOptimize(best_split(sums, 0, n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionScan)->Range(64, 16384)->Complexity(benchmark::oN);

void BM_MoveGain(benchmark::State& state) {
  const Database db = make_db(512);
  const Allocation alloc = run_drp(db, 8).allocation;
  ItemId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.move_gain(id, static_cast<ChannelId>(id % 8)));
    id = (id + 1) % 512;
  }
}
BENCHMARK(BM_MoveGain);

void BM_CdsSingleSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Database db = make_db(n);
  const Allocation start = run_drp(db, 8).allocation;
  for (auto _ : state) {
    Allocation alloc = start;
    benchmark::DoNotOptimize(best_move(alloc));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CdsSingleSweep)->Range(64, 2048)->Complexity(benchmark::oN);

void BM_DrpFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Database db = make_db(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_drp(db, 8));
  }
}
BENCHMARK(BM_DrpFull)->Range(64, 4096);

void BM_DrpCdsFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Database db = make_db(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_drp_cds(db, 8));
  }
}
BENCHMARK(BM_DrpCdsFull)->Range(64, 1024);

void BM_Vfk(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Database db = make_db(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_vfk(db, 8));
  }
}
BENCHMARK(BM_Vfk)->Range(64, 1024);

void BM_GoptSmallBudget(benchmark::State& state) {
  const Database db = make_db(120);
  GoptOptions o;
  o.population = 60;
  o.generations = 100;
  o.stall_generations = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_gopt(db, 6, o));
  }
}
BENCHMARK(BM_GoptSmallBudget)->Unit(benchmark::kMillisecond);

// DRP start, run to convergence. N = 5000, K = 16 is e2ebench
// plan_converge's shape, where CDS is nearly the whole plan.
void BM_CdsIndexedEngine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<ChannelId>(state.range(1));
  const Database db = make_db(n);
  const Allocation start = run_drp(db, k).allocation;
  for (auto _ : state) {
    Allocation alloc = start;
    benchmark::DoNotOptimize(run_cds(alloc));
  }
}
BENCHMARK(BM_CdsIndexedEngine)
    ->Args({128, 10})
    ->Args({1024, 10})
    ->Args({2048, 10})
    ->Args({5000, 16});

// The candidate index's worst layout: channel = rank mod K spreads every
// channel's members over the whole benefit order, so each fold walks two
// spans of about N ranks. Capped at 300 moves, the length of a polish
// from an interleaved start rather than a descent to convergence.
void BM_CdsInterleavedStart(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<ChannelId>(state.range(1));
  const Database db = make_db(n);
  std::vector<ChannelId> interleaved(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    interleaved[db.benefit_order()[rank]] = static_cast<ChannelId>(rank % k);
  }
  const Allocation start(db, k, interleaved);
  for (auto _ : state) {
    Allocation alloc = start;
    benchmark::DoNotOptimize(run_cds(alloc, {.max_iterations = 300}));
  }
}
BENCHMARK(BM_CdsInterleavedStart)
    ->Args({20000, 64})
    ->Args({100000, 512})
    ->Unit(benchmark::kMillisecond);

void BM_Annealing(benchmark::State& state) {
  const Database db = make_db(120);
  AnnealOptions o;
  o.steps = 50'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_annealing(db, 6, o));
  }
}
BENCHMARK(BM_Annealing)->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughput(benchmark::State& state) {
  const Database db = make_db(100);
  const Allocation alloc = run_drp_cds(db, 6).allocation;
  const BroadcastProgram program(alloc, 10.0);
  const auto trace = generate_trace(db, {.requests = 5000, .arrival_rate = 10.0,
                                         .seed = 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(program, trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 5000);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

void BM_AnalyticReplay(benchmark::State& state) {
  const Database db = make_db(100);
  const Allocation alloc = run_drp_cds(db, 6).allocation;
  const BroadcastProgram program(alloc, 10.0);
  const auto trace = generate_trace(db, {.requests = 5000, .arrival_rate = 10.0,
                                         .seed = 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay_analytic(program, trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 5000);
}
BENCHMARK(BM_AnalyticReplay)->Unit(benchmark::kMillisecond);

// The program build alone. The generator shuffles ids, so a DRP channel's
// items spread over the whole id range. (10^6, 512) is e2ebench
// plan_scale's shape.
void BM_ProgramBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<ChannelId>(state.range(1));
  const Database db = make_db(n);
  const Allocation alloc = run_drp(db, k).allocation;
  for (auto _ : state) {
    BroadcastProgram program(alloc, 10.0);
    benchmark::DoNotOptimize(program);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProgramBuild)
    ->Args({100000, 64})
    ->Args({1000000, 512})
    ->Unit(benchmark::kMillisecond);

}  // namespace
