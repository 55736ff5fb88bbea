#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
#include "core/kk_partition.h"

namespace dbs::bench {

Options Options::parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
      options.trials = 2;
    } else if (arg == "--trials" && i + 1 < argc) {
      options.trials = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (options.trials == 0) options.trials = 1;
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--csv" && i + 1 < argc) {
      options.csv_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trials N] [--threads N] [--csv PATH] [--quick]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return options;
}

Measurement measure(const Database& db, Algorithm algorithm, ChannelId channels,
                    double bandwidth, bool quick, std::uint64_t seed,
                    std::size_t cds_max_iterations) {
  ScheduleRequest request;
  request.algorithm = algorithm;
  request.channels = channels;
  request.bandwidth = bandwidth;
  request.gopt.seed = seed;
  if (quick) {
    request.gopt.population = 60;
    request.gopt.generations = 150;
    request.gopt.stall_generations = 50;
  }
  if (cds_max_iterations != 0) request.drp_cds.cds.max_iterations = cds_max_iterations;
  if (algorithm == Algorithm::kPortfolio) {
    // Bench rows must stay seed-deterministic: give the race a budget no
    // racer ever exhausts, so every racer runs to completion and the winner
    // depends only on the seeds, never on host timing.
    request.portfolio_deadline_ms = 60'000.0;
  }
  const ScheduleResult result = schedule(db, request);
  return Measurement{result.waiting_time, result.cost, result.elapsed_ms,
                     result.cost / broadcast_cost_lower_bound(db, channels)};
}

namespace {

// Runs one seeded trial. Seeds are pre-assigned (base_seed + trial), so the
// result depends only on the trial index, never on scheduling order.
Measurement run_trial(const WorkloadConfig& config, Algorithm algorithm,
                      ChannelId channels, double bandwidth,
                      const Options& options, std::uint64_t base_seed,
                      std::size_t trial) {
  WorkloadConfig cfg = config;
  cfg.seed = base_seed + trial;
  const Database db = generate_database(cfg);
  return measure(db, algorithm, channels, bandwidth, options.quick, cfg.seed,
                 options.cds_max_iterations);
}

}  // namespace

std::vector<Measurement> measure_trials(const WorkloadConfig& config,
                                        Algorithm algorithm, ChannelId channels,
                                        double bandwidth, const Options& options,
                                        std::uint64_t base_seed) {
  // Each trial writes only its own slot, so no two threads ever touch the
  // same element and no ordering between trials is assumed.
  std::vector<Measurement> per_trial(options.trials);
  run_tasks(options.trials, options.threads, [&](std::size_t trial) {
    per_trial[trial] = run_trial(config, algorithm, channels, bandwidth,
                                 options, base_seed, trial);
  });
  return per_trial;
}

Measurement average_over_trials(const WorkloadConfig& config, Algorithm algorithm,
                                ChannelId channels, double bandwidth,
                                const Options& options, std::uint64_t base_seed) {
  const std::vector<Measurement> per_trial =
      measure_trials(config, algorithm, channels, bandwidth, options, base_seed);
  // Reduce in trial order: floating-point addition is not associative, so a
  // fixed summation order is what keeps parallel == serial bit-for-bit.
  Measurement total;
  for (const Measurement& m : per_trial) {
    total.waiting_time += m.waiting_time;
    total.cost += m.cost;
    total.elapsed_ms += m.elapsed_ms;
    total.lb_gap += m.lb_gap;
  }
  const auto n = static_cast<double>(options.trials);
  return Measurement{total.waiting_time / n, total.cost / n, total.elapsed_ms / n,
                     total.lb_gap / n};
}

void emit(const AsciiTable& table, const Options& options,
          const std::vector<std::string>& csv_header,
          const std::vector<std::vector<double>>& csv_rows) {
  std::fputs(table.render().c_str(), stdout);
  if (!options.csv_path.empty()) {
    CsvWriter csv(options.csv_path, csv_header);
    for (const auto& row : csv_rows) csv.row_values(row);
    std::printf("csv: wrote %zu rows to %s\n", csv.rows_written(),
                options.csv_path.c_str());
  }
}

void banner(const std::string& figure, const std::string& description,
            const Options& options) {
  std::printf("== %s — %s (trials per point: %zu%s) ==\n", figure.c_str(),
              description.c_str(), options.trials, options.quick ? ", quick" : "");
}

}  // namespace dbs::bench
