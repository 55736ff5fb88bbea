// Shared driver for the figure-reproduction benches. Each bench binary
// defines one experiment of the paper's §4 and prints the same series the
// paper plots; this harness supplies option parsing, trial averaging (serial
// or thread-pooled, bit-identical either way), table rendering and CSV
// output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/scheduler.h"
#include "common/table.h"
#include "model/database.h"
#include "workload/generator.h"

namespace dbs::bench {

/// \brief Command-line options shared by every figure bench.
struct Options {
  std::size_t trials = 8;   ///< seeds averaged per data point
  std::size_t threads = 0;  ///< worker threads for trial averaging; 0 = one
                            ///< per hardware core (capped at the trial count)
  std::string csv_path;     ///< empty = no CSV dump
  bool quick = false;       ///< --quick: 2 trials, reduced GOPT budget

  /// CDS iteration cap for kDrpCds trials; 0 (the default) runs to
  /// convergence as the paper does. The perfsuite's million-item scale rows
  /// set this: CDS-to-convergence takes Θ(N) iterations, so an unbounded run
  /// at N=10^6 would measure the workload size, not the per-iteration cost
  /// the rows are pinned to track.
  std::size_t cds_max_iterations = 0;

  /// \brief Parses `--trials N`, `--threads N`, `--csv PATH`, `--quick`.
  ///
  /// `argc`/`argv` are the untouched `main` arguments; flag values must
  /// follow their flag as the next argument. Unknown flags abort with a
  /// usage message (exit status 2). `--trials 0` is clamped to 1;
  /// `--threads 0` (the default) means auto-detect.
  static Options parse(int argc, char** argv);
};

/// \brief The paper's default simulation parameters (Table 5 midpoints).
struct Defaults {
  std::size_t items = 120;
  ChannelId channels = 6;
  double skewness = 0.8;
  double diversity = 2.0;
  double bandwidth = 10.0;
};

/// \brief Measurement of one algorithm on one workload (or the mean of
/// several trials — see average_over_trials).
struct Measurement {
  double waiting_time = 0.0;  ///< W_b (paper Eq. 2) at the requested bandwidth
  double cost = 0.0;          ///< Σ F_i·Z_i (paper Eq. 3)
  double elapsed_ms = 0.0;    ///< wall-clock runtime of the algorithm proper
  double lb_gap = 0.0;        ///< cost ÷ broadcast_cost_lower_bound, untimed
};

/// \brief Runs `algorithm` on `db` and reports waiting time / cost / runtime.
///
/// `channels` and `bandwidth` parameterize the schedule request; `seed`
/// seeds the stochastic algorithms (GOPT's GA, both standalone and inside
/// the portfolio), so equal seeds give bit-identical cost and waiting time.
/// When `quick` is set, GOPT receives a scaled-down budget (population 60,
/// 150 generations) for smoke runs. `cds_max_iterations` follows the
/// Options convention (0 = unbounded). kPortfolio runs get a 60 s race
/// deadline no racer exhausts, so bench portfolio results stay
/// seed-deterministic instead of host-timing-dependent.
Measurement measure(const Database& db, Algorithm algorithm, ChannelId channels,
                    double bandwidth, bool quick, std::uint64_t seed,
                    std::size_t cds_max_iterations = 0);

/// \brief Averages `measure` over `options.trials` seeded workloads drawn
/// from `config` (trial t uses seed `base_seed + t` for both the workload
/// and the algorithm).
///
/// Trials are independent, so they run on a fixed-size pool of
/// `options.threads` workers (0 = one per hardware core). Each trial writes
/// only its own slot and the reduction always sums in trial order, so the
/// returned waiting time and cost are bit-identical to the serial path no
/// matter the thread count; only `elapsed_ms` (a wall-clock reading) varies
/// between runs.
Measurement average_over_trials(const WorkloadConfig& config, Algorithm algorithm,
                                ChannelId channels, double bandwidth,
                                const Options& options, std::uint64_t base_seed);

/// \brief Runs `measure` once per trial as average_over_trials does (same
/// pool, same per-trial seeds) and returns the `options.trials` individual
/// Measurements in trial order. Used by perfsuite, which needs the per-trial
/// sample to report medians and IQRs instead of means.
std::vector<Measurement> measure_trials(const WorkloadConfig& config,
                                        Algorithm algorithm, ChannelId channels,
                                        double bandwidth, const Options& options,
                                        std::uint64_t base_seed);

/// \brief Emits `table` to stdout and, when `--csv` was given, writes
/// `csv_header` + `csv_rows` to the CSV file (one value per cell, same
/// column order as the header).
void emit(const AsciiTable& table, const Options& options,
          const std::vector<std::string>& csv_header,
          const std::vector<std::vector<double>>& csv_rows);

/// \brief Prints the standard bench banner: `figure` identifies the paper
/// artifact, `description` the sweep, and `options` contributes the trial /
/// quick-mode suffix.
void banner(const std::string& figure, const std::string& description,
            const Options& options);

}  // namespace dbs::bench
