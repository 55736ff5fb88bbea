// perfsuite — the repo's performance trajectory recorder.
//
// Runs a pinned matrix of DRP / DRP-CDS / VF^K / GOPT configurations (the
// paper's Table-5 midpoints plus an N=2000 scale point), the multilevel
// planner and the online service, and emits a
// machine-readable BENCH_<sha>.json with the per-config median and IQR of
// wall time, cost, waiting time and lb_gap (cost ÷ the KSY lower bound,
// computed outside the timed call), each trial's work counts, plus host
// metadata. tools/perf_compare.py diffs two such files and gates CI on any
// cost, wait, lb_gap or churn drift and on any work count above the
// baseline's; all are seeded, so they repeat on every host. Wall times are
// recorded, not gated.
//
//   perfsuite [--out PATH] [--sha LABEL] [--trials N] [--gate]
//             [--metrics-out PATH] [--trace-out PATH]
//
// --metrics-out dumps the process-global metrics registry (every counter the
// schedulers incremented across the whole run) as dbs-metrics-v1 JSON —
// pretty-print it with tools/obs_dump. --trace-out enables the scoped-span
// tracer before the matrix runs and writes Chrome trace-event JSON, loadable
// in chrome://tracing or Perfetto. Both files are empty shells when the
// build has DBS_OBS=OFF, since the no-op macros record nothing; the BENCH
// file then says "obs": false and has no work blocks.
//
// --gate shrinks the run for CI: the heavy configs are skipped (compare gate
// files against a full baseline with perf_compare.py --subset), but every
// light config keeps all its seeded trials. Trials always run serially, one
// at a time, so each trial's counter growth is its own; per-trial seeds are
// fixed, so every cost and count in the file is reproducible bit-for-bit.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/kk_partition.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/server_loop.h"
#include "workload/generator.h"

namespace {

using dbs::Algorithm;
using dbs::ChannelId;
using dbs::WorkloadConfig;
using dbs::json_escape;
using dbs::bench::Measurement;
using dbs::bench::Options;

struct SuiteConfig {
  const char* name;       // stable key perf_compare matches on
  Algorithm algorithm;
  std::size_t items;
  ChannelId channels;
  double skewness;
  double diversity;
  double bandwidth;
  std::uint64_t base_seed;
  bool heavy;                          // skipped in --gate mode
  std::size_t cds_max_iterations = 0;  // 0 = run CDS to convergence
  bool serve_drift = false;  // scripted server-loop scenario, not one planner run
};

// The pinned matrix. Midpoint rows use the paper's Table-5 midpoints
// (N=120, K=6, θ=0.8, Φ=2, b=10) with the same seed base as the figure
// benches; scale rows stress the hot paths at N=2000, K=10. Changing any
// row invalidates comparisons against older BENCH files — add new rows
// instead of editing existing ones.
//
// The scale1e5/scale1e6 rows track the columnar + candidate-index hot path
// (docs/ARCHITECTURE.md §3/§5). Their drp-cds runs cap CDS at 64 iterations:
// CDS-to-convergence applies Θ(N) moves, so an unbounded row would time the
// move count, not the per-iteration machinery these rows exist to pin.
constexpr double kSkew = 0.8, kPhi = 2.0, kBandwidth = 10.0;
const SuiteConfig kMatrix[] = {
    {"midpoint/drp", Algorithm::kDrp, 120, 6, kSkew, kPhi, kBandwidth, 1000, false},
    {"midpoint/drp-cds", Algorithm::kDrpCds, 120, 6, kSkew, kPhi, kBandwidth, 1000,
     false},
    {"midpoint/vfk", Algorithm::kVfk, 120, 6, kSkew, kPhi, kBandwidth, 1000, false},
    {"midpoint/gopt", Algorithm::kGopt, 120, 6, kSkew, kPhi, kBandwidth, 1000, false},
    // The budgeted optimizer portfolio (DESIGN.md §13) on the same midpoint
    // workloads. The harness gives bench portfolio runs a deadline no racer
    // exhausts, so all three racers finish and the winner's cost is as
    // seed-deterministic as every other row; by construction it is ≤ the
    // midpoint/drp-cds cost at the same trial seeds. wall_ms is the whole
    // race (racers run concurrently, timeshared on small hosts).
    {"midpoint/portfolio", Algorithm::kPortfolio, 120, 6, kSkew, kPhi, kBandwidth,
     1000, false},
    {"scale2000/drp", Algorithm::kDrp, 2000, 10, kSkew, kPhi, kBandwidth, 7000, false},
    {"scale2000/drp-cds", Algorithm::kDrpCds, 2000, 10, kSkew, kPhi, kBandwidth, 7000,
     false},
    {"scale2000/vfk", Algorithm::kVfk, 2000, 10, kSkew, kPhi, kBandwidth, 7000, false},
    {"scale2000/gopt", Algorithm::kGopt, 2000, 10, kSkew, kPhi, kBandwidth, 7000,
     true},
    // The multilevel V-cycle (core/multilevel.h) on the scale2000 workloads,
    // run to convergence like scale2000/drp-cds.
    {"scale2000/ml", Algorithm::kMultilevel, 2000, 10, kSkew, kPhi, kBandwidth,
     7000, false},
    {"scale1e5/drp", Algorithm::kDrp, 100000, 64, kSkew, kPhi, kBandwidth, 9000,
     true},
    {"scale1e5/drp-cds", Algorithm::kDrpCds, 100000, 64, kSkew, kPhi, kBandwidth,
     9000, false, 64},
    {"scale1e6/drp", Algorithm::kDrp, 1000000, 512, kSkew, kPhi, kBandwidth, 9100,
     true},
    {"scale1e6/drp-cds", Algorithm::kDrpCds, 1000000, 512, kSkew, kPhi, kBandwidth,
     9100, true, 64},
    // The online re-allocation service (DESIGN.md §12): a scripted 30-epoch
    // hot-set-rotation scenario through BroadcastServerLoop. wall_ms is the
    // summed observe_window() wall over all epochs (estimate + multilevel
    // re-plan + relabel), so wall/30 is the mean epoch latency; the extra
    // "churn" metric is the per-trial mean share of items an epoch moved
    // (seeded, hence deterministic). The row keeps the algorithm label it
    // was first recorded under, so older snapshots stay comparable.
    {"serve_drift/rotate30", Algorithm::kDrpCds, 120, 6, kSkew, kPhi, kBandwidth,
     11000, false, 0, true},
};

// One scripted serve_drift trial: 6 warm-up epochs of stable Zipf traffic,
// 18 epochs with the popularity ranks rotating by 7 positions each, then 6
// steady epochs back. Everything derives from `seed`, so cost/wait/churn are
// reproducible bit-for-bit like every other row.
struct ServeDriftSample {
  double wall_ms = 0.0;        // Σ observe_window wall across the 30 epochs
  double cost = 0.0;           // final on-air program cost
  double waiting_time = 0.0;   // final on-air W_b
  double lb_gap = 0.0;         // final on-air cost ÷ KSY bound
  double churn = 0.0;          // mean EpochReport::churn over the 30 epochs
};

ServeDriftSample run_serve_drift_trial(const SuiteConfig& config,
                                       std::uint64_t seed) {
  dbs::Rng rng(seed);
  std::vector<double> sizes(config.items);
  for (double& z : sizes) z = dbs::sample_item_size(rng, config.diversity);
  dbs::BroadcastServerLoop server(
      std::move(sizes),
      {.channels = config.channels, .bandwidth = config.bandwidth});
  std::vector<double> freqs =
      dbs::zipf_probabilities(config.items, config.skewness);

  ServeDriftSample sample;
  constexpr std::size_t kEpochs = 30, kWindow = 3000;
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch >= 6 && epoch < 24) {
      std::rotate(freqs.begin(), freqs.begin() + 7, freqs.end());
    }
    const dbs::AliasSampler sampler(freqs);
    std::vector<dbs::Request> window;
    window.reserve(kWindow);
    for (std::size_t i = 0; i < kWindow; ++i) {
      window.push_back({static_cast<double>(i),
                        static_cast<dbs::ItemId>(sampler.sample(rng))});
    }
    const dbs::Stopwatch watch;
    const dbs::EpochReport report = server.observe_window(window);
    sample.wall_ms += watch.millis();
    sample.churn += report.churn / static_cast<double>(kEpochs);
  }
  const std::shared_ptr<const dbs::ProgramSnapshot> final = server.snapshot();
  sample.cost = final->cost;
  sample.waiting_time = final->waiting_time;
  sample.lb_gap =
      final->cost / dbs::broadcast_cost_lower_bound(final->db, config.channels);
  return sample;
}

// Reads the first "model name" line of /proc/cpuinfo; "unknown" elsewhere.
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ' || model.front() == '\t')) {
          model.erase(model.begin());
        }
        while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

void json_number_list(std::FILE* f, const std::vector<double>& values) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::fputc(']', f);
}

// Median/IQR block for one metric: the per-trial sample is persisted so
// perf_compare can diff files with different trial counts over the common
// seed prefix.
void json_metric(std::FILE* f, const char* key, const std::vector<double>& values) {
  const double p25 = dbs::percentile(values, 0.25);
  const double p75 = dbs::percentile(values, 0.75);
  std::fprintf(f, "      \"%s\": {\"median\": %.17g, \"p25\": %.17g, "
               "\"p75\": %.17g, \"iqr\": %.17g, \"per_trial\": ",
               key, dbs::percentile(values, 0.5), p25, p75, p75 - p25);
  json_number_list(f, values);
  std::fputs("}", f);
}

// The library counters a trial's work is measured by: CDS moves, Eq. 4
// gains evaluated, index positions repaired, span ranks the folds read to
// find the touched channels' members, DRP split points priced and the
// catalogue sort's radix passes. Each is deterministic per seed, so
// perf_compare gates them exactly: a count above the baseline's on the same
// trial is work a change added. A DBS_OBS=OFF build counts nothing.
constexpr bool kCountsWork = DBS_OBS_ENABLED != 0;
constexpr std::array<const char*, 6> kWorkCounters = {
    "core.cds.iterations", "core.cds.moves_evaluated", "core.cds.index_repairs",
    "core.cds.span_ranks", "core.partition.split_candidates", "model.database.radix_passes"};
using WorkCounts = std::array<std::uint64_t, kWorkCounters.size()>;

WorkCounts work_counts() {
  WorkCounts counts{};
  for (std::size_t c = 0; c < counts.size(); ++c) {
    counts[c] = dbs::obs::MetricsRegistry::global().counter(kWorkCounters[c]).value();
  }
  return counts;
}

// The work block: one per-trial count list per counter.
void json_work(std::FILE* f, const std::vector<WorkCounts>& trials) {
  std::fputs("      \"work\": {", f);
  for (std::size_t c = 0; c < kWorkCounters.size(); ++c) {
    std::fprintf(f, "%s\n        \"%s\": [", c == 0 ? "" : ",", kWorkCounters[c]);
    for (std::size_t t = 0; t < trials.size(); ++t) {
      std::fprintf(f, "%s%llu", t == 0 ? "" : ", ",
                   static_cast<unsigned long long>(trials[t][c]));
    }
    std::fputc(']', f);
  }
  std::fputs("\n      }", f);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out PATH] [--sha LABEL] [--trials N] [--gate]\n"
               "          [--metrics-out PATH] [--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string sha = "local";
  Options options;
  options.trials = 9;
  options.threads = 1;  // always serial (see the header comment)
  bool gate = false;
  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--sha" && i + 1 < argc) {
      sha = argv[++i];
    } else if (arg == "--trials" && i + 1 < argc) {
      options.trials = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (options.trials == 0) options.trials = 1;
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (out_path.empty()) out_path = "BENCH_" + sha + ".json";
  // Spans only cost anything when something will consume them; wall times in
  // the emitted BENCH file therefore include tracing overhead iff the caller
  // asked for a trace.
  if (!trace_out.empty()) dbs::obs::Tracer::global().enable();

  std::printf("== perfsuite — %zu trials/config, %s mode ==\n", options.trials,
              gate ? "gate" : "full");

  dbs::AsciiTable table({"config", "wall ms (median)", "wall ms (IQR)",
                         "cost (median)"});
  struct Row {
    const SuiteConfig* config;
    std::vector<double> wall, cost, wait, lb_gap;
    std::vector<double> churn;  // serve_drift rows only
    std::vector<WorkCounts> work;
  };
  std::vector<Row> rows;
  for (const SuiteConfig& config : kMatrix) {
    if (gate && config.heavy) {
      std::printf("   %-18s skipped (heavy config, gate mode)\n", config.name);
      continue;
    }
    const WorkloadConfig workload{.items = config.items,
                                  .skewness = config.skewness,
                                  .diversity = config.diversity,
                                  .seed = 0};
    // measure_trials seeds trial t of a batch as base + t, so a 1-trial
    // batch at base + t reproduces exactly the same measurement.
    Row row{&config, {}, {}, {}, {}, {}, {}};
    Options one_trial = options;
    one_trial.trials = 1;
    one_trial.cds_max_iterations = config.cds_max_iterations;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      const WorkCounts before = kCountsWork ? work_counts() : WorkCounts{};
      double wall_ms, cost, wait, lb_gap;
      if (config.serve_drift) {
        const ServeDriftSample sample =
            run_serve_drift_trial(config, config.base_seed + trial);
        wall_ms = sample.wall_ms;
        cost = sample.cost;
        wait = sample.waiting_time;
        lb_gap = sample.lb_gap;
        row.churn.push_back(sample.churn);
      } else {
        const std::vector<Measurement> batch = dbs::bench::measure_trials(
            workload, config.algorithm, config.channels, config.bandwidth,
            one_trial, config.base_seed + trial);
        const Measurement& m = batch.front();
        wall_ms = m.elapsed_ms;
        cost = m.cost;
        wait = m.waiting_time;
        lb_gap = m.lb_gap;
      }
      if (kCountsWork) {
        WorkCounts grown = work_counts();
        for (std::size_t c = 0; c < grown.size(); ++c) grown[c] -= before[c];
        row.work.push_back(grown);
      }
      row.wall.push_back(wall_ms);
      row.cost.push_back(cost);
      row.wait.push_back(wait);
      row.lb_gap.push_back(lb_gap);
    }
    table.add_row(config.name,
                  {dbs::percentile(row.wall, 0.5),
                   dbs::percentile(row.wall, 0.75) - dbs::percentile(row.wall, 0.25),
                   dbs::percentile(row.cost, 0.5)},
                  3);
    rows.push_back(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfsuite: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"dbs-bench-v1\",\n");
  std::fprintf(f, "  \"sha\": \"%s\",\n", json_escape(sha).c_str());
  std::fprintf(f, "  \"mode\": \"%s\",\n", gate ? "gate" : "full");
  std::fprintf(f, "  \"trials\": %zu,\n", options.trials);
  std::fprintf(f, "  \"threads\": %zu,\n", options.threads);
  std::fprintf(f, "  \"obs\": %s,\n", kCountsWork ? "true" : "false");
  std::fprintf(f, "  \"host\": {\"cpu_model\": \"%s\", \"hardware_threads\": %u, "
               "\"compiler\": \"%s\", \"build_flavor\": \"%s\"},\n",
               json_escape(cpu_model()).c_str(),
               std::thread::hardware_concurrency(), json_escape(__VERSION__).c_str(),
               json_escape(DBS_BENCH_FLAVOR).c_str());
  std::fputs("  \"configs\": [\n", f);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SuiteConfig& config = *rows[i].config;
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n", config.name);
    std::fprintf(f, "      \"algorithm\": \"%s\",\n",
                 std::string(dbs::algorithm_name(config.algorithm)).c_str());
    std::fprintf(f, "      \"items\": %zu, \"channels\": %u, "
                 "\"skewness\": %.17g, \"diversity\": %.17g, "
                 "\"bandwidth\": %.17g, \"base_seed\": %llu, "
                 "\"cds_max_iterations\": %zu,\n",
                 config.items, static_cast<unsigned>(config.channels),
                 config.skewness, config.diversity, config.bandwidth,
                 static_cast<unsigned long long>(config.base_seed),
                 config.cds_max_iterations);
    json_metric(f, "wall_ms", rows[i].wall);
    std::fputs(",\n", f);
    json_metric(f, "cost", rows[i].cost);
    std::fputs(",\n", f);
    json_metric(f, "wait", rows[i].wait);
    std::fputs(",\n", f);
    json_metric(f, "lb_gap", rows[i].lb_gap);
    if (!rows[i].churn.empty()) {
      std::fputs(",\n", f);
      json_metric(f, "churn", rows[i].churn);
    }
    if (kCountsWork) {
      std::fputs(",\n", f);
      json_work(f, rows[i].work);
    }
    std::fprintf(f, "\n    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fputs("  ]\n}\n", f);
  std::fclose(f);
  std::printf("perfsuite: wrote %s (%zu configs)\n", out_path.c_str(), rows.size());

  if (!metrics_out.empty()) {
    const dbs::obs::MetricsSnapshot snapshot =
        dbs::obs::MetricsRegistry::global().snapshot();
    if (!dbs::obs::write_json_file(snapshot, metrics_out)) {
      std::fprintf(stderr, "perfsuite: cannot open %s for writing\n",
                   metrics_out.c_str());
      return 1;
    }
    std::printf("perfsuite: wrote %s (%zu instruments)\n", metrics_out.c_str(),
                snapshot.size());
  }
  if (!trace_out.empty()) {
    dbs::obs::Tracer& tracer = dbs::obs::Tracer::global();
    tracer.disable();
    if (!tracer.write_json_file(trace_out)) {
      std::fprintf(stderr, "perfsuite: cannot open %s for writing\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("perfsuite: wrote %s (%zu events, %llu dropped)\n",
                trace_out.c_str(), tracer.events().size(),
                static_cast<unsigned long long>(tracer.dropped()));
  }
  return 0;
}
