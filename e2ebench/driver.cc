// Whole-path benchmark driver for the broadcast planner and service.
//
// Runs one workload as a single-threaded closed loop for --seconds, through
// public library calls only, checks every output, prints each metric by name
// and unit, and ends stdout with one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics; --trace 1 records the driver's
// own spans around each public call (and enables the library's obs::Tracer)
// on every other operation and reports per-layer metrics instead. The
// workloads, the metrics and what each layer should move are described in
// README.md next to this file.
//
//   e2ebench --workload plan_converge|plan_scale|serve_drift --seed N
//            --seconds S --trace 0|1 [--trace-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/scheduler.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/cds.h"
#include "core/drp.h"
#include "core/kk_partition.h"
#include "model/allocation.h"
#include "model/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server_loop.h"
#include "sim/program.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace {

using dbs::ChannelId;
using dbs::ItemId;

// Paper §4.1 environment shared by every workload.
constexpr double kSkew = 0.8;        // Zipf θ
constexpr double kDiversity = 2.0;   // size exponent range Φ
constexpr double kBandwidth = 10.0;  // b
// Set-up runs this many times before the first op, and again between ops
// while it has taken less than kSetupShare of the run. setup_s is the median
// of all of them, so it samples the whole run rather than one instant.
constexpr std::size_t kSetupReps = 3;
constexpr double kSetupShare = 0.05;
constexpr double kCostTolerance = 1e-9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

// Independent stream `stream` of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ULL);
  return dbs::splitmix64_next(state);
}

template <typename T>
void shuffle(std::vector<T>& v, dbs::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

std::vector<double> draw_sizes(std::size_t n, dbs::Rng& rng) {
  std::vector<double> sizes(n);
  for (double& z : sizes) z = dbs::sample_item_size(rng, kDiversity);
  return sizes;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool close_rel(double a, double b) {
  return std::abs(a - b) <= kCostTolerance * std::max(std::abs(a), std::abs(b));
}

// ---------------------------------------------------------------------------
// Output checks. A failed check is counted against its operation; the run
// continues.

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok && first_.empty()) first_ = what;
    ok_ = ok_ && ok;
  }
  bool ok() const { return ok_; }
  const std::string& first_failure() const { return first_; }

 private:
  bool ok_ = true;
  std::string first_;
};

void check_allocation(const dbs::Allocation& alloc, Checks& checks) {
  std::string error;
  checks.expect(alloc.validate(&error), "Allocation::validate: " + error);
  checks.expect(close_rel(alloc.cost(), alloc.cost_recomputed()),
                "cost() diverges from cost_recomputed()");
}

// Every item is placed exactly once, on its allocated channel, and every
// channel's cycle time is Z_i / b.
void check_program(const dbs::BroadcastProgram& program, const dbs::Allocation& alloc,
                   Checks& checks) {
  std::vector<std::uint8_t> seen(alloc.items(), 0);
  std::size_t placed = 0;
  bool placement_ok = program.channels() == alloc.channels();
  for (ChannelId c = 0; placement_ok && c < program.channels(); ++c) {
    const dbs::ChannelSchedule& schedule = program.schedule(c);
    checks.expect(close_rel(schedule.cycle_time, alloc.size_of(c) / kBandwidth),
                  "cycle_time of channel " + std::to_string(c) + " is not Z_i/b");
    for (const dbs::Slot& slot : schedule.slots) {
      placement_ok = slot.item < seen.size() && seen[slot.item] == 0 &&
                     alloc.channel_of(slot.item) == c;
      if (!placement_ok) break;
      seen[slot.item] = 1;
      ++placed;
    }
  }
  checks.expect(placement_ok && placed == alloc.items(),
                "BroadcastProgram does not place every item exactly once");
}

// ---------------------------------------------------------------------------
// Spans: the driver's own, around each public call, kept in memory and
// written out when the run ends. Timestamps use obs::Tracer's clock so the
// library's spans (enabled alongside) share one time base in the trace file.

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  long parent = -1;  // index into the span list; -1 for an operation's root
  std::size_t op = 0;
};

class SpanLog {
 public:
  std::size_t open(std::string name, std::size_t op) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back({std::move(name), now(), 0.0, parent, op});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_us = now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static double now() { return dbs::obs::Tracer::global().now_us(); }
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// Records a span when `log` is non-null; otherwise does nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::size_t op)
      : log_(log), index_(log != nullptr ? log->open(name, op) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

// Turns the library's obs::Tracer on for one traced operation.
class ProgramTracing {
 public:
  explicit ProgramTracing(bool on) : on_(on) {
    if (on_) dbs::obs::Tracer::global().enable();
  }
  ~ProgramTracing() {
    if (on_) dbs::obs::Tracer::global().disable();
  }
  ProgramTracing(const ProgramTracing&) = delete;
  ProgramTracing& operator=(const ProgramTracing&) = delete;

 private:
  bool on_;
};

// Per-name totals of the library's own spans (obs::Tracer), in ms.
std::map<std::string, double> program_span_ms() {
  std::map<std::string, double> totals;
  for (const dbs::obs::TraceEvent& e : dbs::obs::Tracer::global().events()) {
    if (e.ph == 'X') totals[e.name] += e.dur_us / 1e3;
  }
  return totals;
}

void write_trace(const std::string& path, const SpanLog& log) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "e2ebench: cannot write trace to %s\n", path.c_str());
    return;
  }
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
  bool first = true;
  auto event = [&](const std::string& name, double ts, double dur, const std::string& args) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << ts
        << ", \"dur\": " << dur << ", \"args\": {" << args << "}}";
    first = false;
  };
  for (const Span& s : log.spans()) {
    event(s.name, s.start_us, s.end_us - s.start_us,
          "\"op\": " + std::to_string(s.op) + ", \"parent\": " + std::to_string(s.parent) +
              ", \"source\": \"driver\"");
  }
  for (const dbs::obs::TraceEvent& e : dbs::obs::Tracer::global().events()) {
    if (e.ph == 'X') event(e.name, e.ts_us, e.dur_us, "\"source\": \"library\"");
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void e2e(std::string name, double value, std::string unit, std::string note = "") {
    e2e_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void layer(std::string name, double value, std::string unit, std::string note = "") {
    layer_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  // Printed for reading, never part of the JSON result.
  void info(std::string name, double value, std::string unit, std::string note = "") {
    info_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }

  // Prints every metric by name and unit, then the JSON result line holding
  // the end-to-end metrics (traced = false) or the per-layer ones.
  void print(bool traced, std::size_t attempted, std::size_t failed) const {
    auto lines = [](const char* title, const std::vector<Metric>& metrics) {
      std::printf("%s\n", title);
      for (const Metric& m : metrics) {
        std::printf("  %-28s %.17g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.empty() ? "" : "  # ", m.note.c_str());
      }
    };
    lines(traced ? "end-to-end (traced run, for reference only)" : "end-to-end", e2e_);
    if (traced) lines("per-layer", layer_);
    lines("not gated", info_);
    std::printf("  %-28s %.17g failed/attempted  # %zu of %zu\n", "fail_rate",
                ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
                attempted);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    const std::vector<Metric>& chosen = traced ? layer_ : e2e_;
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  chosen[i].name.c_str(), chosen[i].value, chosen[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Metric> info_;
};

// Every row any workload's layer table can have; a workload reports a zero
// share for the rows it does not run, so each run prints every metric.
constexpr const char* kLayerRows[] = {"model.database.build", "core.drp", "core.cds",
                                      "sim.program.build", "serve.repair", "serve.rebuild"};

// Prints the per-operation layer table, whose rows plus an explicit
// "unspanned" row add up to the traced operations' total wall time, and
// reports each row's share of it.
void report_layer_table(Report& report, const char* workload, std::size_t ops,
                        double op_total_ms, std::map<std::string, double> rows) {
  std::printf("layer self time, %s, %zu traced ops, %.3f ms total\n", workload, ops,
              op_total_ms);
  std::printf("  %-36s %12s %12s %8s\n", "layer", "total_ms", "per_op_ms", "share");
  auto row = [&](const std::string& name, double ms) {
    std::printf("  %-36s %12.3f %12.4f %7.2f%%\n", name.c_str(), ms,
                ratio(ms, static_cast<double>(ops)), 100.0 * ratio(ms, op_total_ms));
  };
  double spanned = 0.0;
  for (const char* name : kLayerRows) {
    const double ms = rows[name];
    if (ms > 0.0) row(name, ms);
    spanned += ms;
    report.layer(std::string(name) + ".share", ratio(ms, op_total_ms), "ratio");
  }
  row("unspanned", op_total_ms - spanned);
  row("= op wall", op_total_ms);
  report.layer("unspanned.share", ratio(op_total_ms - spanned, op_total_ms), "ratio");
}

void print_program_spans(const std::map<std::string, double>& totals) {
  std::printf("library spans (obs::Tracer, inclusive, traced ops)\n");
  for (const auto& [name, ms] : totals) std::printf("  %-36s %12.3f ms\n", name.c_str(), ms);
}

class SetupTimer {
 public:
  // Returns what `setup` built, so the work cannot be optimized away.
  template <typename F>
  auto time(F&& setup) {
    const dbs::Stopwatch watch;
    auto built = setup();
    samples_.push_back(watch.seconds());
    total_s_ += samples_.back();
    return built;
  }

  template <typename F>
  void between_ops(const dbs::Stopwatch& run, F&& setup) {
    if (total_s_ < kSetupShare * run.seconds()) time(setup);
  }

  void report(Report& report) const {
    report.e2e("setup_s", quantile(samples_, 0.5), "s",
               "median of " + std::to_string(samples_.size()) + " set-ups");
  }

 private:
  std::vector<double> samples_;
  double total_s_ = 0.0;
};

// Throughput is the gated timing. On a shared host, co-tenant load slows
// whole stretches of a run, and the per-op median then flips between the
// fast and the slow mode from run to run; the ops-per-second mean moves less
// (README.md, "End-to-end metrics"). The percentiles are printed only.
void report_op_times(Report& report, const std::vector<double>& ms, const char* op) {
  const double total_s = std::accumulate(ms.begin(), ms.end(), 0.0) / 1e3;
  report.e2e("ops_per_s", ratio(static_cast<double>(ms.size()), total_s), "1/s",
             std::string(op) + "s per second of " + op + " wall time");
  const std::string n = "n=" + std::to_string(ms.size()) + " " + op + "s";
  report.info("op_ms.p50", quantile(ms, 0.5), "ms", n);
  report.info("op_ms.p90", quantile(ms, 0.9), "ms", n);
}

// ---------------------------------------------------------------------------
// plan_converge / plan_scale: Database build → DRP → CDS → BroadcastProgram.

struct PlanShape {
  const char* name;
  std::size_t items;
  ChannelId channels;
  std::size_t max_moves;  // CdsOptions::max_iterations
  std::size_t pool;       // distinct instances, cycled; each is planned ≥ once
};

// plan_converge: CDS to convergence dominates, model and sim are ~0.
constexpr PlanShape kPlanConverge{"plan_converge", 5000, 16,
                                  std::numeric_limits<std::size_t>::max(), 8};
// plan_scale: catalogue scale with CDS capped, so model and sim show.
constexpr PlanShape kPlanScale{"plan_scale", 1000000, 512, 64, 2};

struct Instance {
  std::vector<double> sizes;
  std::vector<double> freqs;
};

std::vector<Instance> make_pool(const PlanShape& shape, std::uint64_t seed) {
  std::vector<Instance> pool(shape.pool);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    dbs::Rng rng(derive_seed(seed, 100 + i));
    pool[i].sizes = draw_sizes(shape.items, rng);
    pool[i].freqs = dbs::zipf_probabilities(shape.items, kSkew);
    shuffle(pool[i].freqs, rng);
  }
  return pool;
}

struct Plan {
  std::unique_ptr<dbs::Database> db;  // the allocation refers to it by address
  std::optional<dbs::Allocation> alloc;
  std::optional<dbs::BroadcastProgram> program;
  dbs::CdsStats cds;
};

// The timed operation. The same sequence as run_drp_cds, split so each phase
// gets its own span.
Plan plan_once(const Instance& in, const PlanShape& shape, const dbs::CdsOptions& cds,
               SpanLog* log, std::size_t op) {
  const ScopedSpan root(log, "plan", op);
  Plan p;
  {
    const ScopedSpan span(log, "model.database.build", op);
    p.db = std::make_unique<dbs::Database>(in.sizes, in.freqs);
  }
  {
    const ScopedSpan span(log, "core.drp", op);
    p.alloc.emplace(dbs::run_drp(*p.db, shape.channels).allocation);
  }
  {
    const ScopedSpan span(log, "core.cds", op);
    p.cds = dbs::run_cds(*p.alloc, cds);
  }
  {
    const ScopedSpan span(log, "sim.program.build", op);
    p.program.emplace(*p.alloc, kBandwidth);
  }
  return p;
}

// Deterministic results of an instance's first plan.
struct FirstPlan {
  bool seen = false;
  double cost = 0.0;
  double lb_gap = 0.0;
  dbs::CdsStats cds;
};

int run_plan(const Args& args, const PlanShape& shape) {
  Report report;
  SetupTimer setup;
  std::vector<Instance> pool;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    pool = setup.time([&] { return make_pool(shape, args.seed); });
  }

  dbs::CdsOptions cds_options;
  cds_options.max_iterations = shape.max_moves;
  SpanLog log;
  std::vector<FirstPlan> first(pool.size());
  std::vector<double> untraced_ms, traced_ms;
  std::size_t attempted = 0, failed = 0, traced_moves = 0;

  const dbs::Stopwatch run;
  // Whole passes over the pool, so every instance weighs equally in a run.
  for (std::size_t op = 0; op % pool.size() != 0 || op == 0 || run.seconds() < args.seconds;
       ++op) {
    const std::size_t i = op % pool.size();
    // Alternates within a pass and flips each pass, so every instance is
    // planned both traced and untraced.
    const bool traced = args.trace && (op / pool.size() + op) % 2 == 1;
    Checks checks;
    ++attempted;
    try {
      std::optional<Plan> plan;
      double ms = 0.0;
      {
        const ProgramTracing tracing(traced);
        const dbs::Stopwatch watch;
        plan.emplace(plan_once(pool[i], shape, cds_options, traced ? &log : nullptr, op));
        ms = watch.millis();
      }
      (traced ? traced_ms : untraced_ms).push_back(ms);
      if (traced) traced_moves += plan->cds.iterations;

      const dbs::Allocation& alloc = *plan->alloc;
      check_allocation(alloc, checks);
      checks.expect(plan->cds.final_cost == alloc.cost(), "CdsStats.final_cost != cost()");
      check_program(*plan->program, alloc, checks);
      const double gap =
          alloc.cost() / dbs::broadcast_cost_lower_bound(*plan->db, shape.channels);
      checks.expect(gap >= 1.0, "lb_gap < 1");
      if (!first[i].seen) {
        first[i] = {true, alloc.cost(), gap, plan->cds};
      } else {
        checks.expect(alloc.cost() == first[i].cost,
                      "re-planning instance " + std::to_string(i) + " changed its cost");
      }
      if (op == 0) {
        // The split path must measure the program users call.
        dbs::ScheduleRequest request;
        request.algorithm = dbs::Algorithm::kDrpCds;
        request.channels = shape.channels;
        request.bandwidth = kBandwidth;
        request.drp_cds.cds = cds_options;
        checks.expect(dbs::schedule(*plan->db, request).cost == alloc.cost(),
                      "run_drp + run_cds cost differs from schedule(kDrpCds)");
      }
    } catch (const std::exception& e) {
      checks.expect(false, std::string("exception: ") + e.what());
    }
    if (!checks.ok()) {
      ++failed;
      std::fprintf(stderr, "e2ebench: plan %zu failed: %s\n", op, checks.first_failure().c_str());
    }
    setup.between_ops(run, [&] { return make_pool(shape, args.seed); });
  }

  // Deterministic metrics come from each pool instance's first plan, so the
  // same seed gives bit-identical values however many plans a run completes.
  double gap_sum = 0.0, moves = 0.0, evaluated = 0.0, repairs = 0.0;
  std::size_t planned = 0;
  for (const FirstPlan& f : first) {
    if (!f.seen) continue;
    ++planned;
    gap_sum += f.lb_gap;
    moves += static_cast<double>(f.cds.iterations);
    evaluated += static_cast<double>(f.cds.moves_evaluated);
    repairs += static_cast<double>(f.cds.index_repairs);
  }
  const double n = static_cast<double>(planned);
  const std::string sizing = "N=" + std::to_string(shape.items) +
                             " K=" + std::to_string(shape.channels);

  report_op_times(report, untraced_ms, "plan");
  report.e2e("lb_gap", ratio(gap_sum, n), "ratio",
             "mean cost/KSY bound over " + std::to_string(planned) + " instances, " + sizing);
  setup.report(report);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  if (args.trace) {
    std::map<std::string, double> layer_ms;
    double op_total_ms = 0.0;
    std::size_t traced_ops = 0;
    for (const Span& s : log.spans()) {
      const double ms = (s.end_us - s.start_us) / 1e3;
      if (s.parent < 0) {
        op_total_ms += ms;
        ++traced_ops;
      } else {
        layer_ms[s.name] += ms;
      }
    }
    report_layer_table(report, shape.name, traced_ops, op_total_ms, layer_ms);
    print_program_spans(program_span_ms());

    const double ops = static_cast<double>(traced_ops);
    report.layer("model.database.build_ms", ratio(layer_ms["model.database.build"], ops), "ms");
    report.layer("core.drp.ms", ratio(layer_ms["core.drp"], ops), "ms");
    report.layer("core.cds.ms", ratio(layer_ms["core.cds"], ops), "ms");
    report.layer("core.cds.us_per_move",
                 ratio(layer_ms["core.cds"] * 1e3, static_cast<double>(traced_moves)), "us");
    report.layer("core.cds.moves", ratio(moves, n), "count", "per plan");
    report.layer("core.cds.moves_evaluated", ratio(evaluated, n), "count", "per plan");
    report.layer("core.cds.index_repairs", ratio(repairs, n), "count", "per plan");
    report.layer("core.cds.evaluated_per_move", ratio(evaluated, moves), "count");
    report.layer("sim.program.build_ms", ratio(layer_ms["sim.program.build"], ops), "ms");
    for (const char* name : {"serve.repair_ms", "serve.repair_moves", "serve.rebuild_ms",
                             "serve.escalations", "serve.adopted_rebuilds", "serve.other_ms"}) {
      report.layer(name, 0.0, std::string(name).ends_with("_ms") ? "ms" : "count",
                   "no serve loop in this workload");
    }
    report.layer("obs.trace_overhead",
                 ratio(quantile(traced_ms, 0.5), quantile(untraced_ms, 0.5)), "ratio",
                 "median traced / untraced plan");
    write_trace(args.trace_out, log);
  }
  report.print(args.trace, attempted, failed);
  return 0;
}

// ---------------------------------------------------------------------------
// serve_drift: BroadcastServerLoop under rotating Zipf popularity.

constexpr std::size_t kServeItems = 2000;
constexpr ChannelId kServeChannels = 10;
// Deterministic serve metrics cover this fixed epoch prefix; every run makes
// at least this many epochs (p90 then has ≥ 10 samples beyond it).
constexpr std::size_t kServeMinEpochs = 100;
constexpr std::size_t kReshuffleEvery = 25;

// Popularity drift: Zipf by rank, ranks rotating by N/50 every epoch and
// re-drawn every kReshuffleEvery epochs. Each window holds N requests.
class Drift {
 public:
  explicit Drift(std::uint64_t seed)
      : rng_(seed), zipf_(dbs::zipf_probabilities(kServeItems, kSkew)), rank_(kServeItems) {
    reshuffle();
  }

  std::vector<dbs::Request> window(std::size_t epoch) {
    if (epoch > 1) {
      if (epoch % kReshuffleEvery == 1) {
        reshuffle();
      } else {
        for (std::size_t& r : rank_) r = (r + kServeItems / 50) % kServeItems;
      }
    }
    std::vector<double> freqs(kServeItems);
    for (std::size_t item = 0; item < kServeItems; ++item) freqs[item] = zipf_[rank_[item]];
    const dbs::AliasSampler sampler(freqs);
    std::vector<dbs::Request> requests(kServeItems);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i] = {static_cast<double>(i), static_cast<ItemId>(sampler.sample(rng_))};
    }
    return requests;
  }

 private:
  void reshuffle() {
    for (std::size_t i = 0; i < rank_.size(); ++i) rank_[i] = i;
    shuffle(rank_, rng_);
  }

  dbs::Rng rng_;
  std::vector<double> zipf_;
  std::vector<std::size_t> rank_;  // popularity rank of each item
};

// The library's cumulative CDS work counters.
struct CdsCounts {
  std::uint64_t moves = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t repairs = 0;
};

CdsCounts cds_counts() {
  dbs::obs::MetricsRegistry& registry = dbs::obs::MetricsRegistry::global();
  return {registry.counter("core.cds.iterations").value(),
          registry.counter("core.cds.moves_evaluated").value(),
          registry.counter("core.cds.index_repairs").value()};
}

int run_serve(const Args& args) {
  Report report;
  dbs::ServerLoopConfig config;
  config.channels = kServeChannels;
  config.bandwidth = kBandwidth;

  auto make_server = [&] {
    dbs::Rng rng(derive_seed(args.seed, 1));
    return std::make_unique<dbs::BroadcastServerLoop>(draw_sizes(kServeItems, rng), config);
  };
  SetupTimer setup;
  std::unique_ptr<dbs::BroadcastServerLoop> server;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    server.reset();
    server = setup.time(make_server);
  }
  Drift drift(derive_seed(args.seed, 2));

  SpanLog log;
  std::vector<double> untraced_ms, traced_ms;
  std::size_t attempted = 0, failed = 0;
  std::size_t prev_version = server->snapshot()->version;
  // Fixed-prefix (deterministic) totals.
  double gap_sum = 0.0, repair_moves = 0.0, cds_moves = 0.0, evaluated = 0.0, repairs = 0.0;
  double escalations = 0.0, adopted = 0.0;
  // Traced-epoch totals.
  double repair_ms = 0.0, rebuild_ms = 0.0, traced_cds_moves = 0.0;

  const dbs::Stopwatch run;
  for (std::size_t epoch = 1; epoch <= kServeMinEpochs || run.seconds() < args.seconds;
       ++epoch) {
    const std::vector<dbs::Request> window = drift.window(epoch);
    const bool traced = args.trace && epoch % 2 == 0;
    Checks checks;
    ++attempted;
    try {
      dbs::EpochReport epoch_report;
      double ms = 0.0;
      const CdsCounts before = cds_counts();
      {
        const ProgramTracing tracing(traced);
        const ScopedSpan span(traced ? &log : nullptr, "epoch", epoch);
        const dbs::Stopwatch watch;
        epoch_report = server->observe_window(window);
        ms = watch.millis();
      }
      (traced ? traced_ms : untraced_ms).push_back(ms);

      const std::shared_ptr<const dbs::ProgramSnapshot> snap = server->snapshot();
      checks.expect(snap->version > prev_version, "snapshot version did not increase");
      checks.expect(snap->version == epoch_report.version,
                    "snapshot version differs from EpochReport.version");
      prev_version = snap->version;
      checks.expect(snap->cost == snap->alloc.cost(), "snapshot cost != alloc.cost()");
      check_allocation(snap->alloc, checks);
      const double gap = snap->cost / dbs::broadcast_cost_lower_bound(snap->db, kServeChannels);
      checks.expect(gap >= 1.0, "lb_gap < 1");

      const CdsCounts after = cds_counts();
      const auto moves = static_cast<double>(after.moves - before.moves);
      if (epoch <= kServeMinEpochs) {
        gap_sum += gap;
        repair_moves += static_cast<double>(epoch_report.repair_moves);
        cds_moves += moves;
        evaluated += static_cast<double>(after.evaluated - before.evaluated);
        repairs += static_cast<double>(after.repairs - before.repairs);
        escalations += epoch_report.escalated ? 1.0 : 0.0;
        adopted += epoch_report.adopted_rebuild ? 1.0 : 0.0;
      }
      if (traced) {
        repair_ms += epoch_report.repair_ms;
        rebuild_ms += epoch_report.rebuild_ms;
        traced_cds_moves += moves;
      }
    } catch (const std::exception& e) {
      checks.expect(false, std::string("exception: ") + e.what());
    }
    if (!checks.ok()) {
      ++failed;
      std::fprintf(stderr, "e2ebench: epoch %zu failed: %s\n", epoch,
                   checks.first_failure().c_str());
    }
    setup.between_ops(run, make_server);
  }

  const double prefix = static_cast<double>(kServeMinEpochs);
  report_op_times(report, untraced_ms, "epoch");
  report.e2e("lb_gap", gap_sum / prefix, "ratio",
             "mean on-air cost/KSY bound over the first " + std::to_string(kServeMinEpochs) +
                 " epochs, N=" + std::to_string(kServeItems) +
                 " K=" + std::to_string(kServeChannels));
  setup.report(report);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  if (args.trace) {
    double op_total_ms = 0.0;
    for (const Span& s : log.spans()) op_total_ms += (s.end_us - s.start_us) / 1e3;
    const std::size_t traced_ops = log.spans().size();
    const double ops = static_cast<double>(traced_ops);
    const double other_ms = op_total_ms - repair_ms - rebuild_ms;
    // EpochReport's own stopwatches split an epoch; the remainder is
    // serve.other (estimate fold, Database rebuild, snapshot, registry copy).
    report_layer_table(report, "serve_drift", traced_ops, op_total_ms,
                       {{"serve.repair", repair_ms}, {"serve.rebuild", rebuild_ms}});
    const std::map<std::string, double> library = program_span_ms();
    print_program_spans(library);
    auto library_ms = [&](const char* name) {
      const auto it = library.find(name);
      return it == library.end() ? 0.0 : it->second;
    };

    report.layer("model.database.build_ms", 0.0, "ms", "inside serve.other here");
    report.layer("core.drp.ms", ratio(library_ms("core.drp.run"), ops), "ms");
    report.layer("core.cds.ms", ratio(library_ms("core.cds.run"), ops), "ms");
    report.layer("core.cds.us_per_move",
                 ratio(library_ms("core.cds.run") * 1e3, traced_cds_moves), "us");
    report.layer("core.cds.moves", cds_moves / prefix, "count", "per epoch");
    report.layer("core.cds.moves_evaluated", evaluated / prefix, "count", "per epoch");
    report.layer("core.cds.index_repairs", repairs / prefix, "count", "per epoch");
    report.layer("core.cds.evaluated_per_move", ratio(evaluated, cds_moves), "count");
    report.layer("sim.program.build_ms", 0.0, "ms", "no BroadcastProgram in the serve loop");
    report.layer("serve.repair_ms", ratio(repair_ms, ops), "ms");
    report.layer("serve.repair_moves", repair_moves / prefix, "count", "per epoch");
    report.layer("serve.rebuild_ms", ratio(rebuild_ms, ops), "ms");
    report.layer("serve.escalations", escalations, "count",
                 "in the first " + std::to_string(kServeMinEpochs) + " epochs");
    report.layer("serve.adopted_rebuilds", adopted, "count",
                 "in the first " + std::to_string(kServeMinEpochs) + " epochs");
    report.layer("serve.other_ms", ratio(other_ms, ops), "ms");
    report.layer("obs.trace_overhead",
                 ratio(quantile(traced_ms, 0.5), quantile(untraced_ms, 0.5)), "ratio",
                 "median traced / untraced epoch");
    write_trace(args.trace_out, log);
  }
  report.print(args.trace, attempted, failed);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload plan_converge|plan_scale|serve_drift --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  if (args.workload == kPlanConverge.name) return run_plan(args, kPlanConverge);
  if (args.workload == kPlanScale.name) return run_plan(args, kPlanScale);
  if (args.workload == "serve_drift") return run_serve(args);
  return usage();
}
