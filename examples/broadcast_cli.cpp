// broadcast_cli — command-line front end to the library.
//
//   broadcast_cli algorithms
//       list the available channel-allocation algorithms
//   broadcast_cli generate --items N [--theta T] [--phi P] [--seed S]
//       emit a synthetic catalogue (CSV on stdout) per the paper's model
//   broadcast_cli schedule --catalog FILE --channels K
//                 [--algorithm NAME] [--bandwidth B] [--simulate REQUESTS]
//       load a catalogue, build a broadcast program, print the layout and
//       expected waiting time; optionally validate with the DES
//   broadcast_cli plan --catalog FILE --total-bandwidth B [--max-channels K]
//       sweep channel counts under a fixed total bandwidth and report the
//       waiting-time-optimal K
//
// Run with no arguments for this usage text.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "api/planner.h"
#include "api/scheduler.h"
#include "sim/simulator.h"
#include "workload/catalog_io.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace {

using namespace dbs;

int usage() {
  std::puts(
      "usage:\n"
      "  broadcast_cli algorithms\n"
      "  broadcast_cli generate --items N [--theta T] [--phi P] [--seed S]\n"
      "  broadcast_cli schedule --catalog FILE --channels K\n"
      "                [--algorithm NAME] [--bandwidth B] [--simulate REQUESTS]\n"
      "  broadcast_cli plan --catalog FILE --total-bandwidth B [--max-channels K]");
  return 0;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad or valueless flag: " + arg);
    }
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::string flag_or(const std::map<std::string, std::string>& flags,
                    const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int cmd_algorithms() {
  for (const AlgorithmInfo& info : all_algorithms()) {
    std::printf("%-14s %s%s\n", std::string(info.name).c_str(),
                std::string(info.summary).c_str(),
                info.exponential ? " [exponential: small N only]" : "");
  }
  return 0;
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
  WorkloadConfig config;
  config.items = std::stoul(flag_or(flags, "items", "120"));
  config.skewness = std::stod(flag_or(flags, "theta", "0.8"));
  config.diversity = std::stod(flag_or(flags, "phi", "2.0"));
  config.seed = std::stoull(flag_or(flags, "seed", "1"));
  const Database db = generate_database(config);
  const Catalog catalog{db, std::vector<std::string>(db.size())};
  store_catalog(std::cout, catalog);
  return 0;
}

int cmd_schedule(const std::map<std::string, std::string>& flags) {
  const auto catalog_path = flags.find("catalog");
  const auto channels_flag = flags.find("channels");
  if (catalog_path == flags.end() || channels_flag == flags.end()) {
    std::fputs("schedule requires --catalog and --channels\n", stderr);
    return 2;
  }
  const Catalog catalog = load_catalog_file(catalog_path->second);

  ScheduleRequest request;
  request.channels = static_cast<ChannelId>(std::stoul(channels_flag->second));
  request.bandwidth = std::stod(flag_or(flags, "bandwidth", "10"));
  const std::string algo_name = flag_or(flags, "algorithm", "drp-cds");
  const auto algorithm = algorithm_from_name(algo_name);
  if (!algorithm.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s' (try: broadcast_cli algorithms)\n",
                 algo_name.c_str());
    return 2;
  }
  request.algorithm = *algorithm;

  const ScheduleResult result = schedule(catalog.database, request);
  std::printf("algorithm: %s   cost: %.4f   W_b: %.4f s   runtime: %.3f ms\n",
              algo_name.c_str(), result.cost, result.waiting_time,
              result.elapsed_ms);
  const std::vector<std::vector<ItemId>> members = result.allocation.members();
  for (ChannelId c = 0; c < request.channels; ++c) {
    std::printf("channel %u (F=%.4f, Z=%.2f, cycle=%.2f s):\n", c + 1,
                result.allocation.freq_of(c), result.allocation.size_of(c),
                result.allocation.size_of(c) / request.bandwidth);
    for (ItemId id : members[c]) {
      std::printf("  %-24s z=%-10.3f f=%.5f\n", catalog.name_of(id).c_str(),
                  catalog.database.item(id).size, catalog.database.item(id).freq);
    }
  }

  const std::size_t requests = std::stoul(flag_or(flags, "simulate", "0"));
  if (requests > 0) {
    const BroadcastProgram program(result.allocation, request.bandwidth);
    const auto trace = generate_trace(catalog.database,
                                      {.requests = requests, .arrival_rate = 10.0,
                                       .seed = 1});
    const SimReport report = simulate(program, trace);
    std::printf("\nsimulated %zu requests: mean wait %.4f s (analytic %.4f s, "
                "ratio %.3f)\n",
                report.requests_served, report.mean_wait(), result.waiting_time,
                report.mean_wait() / result.waiting_time);
  }
  return 0;
}

int cmd_plan(const std::map<std::string, std::string>& flags) {
  const auto catalog_path = flags.find("catalog");
  const auto budget_flag = flags.find("total-bandwidth");
  if (catalog_path == flags.end() || budget_flag == flags.end()) {
    std::fputs("plan requires --catalog and --total-bandwidth\n", stderr);
    return 2;
  }
  const Catalog catalog = load_catalog_file(catalog_path->second);
  const double budget = std::stod(budget_flag->second);
  const auto max_channels =
      static_cast<ChannelId>(std::stoul(flag_or(flags, "max-channels", "10")));

  const PlanResult plan =
      plan_channel_count(catalog.database, budget, max_channels);
  std::printf("%-4s %16s %14s\n", "K", "b per channel", "W_b (s)");
  for (const PlanPoint& point : plan.sweep) {
    std::printf("%-4u %16.3f %14.4f%s\n", point.channels,
                point.per_channel_bandwidth, point.waiting_time,
                point.channels == plan.best_channels ? "   <- best" : "");
  }
  std::printf("\nbest: K=%u (W_b = %.4f s at b = %.3f per channel)\n",
              plan.best_channels, plan.best.waiting_time,
              budget / plan.best_channels);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "algorithms") return cmd_algorithms();
    if (command == "generate") return cmd_generate(parse_flags(argc, argv, 2));
    if (command == "schedule") return cmd_schedule(parse_flags(argc, argv, 2));
    if (command == "plan") return cmd_plan(parse_flags(argc, argv, 2));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  usage();
  return 2;
}
