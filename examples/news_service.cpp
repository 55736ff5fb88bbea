// A mobile news service broadcasting a mixed-media catalogue (headlines,
// photos, podcasts, video clips) over a handful of wireless channels —
// exactly the "modern information system" the paper's introduction motivates.
// Compares every shipped algorithm on the same catalogue and prints the
// winning channel layout.
#include <cstdio>
#include <string>
#include <vector>

#include "api/scheduler.h"
#include "model/cost.h"

namespace {

struct CatalogueEntry {
  const char* name;
  double size_mb;
  double daily_requests;
};

// A plausible editorial mix: tiny, hot text items; mid-size images; heavy,
// colder audio/video objects.
const std::vector<CatalogueEntry> kCatalogue = {
    {"breaking-news.txt", 0.02, 9200},   {"weather-today.txt", 0.01, 8100},
    {"stock-ticker.txt", 0.015, 7400},   {"sports-scores.txt", 0.02, 6900},
    {"traffic-map.png", 1.8, 5200},      {"front-page.html", 0.4, 4800},
    {"local-events.txt", 0.03, 3100},    {"photo-essay.jpg", 6.5, 2500},
    {"tech-column.html", 0.5, 2300},     {"cartoon.png", 2.2, 2100},
    {"morning-brief.mp3", 18.0, 1900},   {"interview.mp3", 24.0, 1200},
    {"cooking-video.mp4", 85.0, 900},    {"match-highlights.mp4", 140.0, 850},
    {"documentary-clip.mp4", 220.0, 400},{"weekly-review.mp4", 180.0, 300},
    {"archive-gallery.zip", 95.0, 150},  {"full-podcast.mp3", 55.0, 500},
};

}  // namespace

int main() {
  using namespace dbs;

  std::vector<double> sizes, freqs;
  for (const CatalogueEntry& e : kCatalogue) {
    sizes.push_back(e.size_mb);
    freqs.push_back(e.daily_requests);  // Database normalizes to probabilities
  }
  const Database db(sizes, freqs);

  constexpr ChannelId kChannels = 4;
  constexpr double kBandwidthMbps = 2.0;  // MB per second per channel

  std::puts("== news_service: 18 mixed-media items on 4 broadcast channels ==\n");
  std::printf("%-14s %12s %12s %10s\n", "algorithm", "cost", "W_b (s)", "time(ms)");
  ScheduleResult best = [&] {
    ScheduleRequest r;
    r.algorithm = Algorithm::kDrpCds;
    r.channels = kChannels;
    r.bandwidth = kBandwidthMbps;
    return schedule(db, r);
  }();

  for (const AlgorithmInfo& info : all_algorithms()) {
    if (info.exponential) continue;  // brute force would be fine at N=18, but slow-ish
    ScheduleRequest r;
    r.algorithm = info.id;
    r.channels = kChannels;
    r.bandwidth = kBandwidthMbps;
    const ScheduleResult result = schedule(db, r);
    std::printf("%-14s %12.3f %12.2f %10.3f\n", std::string(info.name).c_str(),
                result.cost, result.waiting_time, result.elapsed_ms);
    if (result.cost < best.cost) best = std::move(result);
  }

  std::puts("\nbest layout found:");
  const std::vector<std::vector<ItemId>> members = best.allocation.members();
  for (ChannelId c = 0; c < kChannels; ++c) {
    std::printf("  channel %u  (cycle %.1f s, F=%.3f):\n", c + 1,
                best.allocation.size_of(c) / kBandwidthMbps,
                best.allocation.freq_of(c));
    for (ItemId id : members[c]) {
      std::printf("    %-22s %7.2f MB  f=%.4f\n", kCatalogue[id].name,
                  db.item(id).size, db.item(id).freq);
    }
  }
  std::printf("\nexpected waiting time: %.2f s  (flat round-robin would be "
              "%.2f s)\n",
              best.waiting_time, [&] {
                ScheduleRequest r;
                r.algorithm = Algorithm::kFlat;
                r.channels = kChannels;
                r.bandwidth = kBandwidthMbps;
                return schedule(db, r).waiting_time;
              }());
  return 0;
}
