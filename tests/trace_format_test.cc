// Validates the tracer's output against the Chrome trace-event schema:
// every event object must carry "ph", "ts", "pid", "tid" and "name", and
// complete ("X") events must also carry "dur". Registered in ctest as
// `trace_format_test` (see tests/CMakeLists.txt); a regression here means
// chrome://tracing and Perfetto silently drop the whole file.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/drp_cds.h"
#include "core/multilevel.h"
#include "obs/obs.h"  // for the DBS_OBS_ENABLED default
#include "obs/trace.h"
#include "workload/generator.h"

namespace dbs {
namespace {

/// Splits the "traceEvents" array into one raw JSON object string per event.
/// The tracer emits flat objects (no nested braces), so brace matching is a
/// simple scan.
std::vector<std::string> event_objects(const std::string& json) {
  std::vector<std::string> events;
  const std::size_t array_start = json.find('[');
  if (array_start == std::string::npos) return events;
  std::size_t pos = array_start;
  while (true) {
    const std::size_t open = json.find('{', pos);
    if (open == std::string::npos) break;
    const std::size_t close = json.find('}', open);
    if (close == std::string::npos) break;
    events.push_back(json.substr(open, close - open + 1));
    pos = close + 1;
  }
  return events;
}

bool has_key(const std::string& event, const std::string& key) {
  return event.find("\"" + key + "\":") != std::string::npos;
}

class TraceFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::global().clear();
    obs::Tracer::global().enable();
  }
  void TearDown() override {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
  }
};

TEST_F(TraceFormatTest, DocumentIsATraceEventsObject) {
  { obs::ScopedSpan span("trace_test.span"); }
  const std::string json = obs::Tracer::global().to_json();
  EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(json.rfind("]}"), std::string::npos);
}

TEST_F(TraceFormatTest, EveryEventCarriesTheRequiredKeys) {
  // Drive real instrumented library code so the events under validation are
  // the ones production emits, not synthetic ones.
  const Database db = generate_database({.items = 60, .seed = 11});
  run_drp_cds(db, 5);
  { obs::ScopedSpan span("trace_test.explicit"); }

  const std::string json = obs::Tracer::global().to_json();
  const std::vector<std::string> events = event_objects(json);
#if DBS_OBS_ENABLED
  // run_drp_cds emits at least core.drp.run and core.cds.run.
  ASSERT_GE(events.size(), 3u);
  EXPECT_NE(json.find("core.drp.run"), std::string::npos);
  EXPECT_NE(json.find("core.cds.run"), std::string::npos);
#else
  ASSERT_GE(events.size(), 1u);  // only the explicit span
#endif
  for (const std::string& event : events) {
    EXPECT_TRUE(has_key(event, "ph")) << event;
    EXPECT_TRUE(has_key(event, "ts")) << event;
    EXPECT_TRUE(has_key(event, "pid")) << event;
    EXPECT_TRUE(has_key(event, "tid")) << event;
    EXPECT_TRUE(has_key(event, "name")) << event;
    if (event.find("\"ph\": \"X\"") != std::string::npos) {
      EXPECT_TRUE(has_key(event, "dur")) << event;
    }
  }
}

TEST_F(TraceFormatTest, TimestampsAreNonNegativeAndOrderedWithinAThread) {
  const Database db = generate_database({.items = 40, .seed = 12});
  run_drp_cds(db, 4);
  for (const obs::TraceEvent& event : obs::Tracer::global().events()) {
    EXPECT_GE(event.ts_us, 0.0);
    EXPECT_GE(event.dur_us, 0.0);
    EXPECT_GE(event.tid, 1u);
  }
}

TEST_F(TraceFormatTest, MultilevelSpansSplitCoarseningFromRefinement) {
  const Database db = generate_database({.items = 2000, .seed = 13});
  [[maybe_unused]] const MultilevelResult r = run_multilevel(db, 10);
  const std::vector<obs::TraceEvent> events = obs::Tracer::global().events();
  // Spans are recorded as they close, so an event's index orders the ends.
  std::vector<std::size_t> runs, coarsens, levels;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].name == "core.ml.run") runs.push_back(i);
    if (events[i].name == "core.ml.coarsen") coarsens.push_back(i);
    if (events[i].name == "core.ml.level") levels.push_back(i);
  }
#if DBS_OBS_ENABLED
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(coarsens.size(), 1u);
  ASSERT_EQ(levels.size(), r.levels);
  ASSERT_GT(r.levels, 1u);
  const obs::TraceEvent& coarsen = events[coarsens[0]];
  EXPECT_GE(coarsen.ts_us, events[runs[0]].ts_us);
  EXPECT_LT(coarsens[0], runs[0]);
  for (const std::size_t level : levels) {
    EXPECT_LT(coarsens[0], level);
    EXPECT_GE(events[level].ts_us, coarsen.ts_us);
  }
#else
  EXPECT_TRUE(runs.empty() && coarsens.empty() && levels.empty());
#endif
}

TEST_F(TraceFormatTest, WritesLoadableFileToDisk) {
  { obs::ScopedSpan span("trace_test.file_span"); }
  const std::string path = ::testing::TempDir() + "trace_format_test.json";
  ASSERT_TRUE(obs::Tracer::global().write_json_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[1024];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, obs::Tracer::global().to_json());
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
}

}  // namespace
}  // namespace dbs
