#include "perf/profiler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "telemetry/json.h"

namespace ppssd::perf {
namespace {

Profiler::Options quiet() {
  Profiler::Options opts;
  opts.report_to_stderr = false;
  return opts;
}

const Profiler::NodeReport* find_path(
    const std::vector<Profiler::NodeReport>& tree, const std::string& path) {
  for (const auto& n : tree) {
    if (n.path == path) return &n;
  }
  return nullptr;
}

TEST(Profiler, BuildsHierarchicalCallTree) {
  Profiler prof(quiet());
  prof.enter("outer");
  prof.enter("inner");
  prof.leave();
  prof.enter("inner");
  prof.leave();
  prof.leave();
  prof.enter("outer");
  prof.leave();

  const auto tree = prof.merged_tree();
  const auto* outer = find_path(tree, "outer");
  const auto* inner = find_path(tree, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 2u);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->calls, 2u);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(inner->name, "inner");
  // Inclusive time of a parent covers its children; self excludes them.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_LE(outer->self_ns, outer->total_ns);
  EXPECT_EQ(prof.span_count(), 4u);
  EXPECT_EQ(prof.dropped_spans(), 0u);
}

TEST(Profiler, ScopeRaiiMatchesEnterLeave) {
  Profiler prof(quiet());
  Profiler* prev = Profiler::exchange_instance(&prof);
  {
    PPSSD_PROFILE_SCOPE("a");
    { PPSSD_PROFILE_SCOPE("b"); }
  }
  Profiler::exchange_instance(prev);
  const auto tree = prof.merged_tree();
  EXPECT_NE(find_path(tree, "a"), nullptr);
  EXPECT_NE(find_path(tree, "a/b"), nullptr);
  // After the exchange the disabled path is back: no new frames.
  { PPSSD_PROFILE_SCOPE("after"); }
  EXPECT_EQ(find_path(prof.merged_tree(), "after"), nullptr);
}

TEST(Profiler, MergesThreadsByScopePath) {
  Profiler prof(quiet());
  auto work = [&prof] {
    prof.enter("worker");
    prof.enter("step");
    prof.leave();
    prof.leave();
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(work);
  for (auto& t : threads) t.join();

  EXPECT_EQ(prof.thread_count(), 4u);
  const auto tree = prof.merged_tree();
  const auto* worker = find_path(tree, "worker");
  const auto* step = find_path(tree, "worker/step");
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(worker->calls, 4u);  // one per thread, merged
  EXPECT_EQ(step->calls, 4u);
}

TEST(Profiler, SpanCapDropsAreCountedNotLost) {
  Profiler::Options opts = quiet();
  opts.max_spans_per_thread = 3;
  Profiler prof(opts);
  for (int i = 0; i < 10; ++i) {
    prof.enter("hot");
    prof.leave();
  }
  EXPECT_EQ(prof.span_count(), 3u);
  EXPECT_EQ(prof.dropped_spans(), 7u);
  // The call tree keeps aggregating past the timeline cap.
  const auto tree = prof.merged_tree();
  const auto* hot = find_path(tree, "hot");
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->calls, 10u);
}

TEST(Profiler, ChromeJsonParsesAndUsesWallClockDomain) {
  Profiler prof(quiet());
  prof.enter("experiment");
  prof.enter("measure");
  prof.leave();
  prof.leave();

  std::ostringstream os;
  prof.write_chrome_json(os);
  const auto doc = telemetry::json::parse(os.str());
  ASSERT_TRUE(doc.has_value() && doc->is_object()) << os.str();
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // pid 1 everywhere: the wall-clock domain never collides with the
  // sim-time telemetry trace (pid 0) when the files are concatenated.
  std::size_t spans = 0;
  bool saw_closing = false;
  for (const auto& e : events->array) {
    const auto* pid = e.find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_DOUBLE_EQ(pid->number, 1.0);
    const auto* ph = e.find("ph");
    if (ph != nullptr && ph->string == "X") {
      ++spans;
      EXPECT_GE(e.find("dur")->number, 0.0);
    }
    if (e.find("name")->string == "profile_closed") {
      saw_closing = true;
      EXPECT_DOUBLE_EQ(e.find("args")->find("spans")->number, 2.0);
      EXPECT_DOUBLE_EQ(e.find("args")->find("dropped")->number, 0.0);
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_TRUE(saw_closing);
}

TEST(Profiler, ReportTextListsScopesWithIndentation) {
  Profiler prof(quiet());
  prof.enter("experiment");
  prof.enter("warmup");
  prof.leave();
  prof.leave();
  const std::string text = prof.report_text();
  EXPECT_NE(text.find("wall-clock profile"), std::string::npos);
  EXPECT_NE(text.find("experiment"), std::string::npos);
  EXPECT_NE(text.find("  warmup"), std::string::npos);
}

TEST(Profiler, UnbalancedLeaveIsIgnored) {
  Profiler prof(quiet());
  prof.leave();  // nothing open: must not underflow
  prof.enter("only");
  prof.leave();
  prof.leave();  // extra
  EXPECT_EQ(prof.span_count(), 1u);
}

// The acceptance bar: a disabled profiler (no instance installed) must
// cost nothing measurable. A/B-time a tight loop of profile scopes with
// no instance vs. an installed one; the disabled loop must not look like
// it is doing the enabled loop's work. Generous 8x bound — the disabled
// path is a null test while the enabled path takes two clock reads and
// tree bookkeeping, which is reliably slower even under CI noise.
TEST(Profiler, DisabledScopeIsFreeComparedToEnabled) {
  Profiler* outer = Profiler::exchange_instance(nullptr);
  constexpr int kIters = 200000;
  auto time_loop = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      PPSSD_PROFILE_SCOPE("ab_test");
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // Warm both paths once, then take the best of three to shed scheduler
  // noise.
  auto best_of = [&](auto&& f) {
    double best = f();
    for (int i = 0; i < 2; ++i) best = std::min(best, f());
    return best;
  };

  const double disabled = best_of(time_loop);

  Profiler::Options opts = quiet();
  opts.max_spans_per_thread = 0;  // timeline off; tree bookkeeping stays
  Profiler prof(opts);
  Profiler* prev = Profiler::exchange_instance(&prof);
  const double enabled = best_of(time_loop);
  Profiler::exchange_instance(prev);

  EXPECT_GT(enabled, 0.0);
  EXPECT_LT(disabled, enabled * 8.0)
      << "disabled=" << disabled << "s enabled=" << enabled << "s";
  Profiler::exchange_instance(outer);
}

}  // namespace
}  // namespace ppssd::perf
