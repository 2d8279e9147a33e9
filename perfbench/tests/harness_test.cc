// Self-tests for the perfbench harness: the percentile rule, lateness
// accounting and its verdict, interval coverage, the required-layer check,
// and agreement between the metric catalog and BENCHMARK.json.
#include <fstream>
#include <iterator>
#include <limits>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 50), 50);
  EXPECT_EQ(Percentile(values, 99), 99);
  EXPECT_EQ(Percentile(values, 100), 100);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(Percentile, FailuresSortLast) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values(98, 1.0);
  values.push_back(inf);
  values.push_back(inf);
  EXPECT_EQ(Percentile(values, 98), 1.0);
  EXPECT_EQ(Percentile(values, 99), inf);
}

TEST(Percentile, TenSamplesBeyondTheReportedLevel) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10);
  EXPECT_EQ(SamplesBeyond(999, 99), 9);
  EXPECT_EQ(TailLevel(1000), 99);
  EXPECT_EQ(TailLevel(999), 95);
  EXPECT_EQ(TailLevel(200), 95);
  EXPECT_EQ(TailLevel(199), 90);
  EXPECT_EQ(TailLevel(40), 75);
  EXPECT_EQ(TailLevel(5), 50);
  for (int64_t n : {20, 57, 100, 201, 1000, 4321, 100000}) {
    const double level = TailLevel(n);
    if (level > 50) {
      EXPECT_GE(SamplesBeyond(n, level), 10) << n;
    }
  }
}

TEST(Lateness, MarksTheRunInvalidWhenTheGeneratorFallsBehind) {
  std::vector<double> late(1000, 0.05);
  Lateness ok = SummarizeLateness(late, 1.0);
  EXPECT_TRUE(ok.valid);
  EXPECT_EQ(ok.sends, 1000);
  EXPECT_DOUBLE_EQ(ok.p99_ms, 0.05);

  for (int i = 0; i < 20; ++i) late[i * 50] = 30.0;  // stalls it catches up on
  Lateness stalled = SummarizeLateness(late, 1.0);
  EXPECT_TRUE(stalled.valid);
  EXPECT_DOUBLE_EQ(stalled.p99_ms, 30.0);
  EXPECT_DOUBLE_EQ(stalled.max_ms, 30.0);

  std::vector<double> blocked(1000, 2.0);  // steadily late, not drifting
  EXPECT_TRUE(SummarizeLateness(blocked, 1.0).valid);

  for (int i = 800; i < 1000; ++i) late[i] = 0.05 * (i - 790);  // drifting
  EXPECT_FALSE(SummarizeLateness(late, 1.0).valid);
}

TEST(Lateness, AnInvalidRunIsNotCorrect) {
  bool correct = true;
  RequireOnSchedule(SummarizeLateness(std::vector<double>(400, 0.1), 1.0),
                    &correct);
  EXPECT_TRUE(correct);
  std::vector<double> drifting;
  for (int i = 0; i < 400; ++i) drifting.push_back(0.1 * i);
  RequireOnSchedule(SummarizeLateness(drifting, 1.0), &correct);
  EXPECT_FALSE(correct);
  RequireOnSchedule(SummarizeLateness(std::vector<double>(400, 0.1), 1.0),
                    &correct);
  EXPECT_FALSE(correct) << "a later valid pass does not clear the verdict";
}

TEST(Coverage, UnionOfMainThreadCalls) {
  const Clock::time_point t0 = Clock::now();
  auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::vector<LayerCall> calls = {
      {"a", at(0), at(10), true},
      {"b", at(5), at(8), true},    // nested inside a
      {"c", at(20), at(30), true},
      {"d", at(10), at(40), false},  // another thread: not counted
  };
  EXPECT_DOUBLE_EQ(CoveredMs(calls, at(0), at(40)), 20.0);
  EXPECT_DOUBLE_EQ(CoveredMs(calls, at(25), at(40)), 5.0);
  EXPECT_EQ(Totals(calls, "a").calls, 1);
  EXPECT_DOUBLE_EQ(Totals(calls, "c").mean_ms(), 10.0);
}

TEST(Coverage, EveryRequiredLayerFunctionWasCalled) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<LayerCall> calls = {{"dyn.apply", t0, t0, true},
                                        {"dyn.refresh", t0, t0, false}};
  bool correct = true;
  RequireLayerCalls(calls, {"dyn.apply", "dyn.refresh"}, &correct);
  EXPECT_TRUE(correct);
  RequireLayerCalls(calls, {"dyn.apply", "dyn.publish"}, &correct);
  EXPECT_FALSE(correct) << "dyn.publish was never reached";
}

std::vector<MetricSpec> FromBenchmarkJson(const std::string& section) {
  std::ifstream in(PERFBENCH_JSON);
  const std::string text(std::istreambuf_iterator<char>(in), {});
  const size_t begin = text.find("\"" + section + "\"");
  const size_t end = text.find(']', begin);
  EXPECT_NE(begin, std::string::npos) << section;
  const std::string body = text.substr(begin, end - begin);
  static std::vector<std::string> storage;  // keeps the c_str()s alive
  storage.reserve(4096);
  std::vector<MetricSpec> specs;
  const std::regex entry(
      "\\{\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\", "
      "\"better\": \"([^\"]+)\"");
  for (std::sregex_iterator it(body.begin(), body.end(), entry), last;
       it != last; ++it) {
    storage.push_back((*it)[1]);
    const char* name = storage.back().c_str();
    storage.push_back((*it)[2]);
    const char* unit = storage.back().c_str();
    storage.push_back((*it)[3]);
    specs.push_back({name, unit, storage.back().c_str()});
  }
  return specs;
}

void ExpectSameCatalog(const std::vector<MetricSpec>& json,
                       const std::vector<MetricSpec>& code) {
  ASSERT_EQ(json.size(), code.size());
  for (size_t i = 0; i < code.size(); ++i) {
    EXPECT_STREQ(json[i].name, code[i].name);
    EXPECT_STREQ(json[i].unit, code[i].unit) << code[i].name;
    EXPECT_STREQ(json[i].better, code[i].better) << code[i].name;
  }
}

TEST(Catalog, MatchesBenchmarkJson) {
  ExpectSameCatalog(FromBenchmarkJson("end_to_end"), EndToEndMetrics());
  ExpectSameCatalog(FromBenchmarkJson("per_layer"), PerLayerMetrics());
}

TEST(Catalog, ResultLineCarriesEveryMetricWithItsUnit) {
  for (const auto* catalog : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    Report report;
    for (const MetricSpec& m : *catalog) report.Set(m.name, 1.25);
    const std::string json = report.Json(*catalog, true, 10, 0);
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 10, "
                         "\"failed\": 0, \"metrics\": {",
                         0),
              0u);
    for (const MetricSpec& m : *catalog) {
      EXPECT_NE(json.find("\"" + std::string(m.name) +
                          "\": {\"value\": 1.25, \"unit\": \"" + m.unit +
                          "\"}"),
                std::string::npos)
          << m.name;
    }
  }
  Report missing;
  missing.Set("setup_s", 1.0);
  EXPECT_FALSE(missing.Print(EndToEndMetrics(), true, 1, 0));
}

}  // namespace
}  // namespace perfbench
