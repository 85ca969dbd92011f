#include "metrics/analysis.h"

#include <gtest/gtest.h>

#include <sstream>

#include "metrics/table.h"
#include "sim/simulation.h"

namespace mmrfd::metrics {
namespace {

// Builds a log by hand, advancing a private simulation's clock via events.
class LogBuilder {
 public:
  LogBuilder() : log_(sim_) {}

  LogBuilder& at(TimePoint t) {
    sim_.schedule_at(t, [] {});
    sim_.run_until(t);
    return *this;
  }
  LogBuilder& suspect(std::uint32_t obs, std::uint32_t subj) {
    log_.record(ProcessId{obs}, ProcessId{subj},
                SuspicionEventKind::kSuspected, 0);
    return *this;
  }
  LogBuilder& clear(std::uint32_t obs, std::uint32_t subj) {
    log_.record(ProcessId{obs}, ProcessId{subj}, SuspicionEventKind::kCleared,
                0);
    return *this;
  }
  LogBuilder& crash(std::uint32_t subj) {
    log_.record_crash(ProcessId{subj});
    return *this;
  }
  EventLog& log() { return log_; }

 private:
  sim::Simulation sim_;
  EventLog log_;
};

TEST(Analysis, CorrectAndFaultySets) {
  LogBuilder b;
  b.at(from_seconds(1)).crash(2);
  Analysis a(b.log(), 4, from_seconds(10));
  EXPECT_EQ(a.faulty(), std::vector<ProcessId>{ProcessId{2}});
  EXPECT_EQ(a.correct(),
            (std::vector<ProcessId>{ProcessId{0}, ProcessId{1}, ProcessId{3}}));
}

TEST(Analysis, DetectionLatencyFromFinalSuspicion) {
  LogBuilder b;
  // p1 falsely suspects p2 early, clears it, then p2 crashes and is
  // permanently suspected: detection time counts from the *final* interval.
  b.at(from_seconds(1)).suspect(1, 2);
  b.at(from_seconds(2)).clear(1, 2);
  b.at(from_seconds(5)).crash(2);
  b.at(from_seconds(7)).suspect(1, 2);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto ds = a.detections();
  ASSERT_EQ(ds.size(), 2u);  // observers p0 (never detects) and p1
  const auto& d1 = ds[0].observer == ProcessId{1} ? ds[0] : ds[1];
  const auto& d0 = ds[0].observer == ProcessId{0} ? ds[0] : ds[1];
  ASSERT_TRUE(d1.latency().has_value());
  EXPECT_EQ(*d1.latency(), from_seconds(2));
  EXPECT_FALSE(d0.latency().has_value());
}

TEST(Analysis, CrashSummaryCompleteness) {
  LogBuilder b;
  b.at(from_seconds(5)).crash(2);
  b.at(from_seconds(6)).suspect(0, 2);
  b.at(from_seconds(8)).suspect(1, 2);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto ss = a.crash_summaries();
  ASSERT_EQ(ss.size(), 1u);
  EXPECT_EQ(ss[0].observers, 2u);
  EXPECT_EQ(ss[0].detected_by, 2u);
  ASSERT_TRUE(ss[0].completeness_latency.has_value());
  EXPECT_EQ(*ss[0].completeness_latency, from_seconds(3));
  EXPECT_TRUE(a.strong_completeness());
}

TEST(Analysis, IncompleteDetectionBreaksCompleteness) {
  LogBuilder b;
  b.at(from_seconds(5)).crash(2);
  b.at(from_seconds(6)).suspect(0, 2);  // p1 never suspects
  Analysis a(b.log(), 3, from_seconds(10));
  EXPECT_FALSE(a.strong_completeness());
}

TEST(Analysis, FalseSuspicionsOnlyCountCorrectPairs) {
  LogBuilder b;
  b.at(from_seconds(1)).crash(3);
  b.at(from_seconds(2)).suspect(0, 3);  // subject faulty: not false
  b.at(from_seconds(3)).suspect(0, 1);  // false
  b.at(from_seconds(4)).clear(0, 1);
  Analysis a(b.log(), 4, from_seconds(10));
  const auto fs = a.false_suspicions();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].observer, ProcessId{0});
  EXPECT_EQ(fs[0].subject, ProcessId{1});
  ASSERT_TRUE(fs[0].cleared_at.has_value());
  EXPECT_EQ(*fs[0].cleared_at, from_seconds(4));
}

TEST(Analysis, UnclearedFalseSuspicionReported) {
  LogBuilder b;
  b.at(from_seconds(3)).suspect(0, 1);
  Analysis a(b.log(), 2, from_seconds(10));
  const auto fs = a.false_suspicions();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_FALSE(fs[0].cleared_at.has_value());
  // p1 is stuck-suspected, but p0 itself is never suspected, so eventual
  // weak accuracy still stabilizes (witness p0, from time zero).
  const auto t = a.accuracy_stabilization();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, kTimeZero);
}

TEST(Analysis, AccuracyStabilizationPicksCleanProcess) {
  LogBuilder b;
  b.at(from_seconds(3)).suspect(0, 1);
  b.at(from_seconds(6)).clear(0, 1);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto t = a.accuracy_stabilization();
  ASSERT_TRUE(t.has_value());
  // p0 and p2 are never suspected: stabilization at time zero.
  EXPECT_EQ(*t, kTimeZero);
}

TEST(Analysis, FalseSuspicionSeriesStepsUpAndDown) {
  LogBuilder b;
  b.at(from_seconds(1)).suspect(0, 1).suspect(2, 1);
  b.at(from_seconds(2)).clear(0, 1);
  b.at(from_seconds(3)).clear(2, 1);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto series = a.false_suspicion_series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].active, 2);
  EXPECT_EQ(series[1].active, 1);
  EXPECT_EQ(series[2].active, 0);
}

// The horizon ends the run: each pair's state there is final, and a
// transition stamped after it (a live node's shutdown, say) does not count.

TEST(Analysis, SuspicionAfterTheHorizonIsNoDetection) {
  LogBuilder b;
  b.at(from_seconds(5)).crash(2);
  b.at(from_seconds(6)).suspect(0, 2);
  b.at(from_seconds(11)).suspect(1, 2);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto ds = a.detections();
  ASSERT_EQ(ds.size(), 2u);
  for (const Detection& d : ds) {
    EXPECT_EQ(d.latency().has_value(), d.observer == ProcessId{0})
        << "observer " << d.observer;
  }
  EXPECT_FALSE(a.strong_completeness());
}

TEST(Analysis, ClearAfterTheHorizonDoesNotEndAFalseSuspicion) {
  LogBuilder b;
  b.at(from_seconds(3)).suspect(0, 1);
  b.at(from_seconds(12)).clear(0, 1);
  Analysis a(b.log(), 2, from_seconds(10));
  const auto fs = a.false_suspicions();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].suspected_at, from_seconds(3));
  EXPECT_FALSE(fs[0].cleared_at.has_value());
  EXPECT_FALSE(a.full_accuracy_stabilization().has_value());
}

TEST(Analysis, FalseSuspicionOpenedAfterTheHorizonIsNotCounted) {
  LogBuilder b;
  b.at(from_seconds(10)).suspect(0, 1);  // at the horizon: counts
  b.at(from_seconds(10)).clear(0, 1);
  b.at(from_seconds(10) + Duration{1}).suspect(1, 0);
  b.at(from_seconds(11)).suspect(2, 0).clear(2, 0);
  Analysis a(b.log(), 3, from_seconds(10));
  const auto fs = a.false_suspicions();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].observer, ProcessId{0});
  EXPECT_EQ(fs[0].subject, ProcessId{1});
  ASSERT_TRUE(fs[0].cleared_at.has_value());
  EXPECT_EQ(*fs[0].cleared_at, from_seconds(10));
  EXPECT_EQ(a.false_suspicion_series().back().active, 0);
}

TEST(Table, AlignedOutputContainsHeadersAndCells) {
  Table t({"n", "detector", "latency"});
  t.add_row({"10", "mmr", Table::num(1.234, 2)});
  t.add_row({"100", "heartbeat", Table::num(2.0, 2)});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("detector"), std::string::npos);
  EXPECT_NE(text.find("1.23"), std::string::npos);
  EXPECT_NE(text.find("heartbeat"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

}  // namespace
}  // namespace mmrfd::metrics
