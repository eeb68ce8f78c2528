// Unit tests of the benchmark's own bookkeeping: the one percentile
// definition, open-loop pacing and lateness (including an injected
// stall), and the answer digest the correctness checks compare.
//
// Build and run: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "loadgen.h"
#include "obs/metrics.h"
#include "pacer.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Stats, NearestRankIsCeilOfQTimesN) {
  EXPECT_EQ(NearestRank(10, 0.5), 5u);
  EXPECT_EQ(NearestRank(10, 0.9), 9u);
  EXPECT_EQ(NearestRank(10, 0.99), 10u);
  EXPECT_EQ(NearestRank(1000, 0.99), 990u);
  EXPECT_EQ(NearestRank(1, 0.5), 1u);
  // 0.7 * 10 is 7.000000000000001 in doubles; the rank is still 7.
  EXPECT_EQ(NearestRank(10, 0.7), 7u);
}

TEST(Stats, QuantileIsNearestRankNotTruncatedIndex) {
  // The serving benches' old definition, sorted[trunc(q * (n - 1))],
  // reads the 4th of 5 samples at q = 0.9; nearest rank reads the 5th.
  EXPECT_EQ(Quantile({5, 1, 4, 2, 3}, 0.9), 5.0);
  EXPECT_EQ(Quantile(OneTo(100), 0.5), 50.0);
  EXPECT_EQ(Quantile(OneTo(100), 0.9), 90.0);
  EXPECT_EQ(Quantile(OneTo(1000), 0.99), 990.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(Stats, QuantileMatchesObsHistogramRank) {
  // Samples sitting on bucket bounds make the histogram exact, so both
  // definitions must pick the same sample.
  fannr::obs::HistogramSnapshot h;
  h.bounds = OneTo(1000);
  h.counts.assign(h.bounds.size() + 1, 0);
  const std::vector<double> samples = OneTo(1000);
  for (double v : samples) h.Accumulate(v);
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_EQ(h.Percentile(p), Quantile(samples, p / 100.0)) << p;
  }
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(TailValid(100, 0.9));
  EXPECT_FALSE(TailValid(99, 0.9));
  EXPECT_TRUE(TailValid(1000, 0.99));
  EXPECT_FALSE(TailValid(999, 0.99));
  EXPECT_FALSE(TailValid(0, 0.5));
}

TEST(Stats, WindowedQuantileIgnoresASlowStretchUnderHalfTheRun) {
  // 20 s at 1,000 samples/s: 1 ms normally, 5 ms for a 6-s slow stretch.
  std::vector<Sample> samples;
  std::vector<double> values;
  for (int64_t i = 0; i < 20'000; ++i) {
    const int64_t t = i * 1'000'000;
    const bool slow = t >= 4'000'000'000 && t < 10'000'000'000;
    const double ms = (slow ? 5.0 : 1.0) + static_cast<double>(i % 100) / 1e3;
    samples.push_back({t, ms});
    values.push_back(ms);
  }
  const int64_t end = 20'000'000'000;
  EXPECT_DOUBLE_EQ(WindowedQuantile(samples, 0, end, 0.5), 1.049);
  EXPECT_DOUBLE_EQ(WindowedQuantile(samples, 0, end, 0.9), 1.089);
  // The whole-run quantiles move with the stretch.
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 1.071);
  EXPECT_GT(Quantile(values, 0.9), 5.0);
}

TEST(Stats, WindowsNeedEnoughSamplesForTheirQuantile) {
  EXPECT_EQ(WindowCount(20'000'000'000, 20'000, 100), 20u);
  EXPECT_EQ(WindowCount(20'000'000'000, 140, 100), 1u);
  EXPECT_EQ(WindowCount(20'000'000'000, 450, 100), 4u);
  EXPECT_EQ(WindowCount(500'000'000, 10'000, 10), 1u);
  // 140 batches in 20 s: one window, so the p90 is the run's own p90.
  std::vector<Sample> batches;
  for (int64_t i = 0; i < 140; ++i) {
    batches.push_back({i * 140'000'000, static_cast<double>(i + 1)});
  }
  EXPECT_DOUBLE_EQ(WindowedQuantile(batches, 0, 20'000'000'000, 0.9), 126.0);
}

TEST(Stats, WindowedRateIsTheMedianWindowsRate) {
  // 8 answers every 1 ms for 10 s, except 3 s at half the pace.
  std::vector<Sample> done;
  for (int64_t t = 0; t < 10'000'000'000; t += 1'000'000) {
    const bool slow = t >= 2'000'000'000 && t < 5'000'000'000;
    if (slow && (t / 1'000'000) % 2 == 1) continue;
    done.push_back({t, 8.0});
  }
  EXPECT_DOUBLE_EQ(WindowedRate(done, 0, 10'000'000'000), 8000.0);
  // Too few completions for 100 per window: one window, the mean rate.
  const std::vector<Sample> few = {{0, 8.0}, {1'000'000'000, 8.0}};
  EXPECT_DOUBLE_EQ(WindowedRate(few, 0, 2'000'000'000), 8.0);
}

TEST(Pacer, OnTimeGeneratorIsNeverLate) {
  OpenLoopPacer pacer({0, 1'000'000, 2'000'000}, 5'000);
  std::vector<size_t> sent;
  for (int64_t now : {5'000, 1'005'000, 2'005'000}) {
    pacer.Release(now, [&](size_t i, int64_t) { sent.push_back(i); });
  }
  EXPECT_EQ(sent, (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(pacer.done());
  for (double late : pacer.lateness_ms()) EXPECT_EQ(late, 0.0);
}

TEST(Pacer, InjectedStallIsChargedToEveryRequestBehindIt) {
  // 100 requests due 1 ms apart. The generator keeps up until request
  // 10 is due, then stalls for 50 ms.
  std::vector<int64_t> due;
  for (int64_t i = 0; i < 100; ++i) due.push_back(i * 1'000'000);
  OpenLoopPacer pacer(due, 0);
  std::vector<double> latency_from_due;
  std::vector<double> latency_from_send;
  auto answer_after_send = [&](int64_t now) {
    // Every request is answered 0.1 ms after it is sent.
    return [&, now](size_t, int64_t due_ns) {
      latency_from_due.push_back(LatencyFromDueMs(due_ns, now + 100'000));
      latency_from_send.push_back(0.1);
    };
  };
  for (int64_t i = 0; i < 10; ++i) {
    pacer.Release(i * 1'000'000, answer_after_send(i * 1'000'000));
  }
  const int64_t resumed = 10 * 1'000'000 + 50'000'000;
  EXPECT_EQ(pacer.Release(resumed, answer_after_send(resumed)), 51u);
  for (int64_t i = 61; i < 100; ++i) {
    pacer.Release(i * 1'000'000, answer_after_send(i * 1'000'000));
  }
  ASSERT_TRUE(pacer.done());

  // The generator reports its own lateness: 50 ms for the request due
  // when the stall began, falling by 1 ms per request after it.
  const std::vector<double>& late = pacer.lateness_ms();
  ASSERT_EQ(late.size(), 100u);
  EXPECT_DOUBLE_EQ(late[10], 50.0);
  EXPECT_DOUBLE_EQ(late[35], 25.0);
  EXPECT_DOUBLE_EQ(late[60], 0.0);
  EXPECT_DOUBLE_EQ(Quantile(late, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(late, 0.99), 49.0);
  EXPECT_DOUBLE_EQ(Quantile(late, 0.5), 0.0);

  // Timed from the due time, the stall shows in the latency tail;
  // timed from the send, it would vanish (coordinated omission).
  EXPECT_NEAR(latency_from_due[10], 50.1, 1e-9);
  EXPECT_NEAR(Quantile(latency_from_due, 0.90), 40.1, 1e-9);
  EXPECT_NEAR(Quantile(latency_from_send, 0.90), 0.1, 1e-9);
}

TEST(AnswerDigest, ComparesEveryFieldBitwise) {
  fannr::net::WireResult r;
  r.status = 0;
  r.best = 42;
  r.distance = 1234.5;
  r.gphi_evaluations = 17;
  r.subset = {3, 1, 4};
  const uint64_t base = AnswerDigest({r});
  EXPECT_EQ(base, AnswerDigest({r}));

  fannr::net::WireResult flipped = r;
  uint64_t bits;
  std::memcpy(&bits, &flipped.distance, sizeof(bits));
  bits ^= 1;
  std::memcpy(&flipped.distance, &bits, sizeof(bits));
  EXPECT_NE(base, AnswerDigest({flipped}));

  fannr::net::WireResult other = r;
  other.subset = {3, 4, 1};
  EXPECT_NE(base, AnswerDigest({other}));
  other = r;
  other.gphi_evaluations = 18;
  EXPECT_NE(base, AnswerDigest({other}));
  other = r;
  other.error = "x";
  EXPECT_NE(base, AnswerDigest({other}));
  // A batch's digest depends on order and count.
  EXPECT_NE(AnswerDigest({r, other}), AnswerDigest({other, r}));
  EXPECT_NE(AnswerDigest({r}), AnswerDigest({r, r}));
}

}  // namespace
}  // namespace perfbench
