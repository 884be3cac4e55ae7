#include "src/sim/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "src/sim/logging.h"
#include "src/sim/random.h"

// Heap allocations made by this test binary, so a test can check that a code
// path allocates nothing. Every replaceable form that pairs with free() is
// replaced, so sanitizer runtimes never see a mismatched new/delete.
static std::atomic<uint64_t> g_allocations{0};

// GCC cannot tell that these deletes pair with the mallocs below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

static void* CountedAlloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace taichi::sim {
namespace {

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(SummaryTest, MdevMatchesPingDefinition) {
  Summary s;
  for (double v : {10.0, 20.0}) {
    s.Add(v);
  }
  // Mean 15, |10-15| + |20-15| = 10, / 2 = 5.
  EXPECT_DOUBLE_EQ(s.mdev(), 5.0);
}

TEST(SummaryTest, StddevSample) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
}

TEST(SummaryTest, StddevIsStableWhenMeanDwarfsSpread) {
  // Regression: the sum-of-squares formula cancels catastrophically here —
  // with samples 1e9 + {0,1,2}, sum_sq - sum^2/n loses all significant
  // digits in double precision and the old code returned 0 (or garbage).
  // Welford's update keeps the exact answer, stddev({0,1,2}) = 1.
  Summary s;
  for (double v : {1e9, 1e9 + 1.0, 1e9 + 2.0}) {
    s.Add(v);
  }
  EXPECT_NEAR(s.stddev(), 1.0, 1e-6);
  // mdev has always been computed directly; the two must now agree in scale.
  EXPECT_NEAR(s.mdev(), 2.0 / 3.0, 1e-6);
}

TEST(SummaryTest, StddevMatchesDirectComputation) {
  Summary s;
  uint64_t seed = 9;
  double direct_sum = 0;
  std::vector<double> vals;
  for (int i = 0; i < 1000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    double v = 50.0 + static_cast<double>(seed % 1000) / 100.0;
    vals.push_back(v);
    direct_sum += v;
    s.Add(v);
  }
  const double mean = direct_sum / static_cast<double>(vals.size());
  double acc = 0;
  for (double v : vals) {
    acc += (v - mean) * (v - mean);
  }
  const double direct = std::sqrt(acc / static_cast<double>(vals.size() - 1));
  EXPECT_NEAR(s.stddev(), direct, 1e-9);
}

TEST(SummaryTest, CountsSharedWithPercentileCache) {
  Summary s;
  for (double v : {3.0, 1.0, 2.0, 1.0}) {
    s.Add(v);
  }
  const std::vector<Summary::ValueCount>& counts = s.Counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0].value, 1.0);
  EXPECT_EQ(counts[0].count, 2u);
  EXPECT_EQ(counts[1].value, 2.0);
  EXPECT_EQ(counts[2].value, 3.0);
  EXPECT_EQ(counts[2].count, 1u);
  // Adding invalidates and rebuilds.
  s.Add(0.5);
  EXPECT_DOUBLE_EQ(s.Counts().front().value, 0.5);
}

TEST(SummaryTest, PercentileExactOrderStatistics) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(99), 99.01, 0.01);
}

TEST(SummaryTest, PercentileSingleSample) {
  Summary s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99.9), 42.0);
}

TEST(SummaryTest, AddAfterPercentileInvalidatesCache) {
  Summary s;
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 1.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 10.0);
}

TEST(SummaryTest, ClearResets) {
  Summary s;
  s.Add(5.0);
  s.Clear();
  EXPECT_TRUE(s.empty());
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(SummaryTest, ClearKeepsStorageAndForgetsValues) {
  Summary s;
  for (int i = 0; i < 1000; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(50), 499.5);
  const size_t bytes = s.heap_bytes();
  s.Clear();
  EXPECT_EQ(s.heap_bytes(), bytes);
  for (int i = 0; i < 3; ++i) {
    s.Add(-i);
  }
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.Counts().size(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), -1.0);
  EXPECT_EQ(s.CountAtMost(10.0), 3u);
}

// --- Exactness against a stored-samples oracle ------------------------------

// The percentile definition the summary must reproduce bit for bit: linear
// interpolation between order statistics of the fully sorted samples.
double OraclePercentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    return v[0];
  }
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

void ExpectMatchesOracle(const Summary& s, const std::vector<double>& samples) {
  ASSERT_EQ(s.count(), samples.size());
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(s.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(s.max(), *std::max_element(samples.begin(), samples.end()));
  for (double p : {0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(s.Percentile(p), OraclePercentile(samples, p)) << "p" << p;
  }
  for (double x : {samples.front(), samples.back(), s.Percentile(50), -1.0, 1e9}) {
    const auto below = std::count_if(samples.begin(), samples.end(),
                                     [x](double v) { return v <= x; });
    EXPECT_EQ(s.CountAtMost(x), static_cast<uint64_t>(below)) << "x " << x;
  }
}

// Integer nanoseconds scaled to microseconds, drawn from a narrow range so
// values repeat heavily — the shape of every simulated latency metric.
std::vector<double> LatencyLikeSamples(Rng& rng, size_t n, uint64_t distinct) {
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<double>(1000 + rng.Next() % distinct) / 1e3);
  }
  return out;
}

TEST(SummaryOracle, RandomizedHeavyDuplicatesMatchSortedVector) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.Next() % 5000;
    const uint64_t distinct = 1 + rng.Next() % (trial % 2 == 0 ? 8 : 4000);
    const std::vector<double> samples = LatencyLikeSamples(rng, n, distinct);
    Summary s;
    double sum = 0;
    for (double v : samples) {
      s.Add(v);
      sum += v;
    }
    ExpectMatchesOracle(s, samples);
    // Running sums stay in insertion order: bit-identical, not just close.
    EXPECT_EQ(s.sum(), sum);
    uint64_t total = 0;
    for (const Summary::ValueCount& vc : s.Counts()) {
      total += vc.count;
    }
    EXPECT_EQ(total, n);
  }
}

TEST(SummaryOracle, SingleSampleAndExtremes) {
  Summary s;
  s.Add(7.25);
  ExpectMatchesOracle(s, {7.25});
  EXPECT_EQ(s.Percentile(0), 7.25);
  EXPECT_EQ(s.Percentile(100), 7.25);
  Summary same;
  for (int i = 0; i < 1000; ++i) {
    same.Add(3.5);
  }
  EXPECT_EQ(same.Counts().size(), 1u);
  ExpectMatchesOracle(same, std::vector<double>(1000, 3.5));
}

TEST(SummaryOracle, MergeMatchesUnion) {
  Rng rng(23);
  std::vector<double> all;
  Summary merged;
  for (int part = 0; part < 6; ++part) {
    const std::vector<double> samples =
        LatencyLikeSamples(rng, 300 + rng.Next() % 3000, 50 + rng.Next() % 900);
    Summary s;
    for (double v : samples) {
      s.Add(v);
    }
    // Merge a summary with a half-folded pending buffer and one fully
    // folded by a query: both must carry every sample over.
    if (part % 2 == 0) {
      s.Percentile(50);
    }
    merged.Merge(s);
    all.insert(all.end(), samples.begin(), samples.end());
  }
  ExpectMatchesOracle(merged, all);
  double direct = 0;
  for (double v : all) {
    direct += v;
  }
  EXPECT_NEAR(merged.sum(), direct, 1e-9 * direct);
}

TEST(SummaryOracle, WindowDeltaMatchesSuffix) {
  Rng rng(29);
  const std::vector<double> samples = LatencyLikeSamples(rng, 6000, 300);
  Summary s;
  std::vector<Summary::ValueCount> snapshot;
  size_t cut = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    s.Add(samples[i]);
    if (i == 2500) {
      snapshot = s.Counts();
      cut = i + 1;
    }
  }
  ASSERT_TRUE(s.Covers(snapshot));
  const Summary window = s.Since(snapshot);
  ExpectMatchesOracle(window, std::vector<double>(samples.begin() + cut, samples.end()));
  // Against its own full snapshot the window is empty; against nothing it is
  // everything.
  EXPECT_TRUE(s.Since(s.Counts()).empty());
  ExpectMatchesOracle(s.Since({}), samples);
}

// --- Counts past one byte ---------------------------------------------------

// A table slot holds a one-byte count; a value seen 255 or more times keeps
// its exact count in a side table. These counts straddle that boundary.
constexpr uint64_t kCrossings[] = {1, 254, 255, 256, 1000000};

// `n` copies of 5.0 between two 1.0s and two 9.0s.
Summary Repeated(uint64_t n) {
  Summary s;
  s.Add(1.0);
  s.Add(9.0);
  for (uint64_t i = 0; i < n; ++i) {
    s.Add(5.0);
  }
  s.Add(1.0);
  s.Add(9.0);
  return s;
}

// The multiset of `s` is exactly `want`, and every query agrees with it.
void ExpectCounts(const Summary& s, const std::vector<Summary::ValueCount>& want) {
  const std::vector<Summary::ValueCount>& got = s.Counts();
  ASSERT_EQ(got.size(), want.size());
  uint64_t running = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << i;
    EXPECT_EQ(got[i].count, want[i].count) << "value " << want[i].value;
    running += want[i].count;
    EXPECT_EQ(s.CountAtMost(want[i].value), running);
  }
  EXPECT_EQ(s.count(), running);
  // Percentiles: the interpolated order statistics of the multiset.
  auto at_rank = [&want](uint64_t k) {
    size_t i = 0;
    uint64_t through = want[0].count;
    while (through <= k) {
      through += want[++i].count;
    }
    return want[i].value;
  };
  for (double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
    const double rank = p / 100.0 * static_cast<double>(running - 1);
    const uint64_t lo = static_cast<uint64_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const double expect =
        at_rank(lo) * (1.0 - frac) + at_rank(std::min(lo + 1, running - 1)) * frac;
    EXPECT_EQ(s.Percentile(p), expect) << "p" << p;
  }
}

TEST(SummaryCounts, AddAcrossTheByteBoundary) {
  for (uint64_t n : kCrossings) {
    SCOPED_TRACE(n);
    const Summary s = Repeated(n);
    ExpectCounts(s, {{1.0, 2}, {5.0, n}, {9.0, 2}});
    if (n < 1000) {
      std::vector<double> samples = {1.0, 9.0, 1.0, 9.0};
      samples.insert(samples.end(), n, 5.0);
      ExpectMatchesOracle(s, samples);
    }
  }
}

TEST(SummaryCounts, MergeAcrossTheByteBoundary) {
  // Every pairing: inline + inline (below and across 255), inline +
  // overflow, overflow + inline and overflow + overflow; each with the other
  // side still pending and folded by a query, and into an empty summary.
  std::vector<Summary> parts;
  for (uint64_t n : kCrossings) {
    parts.push_back(Repeated(n));
  }
  for (size_t a = 0; a < parts.size(); ++a) {
    for (size_t b = 0; b < parts.size(); ++b) {
      for (bool folded : {false, true}) {
        SCOPED_TRACE(std::to_string(kCrossings[a]) + " + " + std::to_string(kCrossings[b]));
        Summary other = parts[b];
        if (folded) {
          other.Percentile(50);
        }
        Summary merged = parts[a];
        merged.Merge(other);
        ExpectCounts(merged, {{1.0, 4}, {5.0, kCrossings[a] + kCrossings[b]}, {9.0, 4}});
      }
    }
    Summary empty;
    empty.Merge(parts[a]);
    ExpectCounts(empty, {{1.0, 2}, {5.0, kCrossings[a]}, {9.0, 2}});
  }
}

TEST(SummaryCounts, SinceAndCoversAcrossTheByteBoundary) {
  // Since() rebuilds the window by adding whole counts at once.
  for (uint64_t before : kCrossings) {
    for (uint64_t after : kCrossings) {
      if (after < before) {
        continue;
      }
      SCOPED_TRACE(std::to_string(before) + " -> " + std::to_string(after));
      Summary s;
      s.Add(1.0);
      for (uint64_t i = 0; i < before; ++i) {
        s.Add(5.0);
      }
      const std::vector<Summary::ValueCount> snapshot = s.Counts();
      for (uint64_t i = before; i < after; ++i) {
        s.Add(5.0);
      }
      s.Add(9.0);
      ASSERT_TRUE(s.Covers(snapshot));
      if (after == before) {
        ExpectCounts(s.Since(snapshot), {{9.0, 1}});
      } else {
        ExpectCounts(s.Since(snapshot), {{5.0, after - before}, {9.0, 1}});
      }
      ExpectCounts(s.Since({}), {{1.0, 1}, {5.0, after}, {9.0, 1}});
      // One sample more than this summary holds is not covered.
      EXPECT_TRUE(s.Covers({{5.0, after}}));
      EXPECT_FALSE(s.Covers({{5.0, after + 1}}));
    }
  }
}

TEST(SummaryCounts, ClearThenSameRefillAllocatesNothing) {
  // 2,000 distinct values, 40 of them seen 300 times: both tables grow.
  auto fill = [](Summary& s) {
    for (int i = 0; i < 2000; ++i) {
      const int repeats = i % 50 == 0 ? 300 : 1 + i % 3;
      for (int r = 0; r < repeats; ++r) {
        s.Add(i * 0.5);
      }
    }
    return s.Percentile(99);
  };
  Summary s;
  const double p99 = fill(s);
  const size_t bytes = s.heap_bytes();
  s.Clear();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const double refilled_p99 = fill(s);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(s.heap_bytes(), bytes);
  EXPECT_EQ(refilled_p99, p99);
  EXPECT_EQ(s.Counts()[100].count, 300u);
}

TEST(SummaryOracle, RandomizedRepeatsAcrossTheByteBoundaryWithSignedZeros) {
  // A handful of values, ±0.0 among them, so most counts pass 255; parts
  // are merged and windowed, and every answer must match the sorted samples.
  Rng rng(31);
  const double values[] = {-0.0, 0.0, -1.5, 2.25, 1e-9, 7.0, 7.0 + 1e-12};
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<double> all;
    Summary merged;
    std::vector<Summary::ValueCount> snapshot;
    size_t cut = 0;
    for (int part = 0; part < 3; ++part) {
      const size_t n = 1 + rng.Next() % 3000;
      const size_t distinct = 1 + rng.Next() % std::size(values);
      Summary s;
      for (size_t i = 0; i < n; ++i) {
        const double v = values[rng.Next() % distinct];
        s.Add(v);
        all.push_back(v);
      }
      merged.Merge(s);
      if (part == 0) {
        snapshot = merged.Counts();
        cut = all.size();
      }
    }
    ExpectMatchesOracle(merged, all);
    // Counts() keys +0.0 and -0.0 alike.
    for (const Summary::ValueCount& vc : merged.Counts()) {
      EXPECT_FALSE(std::signbit(vc.value) && vc.value == 0.0);
    }
    ExpectMatchesOracle(merged.Since({}), all);
    const std::vector<double> suffix(all.begin() + static_cast<std::ptrdiff_t>(cut), all.end());
    ExpectMatchesOracle(merged.Since(snapshot), suffix);
  }
}

// A regression gate on the slot size: 100,000 distinct values need 2^18
// slots at 3/4 load, 2.36 MB at 9 bytes each and 4.2 MB at 16.
TEST(SummaryMemory, HundredThousandDistinctValuesFitInTwoAndAHalfMiB) {
  Summary s;
  for (int i = 0; i < 100000; ++i) {
    s.Add(i * 0.001);
  }
  EXPECT_EQ(s.count(), 100000u);
  EXPECT_LE(s.heap_bytes(), size_t{5} << 19);
}

// --- Misuse fails loudly ----------------------------------------------------

std::vector<std::string> g_errors;

void CollectErrors(LogLevel level, SimTime, const char* message) {
  if (level == LogLevel::kError) {
    g_errors.emplace_back(message);
  }
}

class SummaryMisuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_errors.clear();
    previous_sink_ = SetLogSink(&CollectErrors);
  }
  void TearDown() override { SetLogSink(previous_sink_); }
  LogSink previous_sink_ = nullptr;
};

TEST_F(SummaryMisuseTest, NanSampleIsRejectedLoudly) {
  Summary s;
  s.Add(1.0);
  s.Add(std::numeric_limits<double>::quiet_NaN());
  ASSERT_EQ(g_errors.size(), 1u);
  EXPECT_NE(g_errors[0].find("NaN"), std::string::npos) << g_errors[0];
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.sum(), 1.0);
  EXPECT_EQ(s.Percentile(100), 1.0);
}

TEST_F(SummaryMisuseTest, WindowAgainstForeignSnapshotIsRejectedLoudly) {
  Summary a;
  Summary b;
  for (double v : {1.0, 2.0, 2.0}) {
    a.Add(v);
  }
  b.Add(2.0);
  b.Add(3.0);
  // {2, 3} is not a sub-multiset of {1, 2, 2}; neither is {2, 2, 2}.
  EXPECT_FALSE(a.Covers(b.Counts()));
  EXPECT_FALSE(a.Covers({{2.0, 3}}));
  EXPECT_TRUE(a.Covers({{2.0, 2}}));
  const Summary window = a.Since(b.Counts());
  EXPECT_TRUE(window.empty());
  ASSERT_EQ(g_errors.size(), 1u);
  EXPECT_NE(g_errors[0].find("window"), std::string::npos) << g_errors[0];
}

TEST(HistogramTest, BinningAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-1.0);   // Underflow.
  h.Add(0.0);    // Bin 0.
  h.Add(9.999);  // Bin 9.
  h.Add(10.0);   // Overflow (hi is exclusive).
  h.Add(5.5);    // Bin 5.
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
}

TEST(CdfBuilderTest, FractionBelow) {
  CdfBuilder cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(i);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(50), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(1000), 1.0);
}

TEST(CdfBuilderTest, FractionBelowIsInclusiveAndHandlesDuplicates) {
  // x == a sample value counts that sample (<=), including all duplicates —
  // the binary-search rewrite must preserve the old counting semantics.
  CdfBuilder cdf;
  for (double v : {1.0, 2.0, 2.0, 2.0, 3.0}) {
    cdf.Add(v);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(2.0), 0.8);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(1.999), 0.2);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(1.0), 0.2);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(3.0), 1.0);
  // Queries interleaved with Adds see the refreshed sorted cache.
  cdf.Add(0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(0.5), 1.0 / 6.0);
}

TEST(CdfBuilderTest, QuantileInverse) {
  CdfBuilder cdf;
  for (int i = 1; i <= 1000; ++i) {
    cdf.Add(i);
  }
  EXPECT_NEAR(cdf.Quantile(0.9968), 997.0, 1.5);
}

TEST(CounterTest, IncAndReset) {
  Counter c;
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

}  // namespace
}  // namespace taichi::sim
