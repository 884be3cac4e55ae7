// Measurement primitives: summaries, percentiles, histograms and CDFs.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace taichi::sim {

// Accumulates samples and answers min/mean/max/stddev/mdev/percentile
// queries in memory that follows the number of *distinct* values, not the
// number of samples. Simulated latencies are integer nanoseconds scaled to
// us or ms, so values repeat: the perfbench fleet workloads hold 5-90x fewer
// distinct values than samples, and the ratio grows with simulated time.
//
// Storage is exact. Each distinct value (keyed by its bit pattern) carries a
// sample count in an open-addressed table of 9-byte slots: the bit pattern
// and a saturating one-byte count. Most latency values occur a few times, so
// a count that reaches 255 moves to a small side table keyed by the same
// bits. Add() appends to a small pending buffer that is folded into the table
// in batches, which keeps the per-sample cost at a vector push. Percentiles
// are answered from the distinct values sorted once per query batch, so every
// order statistic (and its interpolation) equals the one a fully sorted
// sample vector gives. sum/min/max and the Welford moments are kept in
// insertion order, so they are bit-identical to a per-sample computation.
// NaN is rejected.
class Summary {
 public:
  // One distinct sample value and how many samples carried it.
  struct ValueCount {
    double value;
    uint64_t count;
  };

  void Add(double sample);
  // Folds `other`'s samples in: a count merge. min/max/percentiles equal
  // those of adding every sample; sum and moments combine per part, so they
  // may differ from a per-sample sum in the last bit.
  void Merge(const Summary& other);

  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }
  double stddev() const;
  // Mean absolute deviation from the mean — ping's "mdev" statistic.
  double mdev() const;
  // p in [0, 100]; exact order statistic with linear interpolation.
  double Percentile(double p) const;
  // Number of samples with value <= x.
  uint64_t CountAtMost(double x) const;

  // The multiset: distinct values ascending with their counts. Built lazily
  // and shared with Percentile(); invalidated by the next Add().
  const std::vector<ValueCount>& Counts() const;
  // True when `snapshot` (an earlier Counts() of a summary) is a
  // sub-multiset of this one: every value occurs here at least as often.
  bool Covers(const std::vector<ValueCount>& snapshot) const;
  // The samples added since `snapshot` was taken: this minus `snapshot` as
  // multisets. A snapshot this summary does not cover is misuse — logged
  // with TAICHI_ERROR, and the result is empty.
  Summary Since(const std::vector<ValueCount>& snapshot) const;

  // Forgets every sample but keeps the storage, so refilling to the same
  // number of distinct values does not allocate.
  void Clear();

  // Heap bytes held: pending buffer, value tables and sorted view. Grows with
  // the number of distinct values, not with the number of samples.
  size_t heap_bytes() const;

 private:
  // A count of kOverflow in a slot means the exact count is in overflow_.
  static constexpr uint8_t kOverflow = 255;

  // One value-table slot, packed to 9 bytes. The bit pattern is kept as raw
  // bytes and read or written with memcpy, so no reference or pointer ever
  // binds to an unaligned 64-bit member.
  struct Slot {
    unsigned char key[8];
    uint8_t count;  // 0 marks a free slot.

    uint64_t bits() const;
    void set_bits(uint64_t bits);
  };
  static_assert(sizeof(Slot) == 9, "value-table slots are packed to 9 bytes");
  // Side-table entry for a value seen kOverflow or more times.
  struct Overflow {
    uint64_t bits;
    uint64_t count;  // 0 marks a free entry.
  };

  // Folds a part with the given moments into the running statistics.
  void Absorb(size_t n_b, double mean_b, double m2_b, double sum_b, double min_b, double max_b);
  void AddCount(double value, uint64_t count);
  void FoldPending() const;
  void Insert(uint64_t bits, uint64_t hash, uint64_t count) const;
  void AddToSlot(Slot& slot, uint64_t count) const;
  uint64_t CountOf(const Slot& slot) const;
  // Index in overflow_ of `bits`' entry, or of the free entry that ends its
  // probe chain.
  size_t OverflowSlot(uint64_t bits) const;
  // The overflow count of `bits`, inserted as 0 if absent.
  uint64_t& OverflowCount(uint64_t bits) const;
  void Grow() const;
  void EnsureSorted() const;

  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  // Welford running moments: the sum-of-squares shortcut cancels
  // catastrophically when stddev << mean (e.g. microsecond jitter on
  // millisecond latencies), which is exactly what latency metrics look like.
  double running_mean_ = 0;
  double m2_ = 0;

  // Samples not yet folded into table_ (at most kPendingCap).
  mutable std::vector<double> pending_;
  // Open-addressed, linear probing, power-of-two size.
  mutable std::vector<Slot> table_;
  mutable size_t distinct_ = 0;
  // Exact counts of the values whose slot reads kOverflow; open-addressed
  // like table_ and, like it, keeps its capacity across Clear().
  mutable std::vector<Overflow> overflow_;
  mutable size_t overflowed_ = 0;
  // Sorted view: distinct values ascending with their counts.
  mutable std::vector<ValueCount> sorted_;
  mutable bool sorted_valid_ = true;
};

// Fixed-bucket histogram over [lo, hi) with `bins` equal-width buckets plus
// underflow/overflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);

  void Add(double sample);

  size_t bins() const { return counts_.size(); }
  uint64_t bin_count(size_t i) const { return counts_[i]; }
  double bin_lo(size_t i) const;
  double bin_hi(size_t i) const;
  uint64_t underflow() const { return underflow_; }
  uint64_t overflow() const { return overflow_; }
  uint64_t total() const { return total_; }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t total_ = 0;
};

// Builds an empirical CDF: fraction of samples <= x for query points x.
class CdfBuilder {
 public:
  void Add(double sample) { summary_.Add(sample); }
  size_t count() const { return summary_.count(); }

  // Fraction (0..1) of samples with value <= x.
  double FractionBelow(double x) const;

  // Smallest sample value v such that FractionBelow(v) >= q (q in 0..1].
  double Quantile(double q) const { return summary_.Percentile(q * 100.0); }

 private:
  Summary summary_;
};

// A named monotonically increasing counter.
class Counter {
 public:
  void Inc(uint64_t by = 1) { value_ += by; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

}  // namespace taichi::sim

#endif  // SRC_SIM_STATS_H_
