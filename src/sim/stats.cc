#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/sim/logging.h"

namespace taichi::sim {

namespace {

// Pending samples folded into the table per batch: large enough to hide the
// table's cache misses behind prefetches, small enough (2 KiB) to stay cheap
// on the thousands of summaries a fleet registers.
constexpr size_t kPendingCap = 256;
// Table slots prefetched ahead of the insert that needs them.
constexpr size_t kPrefetchAhead = 16;
// First table size: one Grow() fewer for every summary that sees traffic.
constexpr size_t kInitialSlots = 64;

uint64_t KeyBits(double value) {
  // -0.0 and +0.0 are one value to every order statistic; key them alike.
  return value == 0.0 ? 0 : std::bit_cast<uint64_t>(value);
}

uint64_t HashBits(uint64_t bits) {
  bits ^= bits >> 31;
  bits *= 0x7fb5d329728ea185ULL;
  bits ^= bits >> 27;
  bits *= 0x81dadef4bc2dd44dULL;
  return bits ^ (bits >> 33);
}

}  // namespace

void Summary::Add(double sample) {
  if (std::isnan(sample)) {
    TAICHI_ERROR(0, "summary: NaN sample rejected");
    return;
  }
  ++count_;
  sum_ += sample;
  if (count_ == 1 || sample < min_) {
    min_ = sample;
  }
  if (count_ == 1 || max_ < sample) {
    max_ = sample;
  }
  const double delta = sample - running_mean_;
  running_mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - running_mean_);
  pending_.push_back(sample);
  if (pending_.size() == kPendingCap) {
    FoldPending();
  }
  sorted_valid_ = false;
}

void Summary::Absorb(size_t n_b, double mean_b, double m2_b, double sum_b, double min_b,
                     double max_b) {
  // Chan et al.'s pairwise combination of two (count, mean, M2) parts.
  const double n_a = static_cast<double>(count_);
  const double n = n_a + static_cast<double>(n_b);
  const double delta = mean_b - running_mean_;
  running_mean_ += delta * static_cast<double>(n_b) / n;
  m2_ += m2_b + delta * delta * n_a * static_cast<double>(n_b) / n;
  sum_ += sum_b;
  if (count_ == 0 || min_b < min_) {
    min_ = min_b;
  }
  if (count_ == 0 || max_ < max_b) {
    max_ = max_b;
  }
  count_ += n_b;
  sorted_valid_ = false;
}

void Summary::AddCount(double value, uint64_t count) {
  if (count == 0) {
    return;
  }
  // `count` equal values: group mean = value, group M2 = 0.
  Absorb(count, value, 0, value * static_cast<double>(count), value, value);
  const uint64_t bits = KeyBits(value);
  Insert(bits, HashBits(bits), count);
}

void Summary::Merge(const Summary& other) {
  if (other.empty()) {
    return;
  }
  if (empty()) {
    *this = other;
    return;
  }
  Absorb(other.count_, other.running_mean_, other.m2_, other.sum_, other.min_, other.max_);
  for (const Slot& slot : other.table_) {
    if (slot.count != 0) {
      Insert(slot.bits, HashBits(slot.bits), slot.count);
    }
  }
  for (double v : other.pending_) {
    const uint64_t bits = KeyBits(v);
    Insert(bits, HashBits(bits), 1);
  }
}

void Summary::Insert(uint64_t bits, uint64_t hash, uint64_t count) const {
  if (table_.empty()) {
    table_.resize(kInitialSlots);
  }
  const size_t mask = table_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = table_[i];
    if (slot.count == 0) {
      slot = {bits, count};
      // Grow past 3/4 occupancy so probe chains stay short.
      if (++distinct_ * 4 > table_.size() * 3) {
        Grow();
      }
      return;
    }
    if (slot.bits == bits) {
      slot.count += count;
      return;
    }
  }
}

void Summary::Grow() const {
  std::vector<Slot> old(table_.size() * 2, Slot{0, 0});
  old.swap(table_);
  const size_t mask = table_.size() - 1;
  // The re-placement writes land at random: hash a chunk of old slots and
  // prefetch every destination before writing any, so the misses overlap.
  constexpr size_t kChunk = 32;
  size_t home[kChunk];
  for (size_t base = 0; base < old.size(); base += kChunk) {
    const size_t end = std::min(base + kChunk, old.size());
    for (size_t i = base; i < end; ++i) {
      home[i - base] = HashBits(old[i].bits) & mask;
      __builtin_prefetch(&table_[home[i - base]], 1);
    }
    for (size_t i = base; i < end; ++i) {
      if (old[i].count == 0) {
        continue;
      }
      size_t j = home[i - base];
      while (table_[j].count != 0) {
        j = (j + 1) & mask;
      }
      table_[j] = old[i];
    }
  }
}

void Summary::FoldPending() const {
  const size_t n = pending_.size();
  if (n == 0) {
    return;
  }
  uint64_t bits[kPendingCap];
  uint64_t hash[kPendingCap];
  for (size_t i = 0; i < n; ++i) {
    bits[i] = KeyBits(pending_[i]);
    hash[i] = HashBits(bits[i]);
  }
  if (table_.empty()) {
    table_.resize(kInitialSlots);
  }
  // Prefetches are hints: a Grow() mid-batch only makes a few of them stale.
  for (size_t i = 0; i < n && i < kPrefetchAhead; ++i) {
    __builtin_prefetch(&table_[hash[i] & (table_.size() - 1)], 1);
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      __builtin_prefetch(&table_[hash[i + kPrefetchAhead] & (table_.size() - 1)], 1);
    }
    Insert(bits[i], hash[i], 1);
  }
  pending_.clear();
}

void Summary::EnsureSorted() const {
  if (sorted_valid_) {
    return;
  }
  FoldPending();
  sorted_.clear();
  sorted_.reserve(distinct_);
  for (const Slot& slot : table_) {
    if (slot.count != 0) {
      sorted_.push_back({std::bit_cast<double>(slot.bits), slot.count});
    }
  }
  std::sort(sorted_.begin(), sorted_.end(),
            [](const ValueCount& a, const ValueCount& b) { return a.value < b.value; });
  cum_.resize(sorted_.size());
  uint64_t running = 0;
  for (size_t i = 0; i < sorted_.size(); ++i) {
    running += sorted_[i].count;
    cum_[i] = running;
  }
  sorted_valid_ = true;
}

const std::vector<Summary::ValueCount>& Summary::Counts() const {
  EnsureSorted();
  return sorted_;
}

double Summary::min() const {
  assert(!empty());
  return min_;
}

double Summary::max() const {
  assert(!empty());
  return max_;
}

double Summary::mean() const {
  assert(!empty());
  return sum_ / static_cast<double>(count_);
}

double Summary::stddev() const {
  if (count_ < 2) {
    return 0;
  }
  double var = m2_ / static_cast<double>(count_ - 1);
  return var > 0 ? std::sqrt(var) : 0;
}

double Summary::mdev() const {
  if (empty()) {
    return 0;
  }
  const double m = mean();
  double acc = 0;
  for (const ValueCount& vc : Counts()) {
    acc += std::fabs(vc.value - m) * static_cast<double>(vc.count);
  }
  return acc / static_cast<double>(count_);
}

double Summary::Percentile(double p) const {
  assert(!empty());
  EnsureSorted();
  p = std::clamp(p, 0.0, 100.0);
  if (count_ == 1) {
    return min_;
  }
  // The order statistic at rank k of the fully sorted samples is the first
  // distinct value whose running count exceeds k.
  auto at_rank = [this](size_t k) {
    const size_t i = static_cast<size_t>(std::upper_bound(cum_.begin(), cum_.end(), k) -
                                         cum_.begin());
    return sorted_[i].value;
  };
  double rank = p / 100.0 * static_cast<double>(count_ - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, count_ - 1);
  double frac = rank - static_cast<double>(lo);
  return at_rank(lo) * (1.0 - frac) + at_rank(hi) * frac;
}

uint64_t Summary::CountAtMost(double x) const {
  EnsureSorted();
  const auto it = std::upper_bound(
      sorted_.begin(), sorted_.end(), x,
      [](double v, const ValueCount& vc) { return v < vc.value; });
  return it == sorted_.begin() ? 0 : cum_[static_cast<size_t>(it - sorted_.begin()) - 1];
}

bool Summary::Covers(const std::vector<ValueCount>& snapshot) const {
  const std::vector<ValueCount>& mine = Counts();
  size_t j = 0;
  for (const ValueCount& vc : snapshot) {
    while (j < mine.size() && mine[j].value < vc.value) {
      ++j;
    }
    if (j == mine.size() || mine[j].value != vc.value || mine[j].count < vc.count) {
      return false;
    }
  }
  return true;
}

Summary Summary::Since(const std::vector<ValueCount>& snapshot) const {
  Summary delta;
  if (!Covers(snapshot)) {
    TAICHI_ERROR(0, "summary: window snapshot is not a subset of the summary (%zu samples)",
                 count_);
    return delta;
  }
  size_t j = 0;
  for (const ValueCount& vc : sorted_) {
    uint64_t consumed = 0;
    if (j < snapshot.size() && snapshot[j].value == vc.value) {
      consumed = snapshot[j++].count;
    }
    delta.AddCount(vc.value, vc.count - consumed);
  }
  return delta;
}

void Summary::Clear() {
  // Keeps every buffer's capacity: a summary cleared after warm-up refills
  // without allocating (bench_micro's steady-state gate depends on it).
  count_ = 0;
  sum_ = min_ = max_ = running_mean_ = m2_ = 0;
  pending_.clear();
  std::fill(table_.begin(), table_.end(), Slot{0, 0});
  distinct_ = 0;
  sorted_.clear();
  cum_.clear();
  sorted_valid_ = true;
}

size_t Summary::heap_bytes() const {
  return pending_.capacity() * sizeof(double) + table_.capacity() * sizeof(Slot) +
         sorted_.capacity() * sizeof(ValueCount) + cum_.capacity() * sizeof(uint64_t);
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::Add(double sample) {
  ++total_;
  if (sample < lo_) {
    ++underflow_;
  } else if (sample >= hi_) {
    ++overflow_;
  } else {
    size_t idx = static_cast<size_t>((sample - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
    ++counts_[idx];
  }
}

double Histogram::bin_lo(size_t i) const { return lo_ + width_ * static_cast<double>(i); }
double Histogram::bin_hi(size_t i) const { return lo_ + width_ * static_cast<double>(i + 1); }

double CdfBuilder::FractionBelow(double x) const {
  if (summary_.empty()) {
    return 0;
  }
  return static_cast<double>(summary_.CountAtMost(x)) / static_cast<double>(summary_.count());
}

}  // namespace taichi::sim
