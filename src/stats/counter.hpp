/**
 * @file
 * Simple named statistic counters and weighted accumulators.
 */

#ifndef ESPNUCA_STATS_COUNTER_HPP_
#define ESPNUCA_STATS_COUNTER_HPP_

#include <cstdint>
#include <string>

namespace espnuca {

/** Monotonic event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Accumulates a sum and a count; reports the average. Used e.g. for
 * average access time per service level (Figure 6).
 */
class Average
{
  public:
    void
    record(double v)
    {
        sum_ += v;
        ++count_;
    }

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }

    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_STATS_COUNTER_HPP_
