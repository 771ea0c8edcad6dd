/**
 * @file
 * Shift-based fixed-point Exponential Moving Average, exactly the
 * hardware-friendly formulation of paper equation (2):
 *
 *   on hit : EMA' = EMA - (EMA >> a) + (2^b >> a)
 *   on miss: EMA' = EMA - (EMA >> a)
 *
 * The estimate is normalized to [0, 2^b]; alpha = 2^-a corresponds to an
 * N-sample EMA with alpha = 2 / (N + 1) (paper equation (1)).
 */

#ifndef ESPNUCA_STATS_EMA_HPP_
#define ESPNUCA_STATS_EMA_HPP_

#include <cstdint>

#include "common/log.hpp"

namespace espnuca {

/**
 * Hardware-style EMA over a binary (hit/miss) event stream. Matches what
 * an L2 bank would implement with two shifters and an adder: no
 * multiplies, no floating point.
 */
class ShiftEma
{
  public:
    /**
     * @param b fixed-point width; estimates live in [0, 2^b]
     * @param a smoothing shift; alpha = 2^-a
     */
    ShiftEma(unsigned b, unsigned a) : bBits_(b), aShift_(a), value_(0)
    {
        ESP_ASSERT(b > 0 && b < 31, "EMA width out of range");
        ESP_ASSERT(a > 0 && a <= b, "EMA shift out of range");
    }

    /** Record one binary sample (paper eq. 2). */
    void
    record(bool hit)
    {
        value_ -= value_ >> aShift_;
        if (hit)
            value_ += (std::uint32_t{1} << bBits_) >> aShift_;
    }

    /** Raw fixed-point estimate in [0, 2^b]. */
    std::uint32_t raw() const { return value_; }

    /** Estimate as a fraction in [0, 1] (test/diagnostic use only). */
    double
    fraction() const
    {
        return static_cast<double>(value_) /
               static_cast<double>(std::uint32_t{1} << bBits_);
    }

    /** Set the register to `v` (a phase boundary, a snapshot restore). */
    void reset(std::uint32_t v = 0) { value_ = v; }

    /** Fixed-point width b. */
    unsigned bits() const { return bBits_; }

    /** Smoothing shift a (alpha = 2^-a). */
    unsigned shift() const { return aShift_; }

  private:
    unsigned bBits_;
    unsigned aShift_;
    std::uint32_t value_;
};

} // namespace espnuca

#endif // ESPNUCA_STATS_EMA_HPP_
