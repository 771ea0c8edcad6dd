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

    /** Reset the estimate (e.g., at a phase boundary). */
    void reset(std::uint32_t v = 0) { value_ = v; }

    /** Overwrite the register exactly (snapshot restore). */
    void setRaw(std::uint32_t v) { value_ = v; }

    /** Fixed-point width b. */
    unsigned bits() const { return bBits_; }

    /** Smoothing shift a (alpha = 2^-a). */
    unsigned shift() const { return aShift_; }

  private:
    unsigned bBits_;
    unsigned aShift_;
    std::uint32_t value_;
};

/**
 * A ShiftEma fed through a 64-sample bit buffer. record() is a shift and
 * an or; the underlying EMA only advances when flush() replays the
 * buffered samples in arrival order. Because replay preserves order, the
 * post-flush register value is bit-identical to per-access updates — the
 * only observable difference is *when* the work happens. raw() replays
 * the buffer on a copy, so a reader sees the current value without
 * changing the state a snapshot saves.
 */
class BatchedShiftEma
{
  public:
    BatchedShiftEma(unsigned b, unsigned a) : ema_(b, a) {}

    /** Buffer one binary sample; spills to the EMA when the buffer fills. */
    void
    record(bool hit)
    {
        bits_ |= static_cast<std::uint64_t>(hit) << pending_;
        if (++pending_ == 64)
            flush();
    }

    /** Replay every buffered sample into the EMA (oldest first). */
    void
    flush()
    {
        for (std::uint32_t i = 0; i < pending_; ++i)
            ema_.record((bits_ >> i) & 1u);
        bits_ = 0;
        pending_ = 0;
    }

    /** Raw fixed-point estimate, as flush() would leave it. */
    std::uint32_t
    raw() const
    {
        ShiftEma e = ema_;
        for (std::uint32_t i = 0; i < pending_; ++i)
            e.record((bits_ >> i) & 1u);
        return e.raw();
    }

    /** Samples buffered but not yet applied (testing aid). */
    std::uint32_t pending() const { return pending_; }

    // -- Snapshot/restore: expose the exact register + buffer so a
    //    restored run flushes identically to the uninterrupted one.
    std::uint32_t rawNoFlush() const { return ema_.raw(); }
    std::uint64_t pendingBits() const { return bits_; }

    void
    restore(std::uint32_t raw_value, std::uint64_t bits,
            std::uint32_t pending)
    {
        ema_.setRaw(raw_value);
        bits_ = bits;
        pending_ = pending;
    }

    /** Reset estimate and buffer. */
    void
    reset(std::uint32_t v = 0)
    {
        ema_.reset(v);
        bits_ = 0;
        pending_ = 0;
    }

  private:
    ShiftEma ema_;
    std::uint64_t bits_ = 0;    //!< sample i lives in bit i
    std::uint32_t pending_ = 0; //!< buffered, un-applied samples
};

} // namespace espnuca

#endif // ESPNUCA_STATS_EMA_HPP_
