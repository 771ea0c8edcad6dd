/**
 * @file
 * Fixed-capacity inline bitset: the full-width form of the coherence
 * holder masks.
 *
 * The directory stores each block's holder and copy bits in only as
 * many words as the modelled machine needs (coherence/directory.hpp)
 * and hands out InlineBitset snapshots sized for the kMaxCores /
 * kMaxL2Banks caps: 128 L1 bits and 256 bank bits. The protocol's
 * sweeps walk those snapshots with the exact operations here:
 * ascending-order set-bit iteration (the walk order is part of the
 * frozen behavior — stats are byte-compared across refactors),
 * popcount, and single-bit updates. Everything is inline and
 * allocation-free.
 */

#ifndef ESPNUCA_COMMON_INLINE_BITSET_HPP_
#define ESPNUCA_COMMON_INLINE_BITSET_HPP_

#include <cstdint>

#include "common/log.hpp"

namespace espnuca {

/** N-bit set stored in N/64 inline words. N must be a multiple of 64. */
template <std::uint32_t N>
class InlineBitset
{
    static_assert(N % 64 == 0, "capacity must be a multiple of 64");

  public:
    static constexpr std::uint32_t kBits = N;
    static constexpr std::uint32_t kWords = N / 64;

    constexpr InlineBitset() = default;

    bool
    test(std::uint32_t i) const
    {
        ESP_ASSERT(i < N, "bit index out of range");
        return (w_[i / 64] >> (i % 64)) & 1u;
    }

    void
    set(std::uint32_t i)
    {
        ESP_ASSERT(i < N, "bit index out of range");
        w_[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    void
    clear(std::uint32_t i)
    {
        ESP_ASSERT(i < N, "bit index out of range");
        w_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    }

    bool
    any() const
    {
        for (std::uint32_t k = 0; k < kWords; ++k)
            if (w_[k] != 0)
                return true;
        return false;
    }

    bool none() const { return !any(); }

    std::uint32_t
    count() const
    {
        std::uint32_t n = 0;
        for (std::uint32_t k = 0; k < kWords; ++k)
            n += static_cast<std::uint32_t>(__builtin_popcountll(w_[k]));
        return n;
    }

    /** Copy with one bit cleared (the snapshot-then-walk pattern: the
     *  sweep loops snapshot the holder set, excluding the requester,
     *  before the drops mutate the live entry). */
    InlineBitset
    withCleared(std::uint32_t i) const
    {
        InlineBitset b = *this;
        b.clear(i);
        return b;
    }

    /**
     * Visit every set bit in ascending index order — the same order the
     * old `m &= m - 1` scalar walks produced, which the protocol's
     * target-list semantics (and byte-compared stats) rely on.
     */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::uint32_t k = 0; k < kWords; ++k)
            for (std::uint64_t m = w_[k]; m != 0; m &= m - 1)
                fn(k * 64 +
                   static_cast<std::uint32_t>(__builtin_ctzll(m)));
    }

    bool
    operator==(const InlineBitset &o) const
    {
        for (std::uint32_t k = 0; k < kWords; ++k)
            if (w_[k] != o.w_[k])
                return false;
        return true;
    }

    /** Raw word (snapshot serialization; little-endian fixed layout). */
    std::uint64_t word(std::uint32_t k) const { return w_[k]; }
    void setWord(std::uint32_t k, std::uint64_t v) { w_[k] = v; }

  private:
    std::uint64_t w_[kWords] = {};
};

} // namespace espnuca

#endif // ESPNUCA_COMMON_INLINE_BITSET_HPP_
