/**
 * @file
 * A w-way set in struct-of-arrays layout. Policies query the set through
 * class masks — how the paper's "private bit added to the tag
 * comparison" and "LRU among the helping blocks" rules are expressed.
 *
 * Hot-path layout (DESIGN.md 5.10): the per-way tags live in one packed
 * contiguous array and the valid/class occupancy is kept as u32 way
 * bitmasks right behind it, so a probe is a branch-light scan over the
 * set's first 160 bytes, and every class-population count (the
 * paper's per-set `n`) is a popcount. Recency is one 8-bit rank per way
 * (0 = MRU .. w-1 = LRU), the log2(w)-bit LRU position the paper prices
 * (§3). The rest of a way's state sits in a 5-byte cold record (class,
 * owner, dirty, owner token, hit counter); nothing is stored twice, and
 * way() rebuilds a BlockMeta by value from the tag, the valid mask and
 * that record.
 */

#ifndef ESPNUCA_CACHE_CACHE_SET_HPP_
#define ESPNUCA_CACHE_CACHE_SET_HPP_

#include <array>
#include <cstdint>
#include <vector>

#include "cache/block.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

/** Way index sentinel. */
inline constexpr int kNoWay = -1;

/**
 * Set of `w` ways (w <= kMaxWays) in struct-of-arrays layout plus a
 * recency rank per way. Probes and victim scans walk u32 candidate
 * bitmasks over the packed tag/rank arrays; class counts are popcounts;
 * a recency update shifts at most w one-byte ranks.
 *
 * All per-way storage is inline (fixed-capacity arrays, not vectors):
 * a bank's sets live in one contiguous allocation of 256-byte sets, so
 * a probe of a cold set costs one memory stream instead of dependent
 * pointer chases into separately allocated arrays.
 */
class CacheSet
{
  public:
    /** Inline per-way capacity. Every studied geometry uses <= 16 ways
     * (Table 2: 16-way L2, 4-way L1); raise if a config ever needs
     * more — the way bitmasks support up to 32. */
    static constexpr std::uint32_t kMaxWays = 16;
    static_assert(kMaxWays <= 32, "way masks are 32 bits wide");

    explicit CacheSet(std::uint32_t ways) : ways_(ways)
    {
        ESP_ASSERT(ways > 0, "set needs at least one way");
        ESP_ASSERT(ways <= kMaxWays, "raise CacheSet::kMaxWays");
        wayMask_ = static_cast<std::uint32_t>((std::uint64_t{1} << ways) -
                                              1);
        tag_.fill(kInvalidAddr);
        // Initial recency order: way 0 is MRU, way w-1 is LRU.
        for (std::uint32_t i = 0; i < ways; ++i)
            rank_[i] = static_cast<std::uint8_t>(i);
    }

    std::uint32_t numWays() const { return ways_; }

    /** Way metadata, rebuilt from the tag, the valid mask and the cold
     *  record. A copy: mutate the way through the mutators below. */
    BlockMeta
    way(int i) const
    {
        checkWay(i);
        const auto k = static_cast<std::size_t>(i);
        const WayRecord &r = rec_[k];
        BlockMeta m;
        m.addr = tag_[k];
        m.valid = (validMask_ >> k) & 1u;
        m.dirty = r.dirty;
        m.cls = static_cast<BlockClass>(r.cls);
        m.owner = r.owner == kNoOwner ? kInvalidCore : r.owner;
        m.hasOwnerToken = r.hasOwnerToken;
        m.hits = r.hits;
        return m;
    }

    // -- Mutators --------------------------------------------------------

    /**
     * Overwrite a way with `m` wholesale (fills, test seeding). Does
     * not touch recency; pair with touch() for an MRU insertion.
     */
    void
    assign(int w, const BlockMeta &m)
    {
        const std::uint32_t bit = wayBit(w);
        ESP_ASSERT(!m.valid || !(disabledMask_ & bit),
                   "assigning into a fault-disabled way");
        WayRecord &cur = rec_[static_cast<std::size_t>(w)];
        if (validMask_ & bit) {
            validMask_ &= ~bit;
            classWays_[cur.cls] &= ~bit;
        }
        cur.cls = static_cast<std::uint8_t>(clsIndex(m.cls));
        cur.owner = packOwner(m.owner);
        cur.dirty = m.dirty;
        cur.hasOwnerToken = m.hasOwnerToken;
        cur.hits = m.hits;
        tag_[static_cast<std::size_t>(w)] = m.valid ? m.addr
                                                    : kInvalidAddr;
        if (m.valid) {
            validMask_ |= bit;
            classWays_[clsIndex(m.cls)] |= bit;
        }
    }

    /** Invalidate a way (coherence invalidation / eviction teardown). */
    void
    clearWay(int w)
    {
        const std::uint32_t bit = wayBit(w);
        WayRecord &cur = rec_[static_cast<std::size_t>(w)];
        if (validMask_ & bit) {
            validMask_ &= ~bit;
            classWays_[cur.cls] &= ~bit;
        }
        cur = WayRecord{};
        tag_[static_cast<std::size_t>(w)] = kInvalidAddr;
    }

    /** Reclassify a valid way in place (e.g. victim -> shared). */
    void
    setClass(int w, BlockClass cls, CoreId owner)
    {
        const std::uint32_t bit = wayBit(w);
        WayRecord &cur = rec_[static_cast<std::size_t>(w)];
        ESP_ASSERT(validMask_ & bit, "reclassifying an invalid way");
        classWays_[cur.cls] &= ~bit;
        classWays_[clsIndex(cls)] |= bit;
        cur.cls = static_cast<std::uint8_t>(clsIndex(cls));
        cur.owner = packOwner(owner);
    }

    /** Set the dirty bit (cold record). */
    void
    setDirty(int w, bool v)
    {
        checkWay(w);
        rec_[static_cast<std::size_t>(w)].dirty = v;
    }

    /** Set the owner-token bit (cold record). */
    void
    setOwnerToken(int w, bool v)
    {
        checkWay(w);
        rec_[static_cast<std::size_t>(w)].hasOwnerToken = v;
    }

    /** Saturating demand-hit counter bump (reuse filter). */
    void
    bumpHits(int w)
    {
        checkWay(w);
        WayRecord &cur = rec_[static_cast<std::size_t>(w)];
        if (cur.hits < 255)
            ++cur.hits;
    }

    // -- Search --------------------------------------------------------

    /**
     * Hint the hardware to pull the lines find() reads — the two tag
     * lines and the occupancy masks behind them — into cache ahead of a
     * find() known to follow shortly. Pure performance hint.
     */
    void
    prefetchTags() const
    {
        __builtin_prefetch(&tag_[0]);
        __builtin_prefetch(&tag_[kMaxWays / 2]);
        __builtin_prefetch(&validMask_);
    }

    /** Find a valid way holding `addr` whose class is in `mask`. */
    int
    find(Addr addr, ClassMask mask) const
    {
        ESP_PROF_SCOPE("set.find");
        const Addr *tags = tag_.data();
        for (std::uint32_t cand = waysMatching(mask); cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctz(cand);
            if (tags[i] == addr)
                return i;
        }
        return kNoWay;
    }

    /** Find a valid way holding `addr` under any class. */
    int
    findAny(Addr addr) const
    {
        const Addr *tags = tag_.data();
        for (std::uint32_t cand = validMask_; cand != 0; cand &= cand - 1) {
            const int i = __builtin_ctz(cand);
            if (tags[i] == addr)
                return i;
        }
        return kNoWay;
    }

    // -- Recency -------------------------------------------------------

    /** Promote a way to MRU: every way more recent than it ages by one. */
    void
    touch(int w)
    {
        checkWay(w);
        const std::uint8_t r = rank_[static_cast<std::size_t>(w)];
        for (std::uint32_t i = 0; i < ways_; ++i)
            rank_[i] = static_cast<std::uint8_t>(rank_[i] + (rank_[i] < r));
        rank_[static_cast<std::size_t>(w)] = 0;
    }

    /** Demote a way to LRU (used when inserting low-priority blocks):
     *  every way older than it gains one position. */
    void
    demote(int w)
    {
        checkWay(w);
        const std::uint8_t r = rank_[static_cast<std::size_t>(w)];
        for (std::uint32_t i = 0; i < ways_; ++i)
            rank_[i] = static_cast<std::uint8_t>(rank_[i] - (rank_[i] > r));
        rank_[static_cast<std::size_t>(w)] =
            static_cast<std::uint8_t>(ways_ - 1);
    }

    /** Any invalid (and not fault-disabled) way, or kNoWay. */
    int
    invalidWay() const
    {
        const std::uint32_t inv = ~(validMask_ | disabledMask_) & wayMask_;
        return inv != 0 ? __builtin_ctz(inv) : kNoWay;
    }

    // -- Fault model ---------------------------------------------------

    /**
     * Fence off the masked ways (fault injection; bits beyond the set's
     * ways are ignored). Disabled ways are permanently invalid:
     * invalidWay() skips them, and since every other helper only
     * considers valid ways they can never be found, touched, or chosen
     * as victims. Must be applied before the set holds data (injection
     * happens at system assembly).
     */
    void
    disableWays(std::uint64_t mask)
    {
        const auto m = static_cast<std::uint32_t>(mask & wayMask_);
        ESP_ASSERT(!(m & validMask_), "disabling a way that holds data");
        disabledMask_ |= m;
    }

    /** True when way `w` has been fenced off by fault injection. */
    bool
    wayDisabled(int w) const
    {
        return (disabledMask_ >> static_cast<std::uint32_t>(w)) & 1u;
    }

    /** Ways still usable after fault injection. */
    std::uint32_t
    enabledWays() const
    {
        return numWays() - static_cast<std::uint32_t>(
                               __builtin_popcount(disabledMask_));
    }

    // -- Replacement helpers -------------------------------------------

    /** LRU-most valid way whose class is in `mask`, or kNoWay. */
    int
    lruAmong(ClassMask mask) const
    {
        ESP_PROF_SCOPE("set.lru");
        int best = kNoWay;
        int best_rank = -1;
        for (std::uint32_t cand = waysMatching(mask); cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctz(cand);
            if (rank_[static_cast<std::size_t>(i)] > best_rank) {
                best = i;
                best_rank = rank_[static_cast<std::size_t>(i)];
            }
        }
        return best;
    }

    /** Globally LRU valid way, or kNoWay when the set is empty. */
    int
    lruWay() const
    {
        return lruAmong(kMatchAny);
    }

    /** Count valid ways whose class is in `mask`. */
    std::uint32_t
    countIf(ClassMask mask) const
    {
        return static_cast<std::uint32_t>(
            __builtin_popcount(waysMatching(mask)));
    }

    /** Number of valid helping blocks (the paper's per-set `n` counter). */
    std::uint32_t
    helpingCount() const
    {
        return static_cast<std::uint32_t>(__builtin_popcount(
            classWays_[clsIndex(BlockClass::Replica)] |
            classWays_[clsIndex(BlockClass::Victim)]));
    }

    /** Recency position of a way: 0 = MRU .. w-1 = LRU (testing aid). */
    std::uint32_t
    recencyOf(int w) const
    {
        checkWay(w);
        return rank_[static_cast<std::size_t>(w)];
    }

    // -- Snapshot/restore ----------------------------------------------

    /**
     * Serialize the set in its in-memory layout (snapshot v7): the way
     * count and the disabled mask as u32, then per way the tag (u64),
     * the recency rank (u8) and the 5-byte cold record. The valid and
     * class masks are not written: they are functions of the tags and
     * the records.
     */
    void
    save(SnapshotWriter &w) const
    {
        w.u32(ways_);
        w.u32(disabledMask_);
        for (std::uint32_t i = 0; i < ways_; ++i) {
            const WayRecord &m = rec_[i];
            w.u64(tag_[i]);
            w.u8(rank_[i]);
            w.u8(m.cls);
            w.u8(m.owner);
            w.b(m.dirty);
            w.b(m.hasOwnerToken);
            w.u8(m.hits);
        }
    }

    /** Restore a save() record, rebuilding the valid mask from the tags
     *  and the class masks from the valid ways' records. Throws
     *  SnapshotError on a way-count mismatch, a disabled bit beyond the
     *  set's ways, a valid way that is also disabled, ranks that are not
     *  a permutation of 0..w-1, a class beyond BlockClass, or an owner
     *  byte that is neither kNoOwner nor below kMaxCores. */
    void
    load(SnapshotReader &r)
    {
        if (r.u32() != ways_)
            throw SnapshotError("cache set way-count mismatch");
        disabledMask_ = r.u32();
        if (disabledMask_ & ~wayMask_)
            throw SnapshotError("cache set mask beyond its ways");
        validMask_ = 0;
        classWays_.fill(0);
        std::uint32_t seen_ranks = 0;
        for (std::uint32_t i = 0; i < ways_; ++i) {
            WayRecord &m = rec_[i];
            tag_[i] = r.u64();
            rank_[i] = r.u8();
            m.cls = r.u8();
            m.owner = r.u8();
            m.dirty = r.b();
            m.hasOwnerToken = r.b();
            m.hits = r.u8();
            if (rank_[i] >= ways_ || (seen_ranks >> rank_[i]) & 1u)
                throw SnapshotError("cache set ranks are not a permutation");
            seen_ranks |= std::uint32_t{1} << rank_[i];
            if (m.cls > clsIndex(BlockClass::Victim))
                throw SnapshotError("cache way class out of range");
            if (m.owner != kNoOwner && m.owner >= kMaxCores)
                throw SnapshotError("cache way owner out of range");
            if (tag_[i] == kInvalidAddr)
                continue;
            const std::uint32_t bit = std::uint32_t{1} << i;
            if (disabledMask_ & bit)
                throw SnapshotError("cache way is valid and disabled");
            validMask_ |= bit;
            classWays_[m.cls] |= bit;
        }
    }

  private:
    /** WayRecord::owner value meaning "no owner" (kInvalidCore). */
    static constexpr std::uint8_t kNoOwner = 0xFF;
    static_assert(kMaxCores < kNoOwner, "core ids must fit the 8-bit owner");

    /** The per-way state a probe never reads (DESIGN.md 5.10). The tag
     *  and the valid bit live only in tag_ and validMask_. */
    struct WayRecord
    {
        std::uint8_t cls = 0;          //!< BlockClass
        std::uint8_t owner = kNoOwner; //!< CoreId, kNoOwner for none
        bool dirty = false;
        bool hasOwnerToken = false;
        std::uint8_t hits = 0;         //!< saturating demand hits
    };
    static_assert(sizeof(WayRecord) == 5, "the cold record is 5 bytes");

    static std::uint8_t
    packOwner(CoreId c)
    {
        ESP_ASSERT(c == kInvalidCore || c < kMaxCores,
                   "owner beyond the 8-bit way field");
        return c == kInvalidCore ? kNoOwner : static_cast<std::uint8_t>(c);
    }

    static std::uint32_t
    clsIndex(BlockClass c)
    {
        return static_cast<std::uint32_t>(c);
    }

    void
    checkWay(int w) const
    {
        ESP_ASSERT(w >= 0 && static_cast<std::uint32_t>(w) < numWays(),
                   "way out of range");
        (void)w;
    }

    /** Mask bit of way `w` (range-checked). */
    std::uint32_t
    wayBit(int w) const
    {
        checkWay(w);
        return std::uint32_t{1} << static_cast<std::uint32_t>(w);
    }

    /** Valid ways whose class is in `mask` (the tag-comparison filter). */
    std::uint32_t
    waysMatching(ClassMask mask) const
    {
        std::uint32_t r = 0;
        if (mask & kMatchPrivate)
            r |= classWays_[clsIndex(BlockClass::Private)];
        if (mask & kMatchShared)
            r |= classWays_[clsIndex(BlockClass::Shared)];
        if (mask & kMatchReplica)
            r |= classWays_[clsIndex(BlockClass::Replica)];
        if (mask & kMatchVictim)
            r |= classWays_[clsIndex(BlockClass::Victim)];
        return r;
    }

    // Hot lines first, in the order a probe reads them: packed tags
    // (kInvalidAddr when the way is invalid so a probe needs no
    // separate valid check), then the occupancy masks, then the ranks
    // the victim scan reads, then the cold records. Inline so the whole
    // set is one contiguous object (see class doc).
    std::array<Addr, kMaxWays> tag_;
    std::uint32_t validMask_ = 0;
    std::uint32_t wayMask_ = 0;
    std::array<std::uint32_t, 4> classWays_{}; //!< valid ways per class
    std::uint32_t disabledMask_ = 0; //!< fault-disabled ways (bit per way)
    std::uint32_t ways_ = 0;
    /** Recency rank per way, 0 = MRU .. ways_-1 = LRU: always a
     *  permutation of 0..ways_-1, so every victim choice is unique. */
    std::array<std::uint8_t, kMaxWays> rank_{};

    // Cold per-way records (see WayRecord).
    std::array<WayRecord, kMaxWays> rec_{};
};

} // namespace espnuca

#endif // ESPNUCA_CACHE_CACHE_SET_HPP_
