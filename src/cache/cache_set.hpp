/**
 * @file
 * A w-way set in struct-of-arrays layout. Policies query the set through
 * class masks (the common case — how the paper's "private bit added to
 * the tag comparison" and "LRU among the helping blocks" rules are
 * expressed) or through arbitrary predicates via the template overloads.
 *
 * Hot-path layout (DESIGN.md 5.10): the per-way tags live in one packed
 * contiguous array and the valid/class occupancy is kept as u64 way
 * bitmasks, so a probe is a branch-light scan over one or two cache
 * lines instead of a stride through per-way BlockMeta objects, and every
 * class-population count (the paper's per-set `n`) is a popcount. The
 * rest of a way's state sits in a 5-byte cold record (class, owner,
 * dirty, owner token, hit counter); nothing is stored twice, and way()
 * rebuilds a BlockMeta by value from the tag, the valid mask and that
 * record.
 *
 * Replacement is accelerated further by a per-(set, class-mask) victim
 * candidate cache: lruAmong(mask) memoizes its answer and touch /
 * demote / assign / clearWay / setClass repair or invalidate exactly
 * the entries they can affect, so steady-state victim selection is O(1)
 * instead of a rescan per miss.
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
 * Set of `w` ways (w <= kMaxWays) in struct-of-arrays layout plus
 * per-way LRU age stamps (larger = more recent). Probes and victim
 * scans walk u64 candidate bitmasks over the packed tag/stamp arrays;
 * class counts are popcounts; recency updates are O(1).
 *
 * All per-way storage is inline (fixed-capacity arrays, not vectors):
 * a bank's sets live in one contiguous allocation, so a probe of a
 * cold set costs one memory stream instead of three dependent pointer
 * chases into separately heap-allocated tag/stamp/record vectors.
 */
class CacheSet
{
  public:
    /** Inline per-way capacity. Every studied geometry uses <= 16 ways
     * (Table 2: 16-way L2, 4-way L1); raise if a config ever needs
     * more — the way bitmasks support up to 64. */
    static constexpr std::uint32_t kMaxWays = 16;

    explicit CacheSet(std::uint32_t ways) : ways_(ways)
    {
        ESP_ASSERT(ways > 0, "set needs at least one way");
        ESP_ASSERT(ways <= kMaxWays, "raise CacheSet::kMaxWays");
        wayMask_ = (std::uint64_t{1} << ways) - 1;
        tag_.fill(kInvalidAddr);
        // Initial recency order: way 0 is MRU, way w-1 is LRU — the
        // same total order the recency-stack representation started
        // with. Stamps stay unique forever: every touch takes a fresh
        // value above every live stamp, every demote one below.
        for (std::uint32_t i = 0; i < ways; ++i)
            stamp_[i] = static_cast<std::int64_t>(ways - i);
        hi_ = static_cast<std::int64_t>(ways);
        lo_ = 1;
        victim_.fill(kVictimUnknown);
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
        checkWay(w);
        const std::uint64_t bit = std::uint64_t{1}
                                  << static_cast<std::uint32_t>(w);
        ESP_ASSERT(!m.valid || !(disabledMask_ & bit),
                   "assigning into a fault-disabled way");
        WayRecord &cur = rec_[static_cast<std::size_t>(w)];
        if (validMask_ & bit) {
            validMask_ &= ~bit;
            classWays_[cur.cls] &= ~bit;
            dropVictimWay(w);
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
            // The way keeps its old (possibly very low) stamp until the
            // caller touches it, so it may now be the true LRU of any
            // mask that matches its class: those memos must go.
            dropVictimsForClass(m.cls);
        }
    }

    /** Invalidate a way (coherence invalidation / eviction teardown). */
    void
    clearWay(int w)
    {
        checkWay(w);
        const std::uint64_t bit = std::uint64_t{1}
                                  << static_cast<std::uint32_t>(w);
        WayRecord &cur = rec_[static_cast<std::size_t>(w)];
        if (validMask_ & bit) {
            validMask_ &= ~bit;
            classWays_[cur.cls] &= ~bit;
            dropVictimWay(w);
        }
        cur = WayRecord{};
        tag_[static_cast<std::size_t>(w)] = kInvalidAddr;
    }

    /** Reclassify a valid way in place (e.g. victim -> shared). */
    void
    setClass(int w, BlockClass cls, CoreId owner)
    {
        checkWay(w);
        WayRecord &cur = rec_[static_cast<std::size_t>(w)];
        const std::uint64_t bit = std::uint64_t{1}
                                  << static_cast<std::uint32_t>(w);
        ESP_ASSERT(validMask_ & bit, "reclassifying an invalid way");
        classWays_[cur.cls] &= ~bit;
        classWays_[clsIndex(cls)] |= bit;
        cur.cls = static_cast<std::uint8_t>(clsIndex(cls));
        cur.owner = packOwner(owner);
        // Old-class memos may have pointed at this way; new-class memos
        // may now be beaten by this way's stamp. Drop both families.
        dropVictimWay(w);
        dropVictimsForClass(cls);
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
     * Hint the hardware to pull the tag array and the cold records into
     * cache ahead of a find() known to follow shortly. Pure performance
     * hint.
     */
    void
    prefetchTags() const
    {
        __builtin_prefetch(tag_.data());
        __builtin_prefetch(rec_.data());
    }

    /** Find a valid way holding `addr` whose class is in `mask`. */
    int
    find(Addr addr, ClassMask mask) const
    {
        ESP_PROF_SCOPE("set.find");
        const Addr *tags = tag_.data();
        for (std::uint64_t cand = waysMatching(mask); cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (tags[i] == addr)
                return i;
        }
        return kNoWay;
    }

    /** Find a valid way holding `addr` and satisfying `pred`. */
    template <typename Pred>
    int
    find(Addr addr, Pred &&pred) const
    {
        const Addr *tags = tag_.data();
        for (std::uint64_t cand = validMask_; cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (tags[i] == addr && pred(way(i)))
                return i;
        }
        return kNoWay;
    }

    /** Find a valid way holding `addr` under any class. */
    int
    findAny(Addr addr) const
    {
        const Addr *tags = tag_.data();
        for (std::uint64_t cand = validMask_; cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (tags[i] == addr)
                return i;
        }
        return kNoWay;
    }

    // -- Recency -------------------------------------------------------

    /** Promote a way to MRU. */
    void
    touch(int w)
    {
        checkWay(w);
        stamp_[static_cast<std::size_t>(w)] = ++hi_;
        // Only a memoized victim can be invalidated by gaining recency;
        // anything else keeps every memo exact.
        if (victimWays_ & (std::uint64_t{1}
                           << static_cast<std::uint32_t>(w)))
            dropVictimWay(w);
    }

    /** Demote a way to LRU (used when inserting low-priority blocks). */
    void
    demote(int w)
    {
        checkWay(w);
        stamp_[static_cast<std::size_t>(w)] = --lo_;
        if (validMask_ & (std::uint64_t{1} << static_cast<std::uint32_t>(w))) {
            // The way now holds the globally smallest stamp: it IS the
            // LRU of every mask matching its class. Repair in place.
            const ClassMask cb = classBit(static_cast<BlockClass>(
                rec_[static_cast<std::size_t>(w)].cls));
            for (std::uint32_t m = 0; m < victim_.size(); ++m) {
                if (m & cb)
                    victim_[m] = static_cast<std::int8_t>(w);
            }
            victimWays_ |= std::uint64_t{1}
                           << static_cast<std::uint32_t>(w);
        } else {
            dropVictimWay(w);
        }
    }

    /** Any invalid (and not fault-disabled) way, or kNoWay. */
    int
    invalidWay() const
    {
        const std::uint64_t inv = ~(validMask_ | disabledMask_) &
                                  wayMask_;
        return inv != 0 ? __builtin_ctzll(inv) : kNoWay;
    }

    // -- Fault model ---------------------------------------------------

    /**
     * Fence off the masked ways (fault injection). Disabled ways are
     * permanently invalid: invalidWay() skips them, and since every
     * other helper only considers valid ways they can never be found,
     * touched, or chosen as victims. Must be applied before the set
     * holds data (injection happens at system assembly).
     */
    void
    disableWays(std::uint64_t mask)
    {
        mask &= wayMask_;
        ESP_ASSERT(!(mask & validMask_), "disabling a way that holds data");
        disabledMask_ |= mask;
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
        return numWays() -
               static_cast<std::uint32_t>(
                   __builtin_popcountll(disabledMask_));
    }

    // -- Replacement helpers -------------------------------------------

    /** LRU-most valid way whose class is in `mask`, or kNoWay. */
    int
    lruAmong(ClassMask mask) const
    {
        ESP_PROF_SCOPE("set.lru");
        const std::int8_t cached = victim_[mask];
        if (cached != kVictimUnknown)
            return cached;
        int best = kNoWay;
        std::int64_t best_stamp = 0;
        for (std::uint64_t cand = waysMatching(mask); cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (best == kNoWay ||
                stamp_[static_cast<std::size_t>(i)] < best_stamp) {
                best = i;
                best_stamp = stamp_[static_cast<std::size_t>(i)];
            }
        }
        if (best != kNoWay) {
            victim_[mask] = static_cast<std::int8_t>(best);
            victimWays_ |= std::uint64_t{1}
                           << static_cast<std::uint32_t>(best);
        }
        return best;
    }

    /** LRU-most valid way satisfying `pred`, or kNoWay. */
    template <typename Pred>
    int
    lruAmong(Pred &&pred) const
    {
        int best = kNoWay;
        std::int64_t best_stamp = 0;
        for (std::uint64_t cand = validMask_; cand != 0;
             cand &= cand - 1) {
            const int i = __builtin_ctzll(cand);
            if (!pred(way(i)))
                continue;
            if (best == kNoWay ||
                stamp_[static_cast<std::size_t>(i)] < best_stamp) {
                best = i;
                best_stamp = stamp_[static_cast<std::size_t>(i)];
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
            __builtin_popcountll(waysMatching(mask)));
    }

    /** Count valid ways satisfying `pred`. */
    template <typename Pred>
    std::uint32_t
    countIf(Pred &&pred) const
    {
        std::uint32_t n = 0;
        for (std::uint64_t cand = validMask_; cand != 0;
             cand &= cand - 1) {
            if (pred(way(__builtin_ctzll(cand))))
                ++n;
        }
        return n;
    }

    /** Number of valid helping blocks (the paper's per-set `n` counter). */
    std::uint32_t
    helpingCount() const
    {
        return static_cast<std::uint32_t>(__builtin_popcountll(
            classWays_[clsIndex(BlockClass::Replica)] |
            classWays_[clsIndex(BlockClass::Victim)]));
    }

    /** Recency position of a way: 0 = MRU .. w-1 = LRU (testing aid). */
    std::uint32_t
    recencyOf(int w) const
    {
        checkWay(w);
        const std::int64_t s = stamp_[static_cast<std::size_t>(w)];
        std::uint32_t rank = 0;
        for (std::uint32_t i = 0; i < ways_; ++i)
            if (stamp_[i] > s)
                ++rank;
        return rank;
    }

    /** Memoized victim for `mask`, kNoWay when not cached (tests). */
    int
    cachedVictim(ClassMask mask) const
    {
        const std::int8_t v = victim_[mask];
        return v == kVictimUnknown ? kNoWay : v;
    }

    // -- Snapshot/restore ----------------------------------------------

    /**
     * Serialize the full logical state: tags, occupancy masks, recency
     * stamps and metadata. Each way is written as a full BlockMeta
     * record (the v5 checkpoint layout), so its addr and valid fields
     * repeat the tag and the valid mask. The
     * victim memo cache is NOT serialized — it is a pure memoization of
     * stamp_/classWays_ and lruAmong() recomputes identical answers
     * from the restored arrays.
     */
    void
    save(SnapshotWriter &w) const
    {
        w.u32(ways_);
        w.u64(validMask_);
        for (const auto cw : classWays_)
            w.u64(cw);
        w.u64(disabledMask_);
        w.i64(hi_);
        w.i64(lo_);
        for (std::uint32_t i = 0; i < ways_; ++i) {
            const BlockMeta m = way(static_cast<int>(i));
            w.u64(tag_[i]);
            w.i64(stamp_[i]);
            w.u64(m.addr);
            w.b(m.valid);
            w.b(m.dirty);
            w.u8(static_cast<std::uint8_t>(m.cls));
            w.u32(m.owner);
            w.b(m.hasOwnerToken);
            w.u8(m.hits);
        }
    }

    /** Restore a save() record. Throws SnapshotError on a record the
     *  compact layout cannot hold: a way whose addr/valid disagree with
     *  its tag and the valid mask, a class beyond BlockClass, or an
     *  owner that is neither kInvalidCore nor below kMaxCores. */

    void
    load(SnapshotReader &r)
    {
        if (r.u32() != ways_)
            throw SnapshotError("cache set way-count mismatch");
        validMask_ = r.u64();
        for (auto &cw : classWays_)
            cw = r.u64();
        disabledMask_ = r.u64();
        hi_ = r.i64();
        lo_ = r.i64();
        for (std::uint32_t i = 0; i < ways_; ++i) {
            WayRecord &m = rec_[i];
            tag_[i] = r.u64();
            stamp_[i] = r.i64();
            const Addr addr = r.u64();
            const bool valid = r.b();
            if (valid != ((validMask_ >> i) & 1u) || addr != tag_[i])
                throw SnapshotError("cache way disagrees with its tag");
            m.dirty = r.b();
            m.cls = r.u8();
            if (m.cls > clsIndex(BlockClass::Victim))
                throw SnapshotError("cache way class out of range");
            const auto owner = static_cast<CoreId>(r.u32());
            if (owner != kInvalidCore && owner >= kMaxCores)
                throw SnapshotError("cache way owner out of range");
            m.owner = packOwner(owner);
            m.hasOwnerToken = r.b();
            m.hits = r.u8();
        }
        victim_.fill(kVictimUnknown);
        victimWays_ = 0;
    }

  private:
    static constexpr std::int8_t kVictimUnknown = -1;

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

    /** Valid ways whose class is in `mask` (the tag-comparison filter). */
    std::uint64_t
    waysMatching(ClassMask mask) const
    {
        std::uint64_t r = 0;
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

    /** Forget every memoized victim that points at way `w`. */
    void
    dropVictimWay(int w) const
    {
        const std::uint64_t bit = std::uint64_t{1}
                                  << static_cast<std::uint32_t>(w);
        if (!(victimWays_ & bit))
            return;
        for (auto &v : victim_)
            if (v == static_cast<std::int8_t>(w))
                v = kVictimUnknown;
        victimWays_ &= ~bit;
    }

    /** Forget every memoized victim for masks matching class `c`. */
    void
    dropVictimsForClass(BlockClass c) const
    {
        const ClassMask cb = classBit(c);
        for (std::uint32_t m = 0; m < victim_.size(); ++m)
            if (m & cb)
                victim_[m] = kVictimUnknown;
        std::uint64_t ways = 0;
        for (const auto &v : victim_)
            if (v != kVictimUnknown)
                ways |= std::uint64_t{1}
                        << static_cast<std::uint32_t>(v);
        victimWays_ = ways;
    }

    // Hot arrays: packed tags (kInvalidAddr when the way is invalid so a
    // probe needs no separate valid check), occupancy bitmasks, stamps.
    // Inline so the whole set is one contiguous object (see class doc).
    std::array<Addr, kMaxWays> tag_;
    std::uint32_t ways_ = 0;
    std::uint64_t validMask_ = 0;
    std::uint64_t wayMask_ = 0;
    std::array<std::uint64_t, 4> classWays_{}; //!< valid ways per class
    std::uint64_t disabledMask_ = 0; //!< fault-disabled ways (bit per way)
    std::array<std::int64_t, kMaxWays> stamp_{}; //!< LRU age, larger = newer
    std::int64_t hi_ = 0;             //!< last MRU stamp handed out
    std::int64_t lo_ = 0;             //!< next LRU stamp is lo_ - 1

    // Victim candidate cache, one memo per ClassMask value; lazily
    // filled by lruAmong(mask) and repaired by the mutators (mutable:
    // memoization only, never observable).
    mutable std::array<std::int8_t, kMatchAny + 1> victim_;
    mutable std::uint64_t victimWays_ = 0; //!< ways some memo points at

    // Cold per-way records (see WayRecord).
    std::array<WayRecord, kMaxWays> rec_{};
};

} // namespace espnuca

#endif // ESPNUCA_CACHE_CACHE_SET_HPP_
