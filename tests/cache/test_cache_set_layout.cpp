/**
 * @file
 * Layout-equivalence regression for the struct-of-arrays CacheSet.
 *
 * LegacyCacheSet below is a local copy of the original array-of-Block
 * implementation (linear scans over per-way BlockMeta, no memoization),
 * extended with the same mutator API the SoA set exposes so one random
 * driver can run both in lockstep. Every observable — find under every
 * class mask, LRU victim under every class mask, class counts, invalid
 * way selection, recency ranks, helping count and the metadata itself —
 * must agree after every operation, across randomized
 * access/evict/reclassify sequences that include fault-disabled way
 * plans (the acceptance dead-way plan `ways=*:0x3` among them).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "cache/cache_set.hpp"

namespace espnuca {
namespace {

/**
 * The pre-SoA CacheSet, kept verbatim as the behavioral reference:
 * per-way BlockMeta objects, O(w) scans, no victim memoization. The
 * mutators at the end adapt it to the SoA set's write API.
 */
class LegacyCacheSet
{
  public:
    explicit LegacyCacheSet(std::uint32_t ways)
        : ways_(ways), stamp_(ways)
    {
        for (std::uint32_t i = 0; i < ways; ++i)
            stamp_[i] = static_cast<std::int64_t>(ways - i);
        hi_ = static_cast<std::int64_t>(ways);
        lo_ = 1;
    }

    std::uint32_t numWays() const
    {
        return static_cast<std::uint32_t>(ways_.size());
    }

    const BlockMeta &
    way(int i) const
    {
        return ways_.at(static_cast<std::size_t>(i));
    }

    int
    find(Addr addr, ClassMask mask) const
    {
        for (std::uint32_t i = 0; i < ways_.size(); ++i) {
            const BlockMeta &m = ways_[i];
            if (m.valid && m.addr == addr && matches(mask, m.cls))
                return static_cast<int>(i);
        }
        return kNoWay;
    }

    int findAny(Addr addr) const { return find(addr, kMatchAny); }

    void touch(int w) { stamp_[static_cast<std::size_t>(w)] = ++hi_; }
    void demote(int w) { stamp_[static_cast<std::size_t>(w)] = --lo_; }

    int
    invalidWay() const
    {
        for (std::uint32_t i = 0; i < ways_.size(); ++i)
            if (!ways_[i].valid && !wayDisabled(static_cast<int>(i)))
                return static_cast<int>(i);
        return kNoWay;
    }

    void disableWays(std::uint64_t mask) { disabledMask_ |= mask; }

    bool
    wayDisabled(int w) const
    {
        return (disabledMask_ >> static_cast<std::uint32_t>(w)) & 1u;
    }

    std::uint32_t
    enabledWays() const
    {
        return numWays() -
               static_cast<std::uint32_t>(
                   __builtin_popcountll(disabledMask_));
    }

    int
    lruAmong(ClassMask mask) const
    {
        int best = kNoWay;
        std::int64_t best_stamp = 0;
        for (std::uint32_t i = 0; i < ways_.size(); ++i) {
            const BlockMeta &m = ways_[i];
            if (!m.valid || !matches(mask, m.cls))
                continue;
            if (best == kNoWay || stamp_[i] < best_stamp) {
                best = static_cast<int>(i);
                best_stamp = stamp_[i];
            }
        }
        return best;
    }

    int lruWay() const { return lruAmong(kMatchAny); }

    std::uint32_t
    countIf(ClassMask mask) const
    {
        std::uint32_t n = 0;
        for (const auto &m : ways_)
            if (m.valid && matches(mask, m.cls))
                ++n;
        return n;
    }

    std::uint32_t helpingCount() const { return countIf(kMatchHelping); }

    std::uint32_t
    recencyOf(int w) const
    {
        const std::int64_t s = stamp_[static_cast<std::size_t>(w)];
        std::uint32_t rank = 0;
        for (std::uint32_t i = 0; i < stamp_.size(); ++i)
            if (stamp_[i] > s)
                ++rank;
        return rank;
    }

    // -- Mutator shims matching the SoA write API ----------------------

    void
    assign(int w, const BlockMeta &m)
    {
        ways_.at(static_cast<std::size_t>(w)) = m;
    }

    void
    clearWay(int w)
    {
        ways_.at(static_cast<std::size_t>(w)).clear();
    }

    void
    setClass(int w, BlockClass cls, CoreId owner)
    {
        BlockMeta &m = ways_.at(static_cast<std::size_t>(w));
        m.cls = cls;
        m.owner = owner;
    }

    void
    setDirty(int w, bool v)
    {
        ways_.at(static_cast<std::size_t>(w)).dirty = v;
    }

    void
    setOwnerToken(int w, bool v)
    {
        ways_.at(static_cast<std::size_t>(w)).hasOwnerToken = v;
    }

    void
    bumpHits(int w)
    {
        BlockMeta &m = ways_.at(static_cast<std::size_t>(w));
        if (m.hits < 255)
            ++m.hits;
    }

  private:
    std::vector<BlockMeta> ways_;
    std::uint64_t disabledMask_ = 0;
    std::vector<std::int64_t> stamp_;
    std::int64_t hi_ = 0;
    std::int64_t lo_ = 0;
};

/** Address pool the random driver draws from (collisions on purpose). */
constexpr Addr kAddrPool[] = {0x40,  0x80,  0x100, 0x140, 0x200, 0x240,
                              0x400, 0x440, 0x800, 0x840, 0x1000, 0x1040};

BlockClass
randomClass(std::mt19937 &rng)
{
    return static_cast<BlockClass>(rng() % 4);
}

/** Assert every observable of the two sets agrees. */
void
expectEquivalent(const CacheSet &soa, const LegacyCacheSet &ref)
{
    ASSERT_EQ(soa.numWays(), ref.numWays());
    EXPECT_EQ(soa.invalidWay(), ref.invalidWay());
    EXPECT_EQ(soa.helpingCount(), ref.helpingCount());
    EXPECT_EQ(soa.enabledWays(), ref.enabledWays());
    EXPECT_EQ(soa.lruWay(), ref.lruWay());
    for (std::uint32_t m = 0; m <= kMatchAny; ++m) {
        const auto mask = static_cast<ClassMask>(m);
        EXPECT_EQ(soa.lruAmong(mask), ref.lruAmong(mask)) << "mask " << m;
        EXPECT_EQ(soa.countIf(mask), ref.countIf(mask)) << "mask " << m;
    }
    for (const Addr a : kAddrPool) {
        EXPECT_EQ(soa.findAny(a), ref.findAny(a));
        for (std::uint32_t m = 0; m <= kMatchAny; ++m) {
            const auto mask = static_cast<ClassMask>(m);
            EXPECT_EQ(soa.find(a, mask), ref.find(a, mask));
        }
    }
    for (std::uint32_t w = 0; w < soa.numWays(); ++w) {
        const int wi = static_cast<int>(w);
        EXPECT_EQ(soa.recencyOf(wi), ref.recencyOf(wi));
        EXPECT_EQ(soa.wayDisabled(wi), ref.wayDisabled(wi));
        const BlockMeta &a = soa.way(wi);
        const BlockMeta &b = ref.way(wi);
        EXPECT_EQ(a.valid, b.valid);
        if (a.valid && b.valid) {
            EXPECT_EQ(a.addr, b.addr);
            EXPECT_EQ(a.cls, b.cls);
            EXPECT_EQ(a.owner, b.owner);
            EXPECT_EQ(a.dirty, b.dirty);
            EXPECT_EQ(a.hasOwnerToken, b.hasOwnerToken);
            EXPECT_EQ(a.hits, b.hits);
        }
    }
}

/**
 * Drive both implementations through `ops` random operations and check
 * full observable equivalence after every one. `disabled` is applied at
 * construction, like the fault injector does at system assembly.
 */
void
runLockstep(std::uint32_t ways, std::uint64_t disabled,
            std::uint32_t ops, std::uint32_t seed)
{
    CacheSet soa(ways);
    LegacyCacheSet ref(ways);
    if (disabled != 0) {
        soa.disableWays(disabled);
        ref.disableWays(disabled);
    }
    std::mt19937 rng(seed);
    auto random_enabled_way = [&]() -> int {
        for (;;) {
            const int w = static_cast<int>(rng() % ways);
            if (!ref.wayDisabled(w))
                return w;
        }
    };
    auto random_valid_way = [&]() -> int {
        // Deterministic sweep from a random start so both sets see the
        // same choice; kNoWay when the set is empty.
        const std::uint32_t start = rng() % ways;
        for (std::uint32_t i = 0; i < ways; ++i) {
            const int w = static_cast<int>((start + i) % ways);
            if (ref.way(w).valid)
                return w;
        }
        return kNoWay;
    };
    for (std::uint32_t n = 0; n < ops; ++n) {
        switch (rng() % 8) {
          case 0:
          case 1: { // fill / replacement insert
            const int w = random_enabled_way();
            BlockMeta m;
            m.addr = kAddrPool[rng() % std::size(kAddrPool)];
            m.valid = true;
            m.cls = randomClass(rng);
            m.owner = static_cast<CoreId>(rng() % 8);
            m.dirty = (rng() % 2) != 0;
            soa.assign(w, m);
            ref.assign(w, m);
            if (rng() % 2 != 0) { // MRU insert, like CacheBank::insert
                soa.touch(w);
                ref.touch(w);
            }
            break;
          }
          case 2: { // coherence invalidation (clear + LRU demote)
            const int w = random_valid_way();
            if (w == kNoWay)
                continue;
            soa.clearWay(w);
            ref.clearWay(w);
            soa.demote(w);
            ref.demote(w);
            break;
          }
          case 3: { // demand hit
            const int w = random_valid_way();
            if (w == kNoWay)
                continue;
            soa.touch(w);
            ref.touch(w);
            soa.bumpHits(w);
            ref.bumpHits(w);
            break;
          }
          case 4: { // low-priority placement (D-NUCA style demotion)
            const int w = random_valid_way();
            if (w == kNoWay)
                continue;
            soa.demote(w);
            ref.demote(w);
            break;
          }
          case 5: { // reclassification (victim -> shared, replica offer)
            const int w = random_valid_way();
            if (w == kNoWay)
                continue;
            const BlockClass cls = randomClass(rng);
            const auto owner = static_cast<CoreId>(rng() % 8);
            soa.setClass(w, cls, owner);
            ref.setClass(w, cls, owner);
            break;
          }
          case 6: { // cold-field writes
            const int w = random_valid_way();
            if (w == kNoWay)
                continue;
            const bool d = (rng() % 2) != 0;
            const bool t = (rng() % 2) != 0;
            soa.setDirty(w, d);
            ref.setDirty(w, d);
            soa.setOwnerToken(w, t);
            ref.setOwnerToken(w, t);
            break;
          }
          case 7: { // probes between mutations warm the victim memos
            const Addr a = kAddrPool[rng() % std::size(kAddrPool)];
            const auto mask = static_cast<ClassMask>(rng() % 16);
            EXPECT_EQ(soa.find(a, mask), ref.find(a, mask));
            EXPECT_EQ(soa.lruAmong(mask), ref.lruAmong(mask));
            break;
          }
        }
        expectEquivalent(soa, ref);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "diverged at op " << n << " (seed " << seed
                          << ", ways " << ways << ", disabled 0x"
                          << std::hex << disabled << ")";
            return;
        }
    }
}

TEST(CacheSetLayout, LockstepRandom16Way)
{
    runLockstep(16, 0, 2000, 1);
    runLockstep(16, 0, 2000, 2);
}

TEST(CacheSetLayout, LockstepRandom4Way)
{
    runLockstep(4, 0, 2000, 3);
}

TEST(CacheSetLayout, LockstepAcceptanceDeadWayPlan)
{
    // The acceptance fault plan disables ways 0 and 1 in every set of a
    // bank (`ways=*:0x3`).
    runLockstep(16, 0x3, 2000, 4);
}

TEST(CacheSetLayout, LockstepScatteredDeadWays)
{
    runLockstep(16, 0x8421, 2000, 5);
    runLockstep(8, 0x81, 2000, 6);
}

TEST(CacheSetLayout, VictimMemoSurvivesTargetedEdits)
{
    // Direct exercise of the repair rules: memoize, then touch the
    // memoized victim (drop), demote another way (repair-in-place),
    // assign over a way (drop + class invalidation).
    CacheSet s(4);
    LegacyCacheSet r(4);
    BlockMeta m;
    m.valid = true;
    for (int w = 0; w < 4; ++w) {
        m.addr = 0x40 * (w + 1);
        m.cls = w < 2 ? BlockClass::Private : BlockClass::Victim;
        s.assign(w, m);
        r.assign(w, m);
    }
    // Warm every memo.
    for (std::uint32_t mask = 0; mask <= kMatchAny; ++mask)
        EXPECT_EQ(s.lruAmong(static_cast<ClassMask>(mask)),
                  r.lruAmong(static_cast<ClassMask>(mask)));
    s.touch(1); // way 1 was the Private-mask victim
    r.touch(1);
    expectEquivalent(s, r);
    s.demote(3); // way 3 becomes the victim of every Victim-mask memo
    r.demote(3);
    expectEquivalent(s, r);
    m.addr = 0x999;
    m.cls = BlockClass::Replica;
    s.assign(0, m); // keeps way 0's old stamp: Replica memos must drop
    r.assign(0, m);
    expectEquivalent(s, r);
}

} // namespace
} // namespace espnuca
