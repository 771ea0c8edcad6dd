/**
 * @file
 * LRU set mechanics: recency ordering, class-mask search, helping count;
 * the compact per-way record at its limits and its snapshot record.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "cache/cache_set.hpp"

namespace espnuca {
namespace {

BlockMeta
makeBlock(Addr a, BlockClass cls = BlockClass::Private)
{
    BlockMeta m;
    m.addr = a;
    m.valid = true;
    m.cls = cls;
    return m;
}

TEST(CacheSet, FindsByAddressAndPredicate)
{
    CacheSet s(4);
    s.assign(0, makeBlock(0x100, BlockClass::Private));
    s.assign(1, makeBlock(0x100, BlockClass::Shared));
    EXPECT_EQ(s.find(0x100, kMatchPrivate), 0);
    EXPECT_EQ(s.find(0x100, kMatchShared), 1);
    EXPECT_EQ(s.find(0x100, kMatchHelping), kNoWay);
    EXPECT_EQ(s.find(0x200, kMatchAny), kNoWay);
}

TEST(CacheSet, InvalidBlocksNeverMatch)
{
    CacheSet s(2);
    s.assign(0, makeBlock(0x40));
    s.clearWay(0);
    EXPECT_EQ(s.findAny(0x40), kNoWay);
}

TEST(CacheSet, TouchMovesToMru)
{
    CacheSet s(4);
    for (int i = 0; i < 4; ++i)
        s.assign(i, makeBlock(0x40 * (i + 1)));
    s.touch(2);
    EXPECT_EQ(s.recencyOf(2), 0u);
    s.touch(0);
    EXPECT_EQ(s.recencyOf(0), 0u);
    EXPECT_EQ(s.recencyOf(2), 1u);
}

TEST(CacheSet, LruWayIsLeastRecent)
{
    CacheSet s(4);
    for (int i = 0; i < 4; ++i) {
        s.assign(i, makeBlock(0x40 * (i + 1)));
        s.touch(i);
    }
    EXPECT_EQ(s.lruWay(), 0);
    s.touch(0);
    EXPECT_EQ(s.lruWay(), 1);
}

TEST(CacheSet, LruAmongFiltersByClass)
{
    CacheSet s(4);
    s.assign(0, makeBlock(0x40, BlockClass::Private));
    s.assign(1, makeBlock(0x80, BlockClass::Replica));
    s.assign(2, makeBlock(0xC0, BlockClass::Private));
    s.assign(3, makeBlock(0x100, BlockClass::Victim));
    for (int i = 0; i < 4; ++i)
        s.touch(i); // recency: 3 MRU .. 0 LRU
    EXPECT_EQ(s.lruAmong(kMatchHelping), 1); // replica older than victim
    EXPECT_EQ(s.lruAmong(kMatchPrivate), 0);
}

TEST(CacheSet, InvalidWayFoundFirst)
{
    CacheSet s(3);
    s.assign(0, makeBlock(0x40));
    s.assign(2, makeBlock(0x80));
    EXPECT_EQ(s.invalidWay(), 1);
    s.assign(1, makeBlock(0xC0));
    EXPECT_EQ(s.invalidWay(), kNoWay);
}

TEST(CacheSet, HelpingCountMatchesClasses)
{
    CacheSet s(4);
    EXPECT_EQ(s.helpingCount(), 0u);
    s.assign(0, makeBlock(0x40, BlockClass::Replica));
    s.assign(1, makeBlock(0x80, BlockClass::Victim));
    s.assign(2, makeBlock(0xC0, BlockClass::Shared));
    EXPECT_EQ(s.helpingCount(), 2u);
}

TEST(CacheSet, DemoteMakesWayLru)
{
    CacheSet s(3);
    for (int i = 0; i < 3; ++i) {
        s.assign(i, makeBlock(0x40 * (i + 1)));
        s.touch(i);
    }
    s.demote(2);
    EXPECT_EQ(s.lruWay(), 2);
}

TEST(CacheSet, CountIf)
{
    CacheSet s(4);
    s.assign(0, makeBlock(0x40, BlockClass::Private));
    s.assign(1, makeBlock(0x80, BlockClass::Private));
    s.assign(2, makeBlock(0xC0, BlockClass::Shared));
    EXPECT_EQ(s.countIf(kMatchPrivate), 2u);
    EXPECT_EQ(s.countIf(kMatchFirstClass), 3u);
    EXPECT_EQ(s.countIf(kMatchHelping), 0u);
}

// -- The compact per-way record --------------------------------------

TEST(CacheSetRecord, SetStaysCompact)
{
    // 16 tags + u32 masks + 16 one-byte ranks + 16 five-byte records:
    // 256 B. A new per-way field must not grow the set back unnoticed.
    EXPECT_LE(sizeof(CacheSet), 256u);
}

// -- Recency ranks --------------------------------------------------------

/** True when the set's ranks are exactly 0..ways-1. */
bool
ranksArePermutation(const CacheSet &s)
{
    std::vector<std::uint32_t> r;
    for (std::uint32_t w = 0; w < s.numWays(); ++w)
        r.push_back(s.recencyOf(static_cast<int>(w)));
    std::sort(r.begin(), r.end());
    for (std::uint32_t i = 0; i < r.size(); ++i)
        if (r[i] != i)
            return false;
    return true;
}

TEST(CacheSetRanks, RandomUpdatesKeepAPermutation)
{
    struct Plan
    {
        std::uint32_t ways;
        std::uint64_t disabled;
    };
    for (const Plan p : {Plan{16, 0}, Plan{16, 0x3}, Plan{16, 0x8421},
                         Plan{4, 0}, Plan{8, 0x81}, Plan{1, 0}}) {
        SCOPED_TRACE(testing::Message() << p.ways << " ways, disabled 0x"
                                        << std::hex << p.disabled);
        CacheSet s(p.ways);
        s.disableWays(p.disabled);
        ASSERT_TRUE(ranksArePermutation(s));
        std::mt19937 rng(p.ways * 131 + static_cast<unsigned>(p.disabled));
        for (int n = 0; n < 3000; ++n) {
            const int w = static_cast<int>(rng() % p.ways);
            const std::uint32_t before = s.recencyOf(w);
            switch (rng() % 4) {
            case 0:
                s.touch(w);
                EXPECT_EQ(s.recencyOf(w), 0u);
                break;
            case 1:
                s.demote(w);
                EXPECT_EQ(s.recencyOf(w), p.ways - 1);
                break;
            case 2:
                if (!s.wayDisabled(w)) {
                    s.assign(w, makeBlock(0x40 * (rng() % 32 + 1),
                                          static_cast<BlockClass>(rng() % 4)));
                    EXPECT_EQ(s.recencyOf(w), before); // assign keeps rank
                }
                break;
            default:
                s.clearWay(w);
                EXPECT_EQ(s.recencyOf(w), before);
                break;
            }
            ASSERT_TRUE(ranksArePermutation(s)) << "op " << n;
        }
    }
}

TEST(CacheSetRanks, VictimIsTheHighestRankedCandidate)
{
    CacheSet s(4);
    for (int w = 0; w < 4; ++w)
        s.assign(w, makeBlock(0x40 * (w + 1),
                              w % 2 ? BlockClass::Victim
                                    : BlockClass::Private));
    // Fresh order: way 0 MRU .. way 3 LRU.
    EXPECT_EQ(s.lruWay(), 3);
    EXPECT_EQ(s.lruAmong(kMatchPrivate), 2);
    s.touch(3);
    s.touch(2);
    // Order now 2, 3, 0, 1.
    EXPECT_EQ(s.recencyOf(2), 0u);
    EXPECT_EQ(s.recencyOf(3), 1u);
    EXPECT_EQ(s.recencyOf(0), 2u);
    EXPECT_EQ(s.recencyOf(1), 3u);
    EXPECT_EQ(s.lruWay(), 1);
    EXPECT_EQ(s.lruAmong(kMatchPrivate), 0);
    EXPECT_EQ(s.lruAmong(kMatchVictim), 1);
    s.demote(2);
    // Order now 3, 0, 1, 2.
    EXPECT_EQ(s.recencyOf(1), 2u);
    EXPECT_EQ(s.lruWay(), 2);
    EXPECT_EQ(s.lruAmong(kMatchVictim), 1);
    EXPECT_EQ(s.lruAmong(static_cast<ClassMask>(0)), kNoWay);
}

TEST(CacheSetRecord, OwnerLimitsRoundTrip)
{
    CacheSet s(4);
    for (const CoreId owner : {CoreId{0}, kMaxCores - 1, kInvalidCore}) {
        SCOPED_TRACE(owner);
        BlockMeta m = makeBlock(0x40, BlockClass::Victim);
        m.owner = owner;
        s.assign(0, m);
        EXPECT_EQ(s.way(0).owner, owner);
        s.setClass(0, BlockClass::Replica, owner);
        EXPECT_EQ(s.way(0).owner, owner);
        s.setClass(0, BlockClass::Shared, kInvalidCore);
        EXPECT_EQ(s.way(0).owner, kInvalidCore);
    }
}

TEST(CacheSetRecord, EveryClassRoundTrips)
{
    CacheSet s(4);
    for (const BlockClass c : {BlockClass::Private, BlockClass::Shared,
                               BlockClass::Replica, BlockClass::Victim}) {
        SCOPED_TRACE(static_cast<int>(c));
        s.assign(1, makeBlock(0x80, c));
        EXPECT_EQ(s.way(1).cls, c);
        EXPECT_EQ(s.countIf(classBit(c)), 1u);
        for (const BlockClass to :
             {BlockClass::Private, BlockClass::Shared, BlockClass::Replica,
              BlockClass::Victim}) {
            s.setClass(1, to, 3);
            EXPECT_EQ(s.way(1).cls, to);
            EXPECT_EQ(s.countIf(classBit(to)), 1u);
            EXPECT_EQ(s.find(0x80, classBit(to)), 1);
        }
    }
}

TEST(CacheSetRecord, HitsSaturateAt255)
{
    CacheSet s(2);
    s.assign(0, makeBlock(0x40));
    for (int i = 0; i < 300; ++i)
        s.bumpHits(0);
    EXPECT_EQ(s.way(0).hits, 255u);
    BlockMeta m = makeBlock(0x80);
    m.hits = 255;
    s.assign(1, m);
    s.bumpHits(1);
    EXPECT_EQ(s.way(1).hits, 255u);
    s.clearWay(1);
    EXPECT_EQ(s.way(1).hits, 0u);
}

TEST(CacheSetRecord, DirtyAndTokenBitsThroughEveryMutator)
{
    CacheSet s(4);
    BlockMeta m = makeBlock(0x40, BlockClass::Private);
    m.owner = 5;
    m.dirty = true;
    m.hasOwnerToken = true;
    s.assign(2, m);
    BlockMeta got = s.way(2);
    EXPECT_TRUE(got.valid);
    EXPECT_EQ(got.addr, 0x40u);
    EXPECT_TRUE(got.dirty);
    EXPECT_TRUE(got.hasOwnerToken);
    // Reclassifying keeps both bits.
    s.setClass(2, BlockClass::Victim, 5);
    EXPECT_TRUE(s.way(2).dirty);
    EXPECT_TRUE(s.way(2).hasOwnerToken);
    // Each setter moves only its own bit.
    s.setDirty(2, false);
    EXPECT_FALSE(s.way(2).dirty);
    EXPECT_TRUE(s.way(2).hasOwnerToken);
    s.setOwnerToken(2, false);
    EXPECT_FALSE(s.way(2).hasOwnerToken);
    s.setDirty(2, true);
    EXPECT_TRUE(s.way(2).dirty);
    EXPECT_FALSE(s.way(2).hasOwnerToken);
    s.setOwnerToken(2, true);
    EXPECT_TRUE(s.way(2).hasOwnerToken);
    // Neighbouring ways are untouched.
    EXPECT_FALSE(s.way(1).dirty);
    EXPECT_FALSE(s.way(3).hasOwnerToken);
    // clearWay resets the whole record.
    s.clearWay(2);
    got = s.way(2);
    EXPECT_FALSE(got.valid);
    EXPECT_EQ(got.addr, kInvalidAddr);
    EXPECT_FALSE(got.dirty);
    EXPECT_FALSE(got.hasOwnerToken);
    EXPECT_EQ(got.owner, kInvalidCore);
    EXPECT_EQ(got.cls, BlockClass::Private);
}

// -- The snapshot record ------------------------------------------------

/** Byte offsets into CacheSet::save()'s record (snapshot v7): an 8-byte
 *  header (way count, disabled mask), then 14 bytes per way. */
constexpr std::size_t kSetHeaderBytes = 4 + 4;
constexpr std::size_t kSetDisabled = 4;
constexpr std::size_t kWayBytes = 8 + 1 + 5;
constexpr std::size_t kWayRank = 8;
constexpr std::size_t kWayClass = 9;
constexpr std::size_t kWayOwner = 10;
constexpr std::size_t kWayDirty = 11;
constexpr std::size_t kWayToken = 12;
constexpr std::size_t kWayHits = 13;

/** A 4-way set holding a spread of record values; way 2 is invalid. */
CacheSet
populatedSet()
{
    CacheSet s(4);
    BlockMeta m = makeBlock(0x40, BlockClass::Victim);
    m.owner = kMaxCores - 1;
    m.dirty = true;
    m.hasOwnerToken = true;
    m.hits = 255;
    s.assign(0, m);
    s.touch(0);
    m = makeBlock(0x80, BlockClass::Replica);
    m.owner = 0;
    s.assign(1, m);
    s.touch(1);
    s.assign(3, makeBlock(0xC0, BlockClass::Shared));
    s.bumpHits(3);
    s.demote(3);
    return s;
}

std::string
saved(const CacheSet &s)
{
    SnapshotWriter w;
    s.save(w);
    return w.bytes();
}

std::uint64_t
getLe(const std::string &bytes, std::size_t at, int n)
{
    std::uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i)
        v = (v << 8) |
            static_cast<std::uint8_t>(bytes[at + static_cast<std::size_t>(i)]);
    return v;
}

std::size_t
wayAt(int w, std::size_t field)
{
    return kSetHeaderBytes + static_cast<std::size_t>(w) * kWayBytes + field;
}

void
expectLoadRejected(const std::string &bytes, std::uint32_t ways = 4)
{
    CacheSet s(ways);
    SnapshotReader r(bytes);
    EXPECT_THROW(s.load(r), SnapshotError);
}

TEST(CacheSetSnapshot, RecordIsTheInMemoryLayout)
{
    const CacheSet s = populatedSet();
    const std::string b = saved(s);
    ASSERT_EQ(b.size(), kSetHeaderBytes + 4 * kWayBytes);
    EXPECT_EQ(getLe(b, 0, 4), 4u);
    EXPECT_EQ(getLe(b, kSetDisabled, 4), 0u);
    EXPECT_EQ(getLe(b, wayAt(0, 0), 8), 0x40u);
    EXPECT_EQ(getLe(b, wayAt(2, 0), 8), kInvalidAddr);
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(getLe(b, wayAt(w, kWayRank), 1), s.recencyOf(w));
    EXPECT_EQ(getLe(b, wayAt(0, kWayClass), 1),
              static_cast<std::uint64_t>(BlockClass::Victim));
    EXPECT_EQ(getLe(b, wayAt(0, kWayOwner), 1), kMaxCores - 1);
    EXPECT_EQ(getLe(b, wayAt(0, kWayDirty), 1), 1u);
    EXPECT_EQ(getLe(b, wayAt(0, kWayToken), 1), 1u);
    EXPECT_EQ(getLe(b, wayAt(0, kWayHits), 1), 255u);
    EXPECT_EQ(getLe(b, wayAt(1, kWayOwner), 1), 0u);
    EXPECT_EQ(getLe(b, wayAt(3, kWayOwner), 1), 0xFFu); // no owner
    EXPECT_EQ(getLe(b, wayAt(3, kWayHits), 1), 1u);
    // The paper's machine: a 16-way L2 set and a 4-way L1 set.
    EXPECT_EQ(saved(CacheSet(16)).size(), 232u);
    EXPECT_EQ(saved(CacheSet(4)).size(), 64u);
}

TEST(CacheSetSnapshot, SaveLoadSaveIsByteIdentical)
{
    const CacheSet s = populatedSet();
    const std::string first = saved(s);
    ASSERT_EQ(first.size(), kSetHeaderBytes + 4 * kWayBytes);
    CacheSet back(4);
    SnapshotReader r(first);
    back.load(r);
    r.finish();
    EXPECT_EQ(saved(back), first);
    for (int w = 0; w < 4; ++w) {
        const BlockMeta a = s.way(w);
        const BlockMeta b = back.way(w);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.valid, b.valid);
        EXPECT_EQ(a.dirty, b.dirty);
        EXPECT_EQ(a.cls, b.cls);
        EXPECT_EQ(a.owner, b.owner);
        EXPECT_EQ(a.hasOwnerToken, b.hasOwnerToken);
        EXPECT_EQ(a.hits, b.hits);
        EXPECT_EQ(s.recencyOf(w), back.recencyOf(w));
    }
    for (const ClassMask m : {kMatchPrivate, kMatchShared, kMatchReplica,
                              kMatchVictim, kMatchHelping, kMatchAny})
        EXPECT_EQ(back.countIf(m), s.countIf(m)) << "mask " << int{m};
    EXPECT_EQ(back.invalidWay(), 2);
}

TEST(CacheSetSnapshot, DisabledWaysRoundTrip)
{
    CacheSet s(8);
    s.disableWays(0x81);
    s.assign(3, makeBlock(0x40, BlockClass::Replica));
    const std::string first = saved(s);
    EXPECT_EQ(getLe(first, kSetDisabled, 4), 0x81u);
    CacheSet back(8);
    SnapshotReader r(first);
    back.load(r);
    EXPECT_TRUE(back.wayDisabled(0));
    EXPECT_TRUE(back.wayDisabled(7));
    EXPECT_EQ(back.enabledWays(), 6u);
    EXPECT_EQ(back.invalidWay(), 1);
    EXPECT_EQ(back.helpingCount(), 1u);
    EXPECT_EQ(saved(back), first);
}

TEST(CacheSetSnapshot, RejectsWayCountMismatch)
{
    const std::string good = saved(populatedSet());
    expectLoadRejected(good, 8);
    std::string bad = good;
    bad[0] = 3;
    expectLoadRejected(bad);
}

TEST(CacheSetSnapshot, RejectsMaskBitsBeyondTheWays)
{
    // A disabled bit at way 4 of a 4-way set.
    std::string bad = saved(CacheSet(4));
    bad[kSetDisabled] = 0x10;
    expectLoadRejected(bad);
}

TEST(CacheSetSnapshot, RejectsValidWayThatIsDisabled)
{
    std::string bad = saved(populatedSet());
    bad[kSetDisabled] = 0x2; // way 1 holds 0x80
    expectLoadRejected(bad);
    // The invalid way 2 may be disabled.
    std::string ok = saved(populatedSet());
    ok[kSetDisabled] = 0x4;
    CacheSet s(4);
    SnapshotReader r(ok);
    s.load(r);
    EXPECT_TRUE(s.wayDisabled(2));
    EXPECT_EQ(s.invalidWay(), kNoWay);
}

TEST(CacheSetSnapshot, RejectsRanksThatAreNotAPermutation)
{
    const std::string good = saved(populatedSet());
    // A repeated rank.
    std::string bad = good;
    bad[wayAt(0, kWayRank)] = bad[wayAt(1, kWayRank)];
    expectLoadRejected(bad);
    // A rank beyond the set's ways.
    bad = good;
    bad[wayAt(2, kWayRank)] = 4;
    expectLoadRejected(bad);
    bad[wayAt(2, kWayRank)] = static_cast<char>(0xFF);
    expectLoadRejected(bad);
}

TEST(CacheSetSnapshot, RejectsClassBeyondVictim)
{
    std::string bad = saved(populatedSet());
    bad[wayAt(1, kWayClass)] = 4;
    expectLoadRejected(bad);
    // Also on an invalid way: its record is restored as written.
    bad = saved(populatedSet());
    bad[wayAt(2, kWayClass)] = static_cast<char>(0xFF);
    expectLoadRejected(bad);
}

TEST(CacheSetSnapshot, RejectsOwnerBeyondTheCoreRange)
{
    const std::string good = saved(populatedSet());
    for (const std::uint32_t owner :
         {std::uint32_t{kMaxCores}, std::uint32_t{0x80},
          std::uint32_t{0xFE}}) {
        SCOPED_TRACE(owner);
        std::string bad = good;
        bad[wayAt(0, kWayOwner)] = static_cast<char>(owner);
        expectLoadRejected(bad);
    }
    // The limits themselves load; 0xFF is "no owner".
    for (const std::uint32_t owner : {0u, kMaxCores - 1, 0xFFu}) {
        std::string ok = good;
        ok[wayAt(0, kWayOwner)] = static_cast<char>(owner);
        CacheSet s(4);
        SnapshotReader r(ok);
        s.load(r);
        EXPECT_EQ(s.way(0).owner, owner == 0xFF ? kInvalidCore : owner);
    }
}

/** A loaded set is consistent: its masks, counts and ranks agree with
 *  its ways, whatever image the loader accepted. */
void
expectSetAgreesWithItsWays(const CacheSet &s)
{
    std::uint32_t helping = 0;
    for (std::uint32_t w = 0; w < s.numWays(); ++w) {
        const int wi = static_cast<int>(w);
        const BlockMeta m = s.way(wi);
        if (!m.valid)
            continue;
        EXPECT_EQ(s.find(m.addr, classBit(m.cls)), wi) << "way " << w;
        EXPECT_FALSE(s.wayDisabled(wi)) << "way " << w;
        helping += isHelping(m.cls);
    }
    EXPECT_EQ(s.helpingCount(), helping);
    const int lru = s.lruAmong(kMatchHelping);
    if (lru != kNoWay) {
        EXPECT_TRUE(s.way(lru).valid);
        EXPECT_TRUE(isHelping(s.way(lru).cls));
    }
    EXPECT_TRUE(ranksArePermutation(s));
}

TEST(CacheSetSnapshot, LoadedSetsAgreeWithTheirRecords)
{
    const std::string good = saved(populatedSet());
    std::size_t accepted = 0;
    for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
        SCOPED_TRACE(testing::Message() << "bit " << bit);
        std::string img = good;
        img[bit / 8] = static_cast<char>(img[bit / 8] ^ (1 << (bit % 8)));
        CacheSet s(4);
        SnapshotReader r(img);
        try {
            s.load(r);
        } catch (const SnapshotError &) {
            continue;
        }
        ++accepted;
        expectSetAgreesWithItsWays(s);
    }
    // Tag, dirty, token, hits and most owner/class flips are legal.
    EXPECT_GT(accepted, good.size() * 4);
}

} // namespace
} // namespace espnuca
