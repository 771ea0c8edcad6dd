/**
 * @file
 * LRU set mechanics: recency ordering, predicate search, helping count;
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
    const int priv = s.find(0x100, [](const BlockMeta &m) {
        return m.cls == BlockClass::Private;
    });
    const int sh = s.find(0x100, [](const BlockMeta &m) {
        return m.cls == BlockClass::Shared;
    });
    EXPECT_EQ(priv, 0);
    EXPECT_EQ(sh, 1);
    EXPECT_EQ(s.find(0x200, [](const BlockMeta &) { return true; }),
              kNoWay);
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
    const int lru_helping = s.lruAmong(
        [](const BlockMeta &m) { return isHelping(m.cls); });
    EXPECT_EQ(lru_helping, 1); // replica older than victim
    const int lru_private = s.lruAmong(
        [](const BlockMeta &m) { return m.cls == BlockClass::Private; });
    EXPECT_EQ(lru_private, 0);
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
    EXPECT_EQ(s.countIf([](const BlockMeta &m) {
                  return m.cls == BlockClass::Private;
              }),
              2u);
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

/** Byte offsets into CacheSet::save()'s record (the v5 layout): a
 *  68-byte header (ways, valid mask, four class masks, disabled mask,
 *  hi, lo), then 33 bytes per way. */
constexpr std::size_t kSetHeaderBytes = 4 + 8 + 4 * 8 + 8 + 8 + 8;
constexpr std::size_t kWayBytes = 8 + 8 + 8 + 1 + 1 + 1 + 4 + 1 + 1;
constexpr std::size_t kWayAddr = 16;
constexpr std::size_t kWayValid = 24;
constexpr std::size_t kWayOwner = 27;

/** A 4-way set holding a spread of record values. */
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

void
putU32(std::string &bytes, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[at + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xFF);
}

TEST(CacheSetSnapshot, SaveLoadSaveIsByteIdentical)
{
    const CacheSet s = populatedSet();
    const std::string first = saved(s);
    ASSERT_EQ(first.size(), kSetHeaderBytes + 4 * kWayBytes);
    CacheSet back(4);
    SnapshotReader r(first);
    back.load(r);
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
}

/** Write a v5 record for a 4-way set the way a stamp-keeping writer
 *  would: sparse, arbitrary stamps and its own hi/lo brackets. */
std::string
stampRecord(const std::int64_t (&stamps)[4], std::uint64_t valid_mask)
{
    SnapshotWriter w;
    w.u32(4);
    w.u64(valid_mask);
    w.u64(valid_mask); // every valid way Private
    w.u64(0);
    w.u64(0);
    w.u64(0);
    w.u64(0); // disabled
    w.i64(9000);
    w.i64(-500);
    for (std::uint32_t i = 0; i < 4; ++i) {
        const bool valid = (valid_mask >> i) & 1u;
        const Addr a = valid ? 0x40 * (i + 1) : kInvalidAddr;
        w.u64(a);
        w.i64(stamps[i]);
        w.u64(a);
        w.b(valid);
        w.b(false);
        w.u8(0);
        w.u32(kInvalidCore);
        w.b(false);
        w.u8(0);
    }
    return w.bytes();
}

TEST(CacheSetSnapshot, SparseStampsLoadAsTheirOrder)
{
    const std::int64_t stamps[4] = {-7, 103, 12, 55};
    const std::string rec = stampRecord(stamps, 0xF);
    CacheSet s(4);
    SnapshotReader r(rec);
    s.load(r);
    r.finish();
    EXPECT_EQ(s.recencyOf(1), 0u);
    EXPECT_EQ(s.recencyOf(3), 1u);
    EXPECT_EQ(s.recencyOf(2), 2u);
    EXPECT_EQ(s.recencyOf(0), 3u);
    EXPECT_EQ(s.lruWay(), 0);
    // Written back as canonical stamps, which load to the same order
    // and then save to the same bytes.
    const std::string canon = saved(s);
    CacheSet back(4);
    SnapshotReader r2(canon);
    back.load(r2);
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(back.recencyOf(w), s.recencyOf(w));
    EXPECT_EQ(saved(back), canon);
}

TEST(CacheSetSnapshot, RejectsRepeatedStamps)
{
    const std::int64_t stamps[4] = {4, 9, 2, 9};
    const std::string rec = stampRecord(stamps, 0x5);
    CacheSet s(4);
    SnapshotReader r(rec);
    EXPECT_THROW(s.load(r), SnapshotError);
}

TEST(CacheSetSnapshot, RejectsMaskBitsBeyondTheWays)
{
    const std::int64_t stamps[4] = {4, 3, 2, 1};
    // A valid bit at way 4 of a 4-way set.
    const std::string rec = stampRecord(stamps, 0x1F);
    CacheSet s(4);
    SnapshotReader r(rec);
    EXPECT_THROW(s.load(r), SnapshotError);
}

void
expectLoadRejected(const std::string &bytes)
{
    CacheSet s(4);
    SnapshotReader r(bytes);
    EXPECT_THROW(s.load(r), SnapshotError);
}

TEST(CacheSetSnapshot, RejectsWayDisagreeingWithTagOrValidMask)
{
    const std::string good = saved(populatedSet());
    // A stored addr that is not the way's tag (valid way 0).
    std::string bad = good;
    bad[kSetHeaderBytes + kWayAddr] ^= 0x01;
    expectLoadRejected(bad);
    // An invalid way (2) whose stored addr is a block.
    bad = good;
    bad[kSetHeaderBytes + 2 * kWayBytes + kWayAddr] = 0x40;
    expectLoadRejected(bad);
    // A valid flag the valid mask does not have, and the reverse.
    bad = good;
    bad[kSetHeaderBytes + 2 * kWayBytes + kWayValid] = 1;
    expectLoadRejected(bad);
    bad = good;
    bad[kSetHeaderBytes + kWayValid] = 0;
    expectLoadRejected(bad);
}

TEST(CacheSetSnapshot, RejectsOwnerBeyondTheCoreRange)
{
    const std::string good = saved(populatedSet());
    for (const std::uint32_t owner :
         {std::uint32_t{kMaxCores}, std::uint32_t{0xFF},
          std::uint32_t{0x100}, kInvalidCore - 1}) {
        SCOPED_TRACE(owner);
        std::string bad = good;
        putU32(bad, kSetHeaderBytes + kWayOwner, owner);
        expectLoadRejected(bad);
    }
    // The limits themselves load.
    for (const std::uint32_t owner : {0u, kMaxCores - 1, kInvalidCore}) {
        std::string ok = good;
        putU32(ok, kSetHeaderBytes + kWayOwner, owner);
        CacheSet s(4);
        SnapshotReader r(ok);
        s.load(r);
        EXPECT_EQ(s.way(0).owner, owner);
    }
}

} // namespace
} // namespace espnuca
