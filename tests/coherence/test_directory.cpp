/**
 * @file
 * Directory / token-ledger tests: holder bookkeeping, owner-token
 * invariants, the SP-NUCA privatization lifecycle, token conservation
 * under the redistribution rule, and forgetting off-chip blocks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coherence/directory.hpp"
#include "common/rng.hpp"

namespace espnuca {
namespace {

struct DirFixture : ::testing::Test
{
    SystemConfig cfg;
    Directory dir{cfg};
    static constexpr Addr kA = 0x4000;
};

TEST_F(DirFixture, UnknownBlockIsOffChip)
{
    EXPECT_EQ(dir.find(kA), nullptr);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::Memory, 0), cfg.totalTokens());
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::L1, 3), 0u);
}

TEST_F(DirFixture, FirstAccessSetsPrivateOwner)
{
    EXPECT_FALSE(dir.noteAccess(kA, 2));
    const BlockInfo *e = dir.find(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->firstAccessor(), 2u);
    EXPECT_FALSE(e->sharedStatus());
}

TEST_F(DirFixture, SecondCoreFlipsShared)
{
    dir.noteAccess(kA, 2);
    dir.addL1(kA, l1IdOf(2, false), true); // block is on chip
    EXPECT_TRUE(dir.noteAccess(kA, 5)); // privatization reset
    EXPECT_TRUE(dir.find(kA)->sharedStatus());
    // Further accesses don't flip again.
    EXPECT_FALSE(dir.noteAccess(kA, 6));
    EXPECT_FALSE(dir.noteAccess(kA, 2));
}

TEST_F(DirFixture, OffChipBlockStartsOverAsPrivate)
{
    // With no on-chip copy, a second core's access is a fresh arrival,
    // not a privatization flip (paper 2.1: status holds only while the
    // block stays in the chip).
    dir.noteAccess(kA, 2);
    EXPECT_FALSE(dir.noteAccess(kA, 5));
    EXPECT_FALSE(dir.find(kA)->sharedStatus());
    EXPECT_EQ(dir.find(kA)->firstAccessor(), 5u);
}

TEST_F(DirFixture, SameCoreRepeatStaysPrivate)
{
    dir.noteAccess(kA, 2);
    EXPECT_FALSE(dir.noteAccess(kA, 2));
    EXPECT_FALSE(dir.find(kA)->sharedStatus());
}

TEST_F(DirFixture, L1HolderBits)
{
    dir.noteAccess(kA, 0);
    dir.addL1(kA, 3, true);
    dir.addL1(kA, 7, false);
    const BlockInfo *e = dir.find(kA);
    EXPECT_TRUE(e->hasL1Holder(3));
    EXPECT_TRUE(e->hasL1Holder(7));
    EXPECT_EQ(e->numL1Holders(), 2u);
    EXPECT_EQ(e->ownerKind(), OwnerKind::L1);
    EXPECT_EQ(e->ownerIndex(), 3u);
}

TEST_F(DirFixture, RemoveOwnerL1FallsBackToMemory)
{
    dir.addL1(kA, 3, true);
    dir.addL1(kA, 7, false);
    dir.removeL1(kA, 3);
    const BlockInfo *e = dir.find(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ownerKind(), OwnerKind::Memory);
}

TEST_F(DirFixture, LastHolderRemovalReleasesBlock)
{
    dir.noteAccess(kA, 0);
    dir.addL1(kA, 0, true);
    dir.noteAccess(kA, 5); // shared now
    dir.removeL1(kA, 0);
    // Block left the chip: status resets lazily (paper 2.1)...
    EXPECT_FALSE(dir.onChip(kA));
    // ...so the next arrival is private again.
    EXPECT_FALSE(dir.noteAccess(kA, 5));
    EXPECT_FALSE(dir.find(kA)->sharedStatus());
    EXPECT_EQ(dir.find(kA)->firstAccessor(), 5u);
}

TEST_F(DirFixture, StatusSurvivesOnChipMoves)
{
    // A displaced private block becoming a victim passes through a
    // zero-copy window; the status must survive it (no demand access
    // intervenes).
    dir.noteAccess(kA, 0);
    dir.addL2(kA, 2, true);
    dir.noteAccess(kA, 5); // shared
    dir.removeL2(kA, 2);   // transient zero-copy window
    dir.addL2(kA, 9, true);
    EXPECT_TRUE(dir.find(kA)->sharedStatus());
    EXPECT_FALSE(dir.noteAccess(kA, 3)); // no double flip
}

TEST_F(DirFixture, NoteAccessEntryAloneDoesNotPinChipResidence)
{
    // An entry created by noteAccess only (no holders) reports off-chip.
    dir.noteAccess(kA, 1);
    EXPECT_FALSE(dir.find(kA)->onChip());
}

TEST_F(DirFixture, L2CopyBookkeeping)
{
    dir.addL2(kA, 12, true);
    const BlockInfo *e = dir.find(kA);
    EXPECT_TRUE(e->hasL2Copy(12));
    EXPECT_EQ(e->ownerKind(), OwnerKind::L2Bank);
    EXPECT_EQ(e->ownerIndex(), 12u);
    dir.removeL2(kA, 12);
    EXPECT_FALSE(dir.onChip(kA));
    EXPECT_EQ(dir.find(kA)->ownerKind(), OwnerKind::Memory);
}

TEST_F(DirFixture, TokenConservationAcrossStates)
{
    // Memory-only: all tokens at memory.
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::Memory, 0), 64u);
    // One L1 owner: it holds everything.
    dir.addL1(kA, 2, true);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::L1, 2), 64u);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::Memory, 0), 0u);
    // A second reader: owner keeps the remainder.
    dir.addL1(kA, 5, false);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::L1, 2), 63u);
    EXPECT_EQ(dir.tokensOf(kA, OwnerKind::L1, 5), 1u);
    // An L2 copy too: sums still 64.
    dir.addL2(kA, 9, false);
    const std::uint32_t total = dir.tokensOf(kA, OwnerKind::L1, 2) +
                                dir.tokensOf(kA, OwnerKind::L1, 5) +
                                dir.tokensOf(kA, OwnerKind::L2Bank, 9);
    EXPECT_EQ(total, 64u);
}

TEST_F(DirFixture, ConsistencyChecks)
{
    EXPECT_TRUE(dir.consistent(kA));
    dir.addL1(kA, 1, true);
    dir.addL2(kA, 4, false);
    EXPECT_TRUE(dir.consistent(kA));
    dir.setOwner(kA, OwnerKind::L2Bank, 4);
    EXPECT_TRUE(dir.consistent(kA));
}

TEST_F(DirFixture, PopulationTracksDistinctBlocks)
{
    dir.addL1(0x1000, 0, true);
    dir.addL1(0x2000, 1, true);
    EXPECT_EQ(dir.population(), 2u);
    dir.removeL1(0x1000, 0);
    EXPECT_EQ(dir.population(), 1u);
}

constexpr auto kNoLocks = [](Addr) { return false; };

TEST_F(DirFixture, ForgetErasesOnlyQueuedOffChipUnlockedBlocks)
{
    dir.noteAccess(kA, 0);
    dir.addL1(kA, 0, true);
    dir.noteAccess(kA, 5); // shared
    dir.addL1(0x8000, 1, true);
    dir.noteAccess(0xC000, 2); // entry without copies, never queued
    dir.removeL1(kA, 0);
    // The entry outlives the removal: mid-handler moves still read it.
    ASSERT_NE(dir.find(kA), nullptr);
    EXPECT_TRUE(dir.find(kA)->sharedStatus());
    // A locked block keeps its entry, and its place in the queue...
    dir.forgetOffChip([](Addr a) { return a == kA; });
    ASSERT_NE(dir.find(kA), nullptr);
    EXPECT_EQ(dir.find(kA)->firstAccessor(), 0u);
    EXPECT_EQ(dir.size(), 3u);
    // ...until the first pass that finds it unlocked.
    dir.forgetOffChip(kNoLocks);
    EXPECT_EQ(dir.find(kA), nullptr);
    EXPECT_NE(dir.find(0x8000), nullptr);
    EXPECT_NE(dir.find(0xC000), nullptr);
    EXPECT_EQ(dir.size(), 2u);
    // A forgotten block comes back private with a fresh first accessor.
    EXPECT_FALSE(dir.noteAccess(kA, 5));
    EXPECT_EQ(dir.find(kA)->firstAccessor(), 5u);
    EXPECT_FALSE(dir.find(kA)->sharedStatus());
}

TEST_F(DirFixture, BlockBackOnChipIsNotForgotten)
{
    dir.noteAccess(kA, 0);
    dir.addL2(kA, 2, true);
    dir.noteAccess(kA, 5); // shared
    dir.removeL2(kA, 2);   // queued in the zero-copy window
    dir.addL2(kA, 9, true);
    dir.forgetOffChip(kNoLocks);
    ASSERT_NE(dir.find(kA), nullptr);
    EXPECT_TRUE(dir.find(kA)->sharedStatus());
    // Leaving the chip again queues it afresh; a pass that finds it
    // locked keeps it queued.
    dir.removeL2(kA, 9);
    dir.forgetOffChip([](Addr) { return true; });
    EXPECT_NE(dir.find(kA), nullptr);
    dir.forgetOffChip(kNoLocks);
    EXPECT_EQ(dir.find(kA), nullptr);
}

/** Block addresses that land in sub-table `sub` with home slot `home`
 *  while that sub-table has its initial capacity, picked through the
 *  directory's own placement helpers. */
std::vector<Addr>
homedAt(std::size_t sub, std::size_t home, std::size_t n)
{
    std::vector<Addr> out;
    for (Addr a = 0x40; out.size() < n; a += 0x40)
        if (Directory::subTableOf(a) == sub &&
            Directory::homeSlot(a, Directory::kMinSlots) == home)
            out.push_back(a);
    return out;
}

TEST(DirectoryErase, WrapAroundClusterStaysReachable)
{
    // Eight blocks in one fresh 16-slot sub-table (load 1/2, no
    // growth): five homed at its last slot and three at slot 0, so one
    // cluster wraps over the sub-table end as 15, 0, 1, ..., 6. Erasing
    // from its front and middle must slide the wrapped entries back
    // without orphaning any of them.
    ASSERT_EQ(Directory::kMinSlots, 16u);
    constexpr std::size_t kSub = 9;
    std::vector<Addr> blocks = homedAt(kSub, 15, 5);
    for (const Addr a : homedAt(kSub, 0, 3))
        blocks.push_back(a);
    for (const Addr a : blocks)
        ASSERT_EQ(Directory::subTableOf(a), kSub);
    for (const std::vector<std::size_t> &erase :
         {std::vector<std::size_t>{0}, {5}, {0, 1, 2}, {4, 6, 7},
          {1, 3, 5, 7}}) {
        SCOPED_TRACE(testing::Message() << "first erased " << erase[0]);
        SystemConfig cfg;
        Directory dir(cfg);
        for (std::size_t k = 0; k < blocks.size(); ++k) {
            dir.noteAccess(blocks[k], static_cast<CoreId>(k));
            dir.addL1(blocks[k], static_cast<L1Id>(k), true);
        }
        ASSERT_EQ(dir.subTableSlots(kSub), Directory::kMinSlots);
        for (const std::size_t k : erase)
            dir.removeL1(blocks[k], static_cast<L1Id>(k));
        dir.forgetOffChip(kNoLocks);
        EXPECT_EQ(dir.size(), blocks.size() - erase.size());
        for (std::size_t k = 0; k < blocks.size(); ++k) {
            const BlockInfo *e = dir.find(blocks[k]);
            if (std::find(erase.begin(), erase.end(), k) != erase.end()) {
                EXPECT_EQ(e, nullptr) << k;
                continue;
            }
            ASSERT_NE(e, nullptr) << k;
            EXPECT_TRUE(e->hasL1Holder(static_cast<L1Id>(k)));
            EXPECT_EQ(e->numL1Holders(), 1u);
            EXPECT_EQ(e->firstAccessor(), k);
        }
        // The vacated slots were re-zeroed: re-created entries are
        // fresh, whichever slot they land in.
        for (const std::size_t k : erase) {
            EXPECT_FALSE(dir.noteAccess(blocks[k], 7));
            const BlockInfo *e = dir.find(blocks[k]);
            ASSERT_NE(e, nullptr);
            EXPECT_FALSE(e->onChip());
            EXPECT_EQ(e->ownerKind(), OwnerKind::Memory);
            EXPECT_EQ(e->firstAccessor(), 7u);
        }
        EXPECT_EQ(dir.size(), blocks.size());
        EXPECT_EQ(dir.subTableSlots(kSub), Directory::kMinSlots);
    }
}

TEST(DirectoryGrowth, OneSubTableGrowsAlone)
{
    // Push one sub-table well past load 5/8 of its initial capacity
    // (through several doublings); every other sub-table must keep its
    // initial capacity, and every entry must stay reachable.
    constexpr std::size_t kSub = 42;
    std::vector<Addr> many;
    for (Addr a = 0x40; many.size() < 12 * Directory::kMinSlots;
         a += 0x40)
        if (Directory::subTableOf(a) == kSub)
            many.push_back(a);
    SystemConfig cfg;
    Directory dir(cfg);
    for (std::size_t k = 0; k < many.size(); ++k) {
        dir.noteAccess(many[k], static_cast<CoreId>(k % cfg.numCores));
        dir.addL2(many[k], static_cast<BankId>(k % cfg.l2Banks), true);
    }
    // 192 entries keep a sub-table under 5/8 only from 512 slots up.
    EXPECT_EQ(dir.subTableSlots(kSub), 32 * Directory::kMinSlots);
    for (std::size_t t = 0; t < Directory::kSubTables; ++t) {
        if (t == kSub)
            continue;
        EXPECT_EQ(dir.subTableSlots(t), Directory::kMinSlots) << t;
    }
    for (std::size_t k = 0; k < many.size(); ++k) {
        const BlockInfo *e = dir.find(many[k]);
        ASSERT_NE(e, nullptr) << k;
        EXPECT_TRUE(e->hasL2Copy(static_cast<BankId>(k % cfg.l2Banks)));
        EXPECT_EQ(e->firstAccessor(), k % cfg.numCores);
    }
    // forEach visits each entry exactly once, and size() is that count.
    std::map<Addr, int> seen;
    dir.forEach([&](Addr a, const BlockInfo &) { ++seen[a]; });
    EXPECT_EQ(seen.size(), many.size());
    EXPECT_EQ(dir.size(), seen.size());
    for (const Addr a : many)
        EXPECT_EQ(seen[a], 1) << a;
}

SystemConfig
machine(std::uint32_t cores, std::uint32_t banks)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.l2Banks = banks;
    return cfg;
}

TEST(DirectoryLayout, SlotSizedToTheMachine)
{
    // Key word + header word + one word for 16 L1 + 32 bank bits.
    EXPECT_EQ(Directory(machine(8, 32)).slotBytes(), 24u);
    // 128 L1 + 256 bank bits fill six words.
    EXPECT_EQ(Directory(machine(64, 256)).slotBytes(), 64u);
    // 32 L1 + 64 bank bits need two.
    EXPECT_EQ(Directory(machine(16, 64)).slotBytes(), 32u);
}

TEST(DirectoryLayout, BankBitsStraddlingAWordBoundary)
{
    // 16 cores / 128 banks: L1 bits 0..31, bank b at bit 32 + b, so
    // banks 31|32 sit on either side of bit 64 and banks 95|96 on
    // either side of bit 128.
    const SystemConfig cfg = machine(16, 128);
    Directory dir(cfg);
    EXPECT_EQ(dir.slotBytes(), 8u * (2 + 3));
    const std::vector<std::vector<BankId>> cases = {
        {31}, {32}, {31, 32}, {95}, {96}, {95, 96}, {0, 127},
        {31, 32, 63, 64, 95, 96, 127}};
    const std::vector<std::vector<L1Id>> l1s = {{}, {31}, {0, 31}};
    Addr a = 0x400000;
    for (const auto &banks : cases) {
        for (const auto &ids : l1s) {
            a += 64;
            dir.noteAccess(a, 0);
            for (const L1Id id : ids)
                dir.addL1(a, id, false);
            for (const BankId b : banks)
                dir.addL2(a, b, false);
            const BlockInfo *e = dir.find(a);
            ASSERT_NE(e, nullptr);
            const std::set<BankId> ref(banks.begin(), banks.end());
            L2CopyMask l2;
            for (const BankId b : ref)
                l2.set(b);
            L1HolderMask l1;
            for (const L1Id id : ids)
                l1.set(id);
            for (BankId b = 0; b < cfg.l2Banks; ++b)
                EXPECT_EQ(e->hasL2Copy(b), ref.count(b) != 0) << b;
            for (L1Id id = 0; id < cfg.l1Count(); ++id)
                EXPECT_EQ(e->hasL1Holder(id),
                          std::count(ids.begin(), ids.end(), id) != 0);
            EXPECT_TRUE(e->anyL2Copy());
            EXPECT_EQ(e->numL2Copies(), ref.size());
            EXPECT_TRUE(e->l2Copies() == l2);
            EXPECT_EQ(e->anyL1Holder(), !ids.empty());
            EXPECT_EQ(e->numL1Holders(), ids.size());
            EXPECT_TRUE(e->l1Holders() == l1);
            EXPECT_TRUE(e->onChip());
            // Dropping the banks one by one leaves only the L1 bits.
            for (const BankId b : ref)
                dir.removeL2(a, b);
            e = dir.find(a);
            EXPECT_FALSE(e->anyL2Copy());
            EXPECT_EQ(e->numL2Copies(), 0u);
            EXPECT_TRUE(e->l2Copies() == L2CopyMask{});
            EXPECT_EQ(e->onChip(), !ids.empty());
            EXPECT_TRUE(e->l1Holders() == l1);
        }
    }
}

/** What the directory must report for one block. */
struct RefEntry
{
    std::set<L1Id> l1;
    std::set<BankId> l2;
    OwnerKind ownerKind = OwnerKind::Memory;
    std::uint32_t ownerIndex = 0;
    bool shared = false;
    CoreId first = kInvalidCore;
};

template <typename T>
T
pick(Rng &rng, const std::set<T> &s)
{
    auto it = s.begin();
    std::advance(it, static_cast<long>(rng.below(s.size())));
    return *it;
}

void
expectSame(const Directory &dir, const std::map<Addr, RefEntry> &ref)
{
    ASSERT_EQ(dir.size(), ref.size());
    std::size_t on_chip = 0;
    dir.forEach([&](Addr a, const BlockInfo &e) {
        SCOPED_TRACE(testing::Message() << "addr=0x" << std::hex << a);
        const auto it = ref.find(a);
        ASSERT_NE(it, ref.end());
        const RefEntry &r = it->second;
        L1HolderMask l1;
        for (const L1Id id : r.l1)
            l1.set(id);
        L2CopyMask l2;
        for (const BankId b : r.l2)
            l2.set(b);
        EXPECT_TRUE(e.l1Holders() == l1);
        EXPECT_TRUE(e.l2Copies() == l2);
        EXPECT_EQ(e.numL1Holders(), r.l1.size());
        EXPECT_EQ(e.numL2Copies(), r.l2.size());
        EXPECT_EQ(e.anyL1Holder(), !r.l1.empty());
        EXPECT_EQ(e.anyL2Copy(), !r.l2.empty());
        EXPECT_EQ(e.ownerKind(), r.ownerKind);
        EXPECT_EQ(e.ownerIndex(), r.ownerIndex);
        EXPECT_EQ(e.sharedStatus(), r.shared);
        EXPECT_EQ(e.firstAccessor(), r.first);
        EXPECT_EQ(dir.find(a), &e);
        on_chip += e.onChip();
    });
    EXPECT_EQ(dir.population(), on_chip);
}

class DirectoryChurn
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>>
{
};

TEST_P(DirectoryChurn, MatchesMapModel)
{
    const SystemConfig cfg = machine(GetParam().first, GetParam().second);
    Directory dir(cfg);
    std::map<Addr, RefEntry> ref;
    Rng rng(0xD1C0 + cfg.numCores);
    // Blocks the directory should have queued for the next forget
    // pass: last-copy removals, and locked blocks a pass kept.
    std::set<Addr> queued;
    bool high_l1 = false;
    bool high_bank = false;
    std::size_t forgotten = 0;
    std::size_t peak = 0;
    constexpr int kOps = 60000;
    for (int i = 0; i < kOps; ++i) {
        // The block pool grows over the run, so inserts (and the table
        // doublings they trigger) interleave with holder updates.
        const Addr a = 0x100000 + rng.below(1 + i / 12) * 64;
        // Only the entry-creating calls may meet an unknown (or
        // forgotten) block.
        const bool fresh = ref.count(a) == 0;
        RefEntry &r = ref[a];
        const auto c = static_cast<CoreId>(rng.below(cfg.numCores));
        const auto id = static_cast<L1Id>(rng.below(cfg.l1Count()));
        const auto b = static_cast<BankId>(rng.below(cfg.l2Banks));
        const bool owner = rng.chance(0.5);
        const auto offChip = [](const RefEntry &x) {
            return x.l1.empty() && x.l2.empty();
        };
        switch (fresh ? rng.below(2) : rng.below(7)) {
        case 0: {
            const bool on_chip = !r.l1.empty() || !r.l2.empty();
            if (!on_chip && r.first != kInvalidCore) {
                r.first = kInvalidCore;
                r.shared = false;
            }
            bool flip = false;
            if (r.first == kInvalidCore) {
                r.first = c;
            } else if (!r.shared && r.first != c) {
                r.shared = true;
                flip = true;
            }
            EXPECT_EQ(dir.noteAccess(a, c), flip);
            break;
        }
        case 1:
            dir.addL1(a, id, owner);
            r.l1.insert(id);
            if (owner) {
                r.ownerKind = OwnerKind::L1;
                r.ownerIndex = id;
            }
            high_l1 |= id >= 64;
            break;
        case 2:
            if (!r.l1.empty()) {
                const L1Id h = pick(rng, r.l1);
                dir.removeL1(a, h);
                r.l1.erase(h);
                if (r.ownerKind == OwnerKind::L1 && r.ownerIndex == h) {
                    r.ownerKind = OwnerKind::Memory;
                    r.ownerIndex = 0;
                }
                if (offChip(r))
                    queued.insert(a);
            }
            break;
        case 3:
            if (r.l2.count(b) != 0)
                break;
            dir.addL2(a, b, owner);
            r.l2.insert(b);
            if (owner) {
                r.ownerKind = OwnerKind::L2Bank;
                r.ownerIndex = b;
            }
            high_bank |= b >= 64;
            break;
        case 4:
            if (!r.l2.empty()) {
                const BankId h = pick(rng, r.l2);
                dir.removeL2(a, h);
                r.l2.erase(h);
                if (r.ownerKind == OwnerKind::L2Bank && r.ownerIndex == h) {
                    r.ownerKind = OwnerKind::Memory;
                    r.ownerIndex = 0;
                }
                if (offChip(r))
                    queued.insert(a);
            }
            break;
        case 5:
            // A migration as D-NUCA makes one: the copy leaves `from`
            // (possibly through a zero-copy window) and lands at `b`,
            // taking the owner token along if it held it.
            if (!r.l2.empty() && r.l2.count(b) == 0) {
                const BankId from = pick(rng, r.l2);
                const bool token = r.ownerKind == OwnerKind::L2Bank &&
                                   r.ownerIndex == from;
                dir.removeL2(a, from);
                r.l2.erase(from);
                if (token) {
                    r.ownerKind = OwnerKind::Memory;
                    r.ownerIndex = 0;
                }
                if (offChip(r))
                    queued.insert(a);
                dir.addL2(a, b, token);
                r.l2.insert(b);
                if (token) {
                    r.ownerKind = OwnerKind::L2Bank;
                    r.ownerIndex = b;
                }
                high_bank |= b >= 64;
            }
            break;
        default:
            if (!r.l1.empty() && rng.chance(0.5)) {
                const L1Id h = pick(rng, r.l1);
                dir.setOwner(a, OwnerKind::L1, h);
                r.ownerKind = OwnerKind::L1;
                r.ownerIndex = h;
            } else if (!r.l2.empty()) {
                const BankId h = pick(rng, r.l2);
                dir.setOwner(a, OwnerKind::L2Bank, h);
                r.ownerKind = OwnerKind::L2Bank;
                r.ownerIndex = h;
            } else {
                dir.setOwner(a, OwnerKind::Memory, 0);
                r.ownerKind = OwnerKind::Memory;
                r.ownerIndex = 0;
            }
            break;
        }
        peak = std::max(peak, dir.size());
        if (rng.chance(0.01)) {
            // A forget pass with a random quarter of the blocks locked.
            const std::uint64_t salt = rng.below(4);
            const auto locked = [salt](Addr x) {
                return (x / 64 + salt) % 4 == 0;
            };
            dir.forgetOffChip(locked);
            std::set<Addr> kept;
            for (const Addr q : queued) {
                const auto it = ref.find(q);
                if (it == ref.end() || !offChip(it->second))
                    continue;
                if (locked(q)) {
                    kept.insert(q);
                } else {
                    ref.erase(it);
                    ++forgotten;
                }
            }
            queued = std::move(kept);
        }
        if (i % 9973 == 0)
            expectSame(dir, ref);
    }
    expectSame(dir, ref);
    // Forget passes erased thousands of entries while the table grew
    // from 16 slots through at least eight doublings.
    EXPECT_GT(forgotten, 2000u);
    EXPECT_GT(peak, 16u * 256 * 5 / 8);
    EXPECT_EQ(high_l1, cfg.l1Count() > 64);
    EXPECT_EQ(high_bank, cfg.l2Banks > 64);
}

INSTANTIATE_TEST_SUITE_P(
    BothWidths, DirectoryChurn,
    ::testing::Values(std::make_pair(8u, 32u), std::make_pair(16u, 128u),
                      std::make_pair(64u, 256u)),
    [](const auto &info) {
        return std::to_string(info.param.first) + "c" +
               std::to_string(info.param.second) + "b";
    });

/** A 64-core directory whose entries use every word of the slot. */
Directory
wideDirectory()
{
    Directory dir(machine(64, 256));
    for (std::uint32_t i = 0; i < 3000; ++i) {
        const Addr a = 0x200000 + Addr{i} * 64;
        dir.noteAccess(a, i % 64);
        dir.addL1(a, 127 - i % 128, i % 3 == 0);
        dir.addL1(a, i % 61, false);
        dir.addL2(a, 255 - i % 256, i % 3 == 1);
        if (i % 5 == 0)
            dir.noteAccess(a, (i + 1) % 64); // shared
        if (i % 7 == 0)
            dir.removeL1(a, 127 - i % 128);
    }
    return dir;
}

/** The fixed-size entry records of a Directory::save image, sorted:
 *  address, 2 + 4 mask words, owner kind, owner index, shared status,
 *  first accessor. */
std::vector<std::string>
records(const std::string &image)
{
    constexpr std::size_t kRecord = 8 + 8 * (2 + 4) + 1 + 4 + 1 + 4;
    EXPECT_EQ((image.size() - 8) % kRecord, 0u);
    std::vector<std::string> out;
    for (std::size_t at = 8; at + kRecord <= image.size(); at += kRecord)
        out.push_back(image.substr(at, kRecord));
    std::sort(out.begin(), out.end());
    return out;
}

TEST(DirectorySnapshot, SaveLoadSaveRoundTripAtFullWidth)
{
    const Directory dir = wideDirectory();
    SnapshotWriter first;
    dir.save(first);
    Directory back(machine(64, 256));
    SnapshotReader r(first.bytes());
    back.load(r);
    r.finish();
    SnapshotWriter second;
    back.save(second);
    // The same records, each byte for byte. Their order may differ:
    // the reloaded table grew through other intermediate sizes, and
    // lookups are exact-key.
    EXPECT_EQ(back.size(), dir.size());
    EXPECT_EQ(back.population(), dir.population());
    EXPECT_EQ(records(first.bytes()), records(second.bytes()));
}

TEST(DirectorySnapshot, OffChipRecordsAreDroppedOnLoad)
{
    // A directory that never ran a forget pass: a third of its entries
    // are off chip, and its image records them all.
    Directory dir(machine(8, 32));
    for (std::uint32_t i = 0; i < 3000; ++i) {
        const Addr a = 0x300000 + Addr{i} * 64;
        dir.noteAccess(a, i % 8);
        dir.addL1(a, i % 16, true);
        dir.addL2(a, i % 32, false);
        if (i % 3 == 0) {
            dir.removeL1(a, i % 16);
            dir.removeL2(a, i % 32);
        }
    }
    ASSERT_EQ(dir.size(), 3000u);
    ASSERT_EQ(dir.population(), 2000u);
    SnapshotWriter w;
    dir.save(w);
    Directory back(machine(8, 32));
    SnapshotReader r(w.bytes());
    back.load(r);
    r.finish();
    EXPECT_EQ(back.size(), back.population());
    EXPECT_EQ(back.population(), 2000u);
    // The on-chip records come back byte for byte.
    SnapshotWriter again;
    back.save(again);
    const std::vector<std::string> all = records(w.bytes());
    const std::vector<std::string> kept = records(again.bytes());
    EXPECT_EQ(kept.size(), 2000u);
    for (const std::string &rec : kept)
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), rec));
}

/** A one-entry directory image whose masks carry `l1_bit` and
 *  `bank_bit`. */
std::string
oneEntryImage(std::uint32_t l1_bit, std::uint32_t bank_bit)
{
    SnapshotWriter w;
    w.u64(1);
    w.u64(0x500040);
    L1HolderMask l1;
    l1.set(l1_bit);
    L2CopyMask l2;
    l2.set(bank_bit);
    for (std::uint32_t k = 0; k < L1HolderMask::kWords; ++k)
        w.u64(l1.word(k));
    for (std::uint32_t k = 0; k < L2CopyMask::kWords; ++k)
        w.u64(l2.word(k));
    w.u8(static_cast<std::uint8_t>(OwnerKind::Memory));
    w.u32(0);
    w.b(false);
    w.u32(0);
    return w.bytes();
}

TEST(DirectorySnapshot, RejectsBitsPastTheMachine)
{
    // 8 cores / 32 banks pack into one word: an L1 bit at l1Count
    // would read back as bank 0, and bank 32 as a bit no one owns.
    const SystemConfig cfg = machine(8, 32);
    {
        Directory dir(cfg);
        SnapshotReader r(oneEntryImage(cfg.l1Count() - 1, cfg.l2Banks - 1));
        dir.load(r);
        r.finish();
        const BlockInfo *e = dir.find(0x500040);
        ASSERT_NE(e, nullptr);
        EXPECT_TRUE(e->hasL1Holder(cfg.l1Count() - 1));
        EXPECT_TRUE(e->hasL2Copy(cfg.l2Banks - 1));
        EXPECT_EQ(e->numL1Holders() + e->numL2Copies(), 2u);
    }
    for (const auto &[l1_bit, bank_bit] :
         {std::pair<std::uint32_t, std::uint32_t>{cfg.l1Count(), 0},
          {0, cfg.l2Banks}}) {
        SCOPED_TRACE(testing::Message() << l1_bit << "/" << bank_bit);
        Directory dir(cfg);
        SnapshotReader r(oneEntryImage(l1_bit, bank_bit));
        EXPECT_THROW(dir.load(r), SnapshotError);
    }
}

TEST(DirectorySnapshot, NarrowMachineRefusesWideEntries)
{
    SnapshotWriter w;
    wideDirectory().save(w);
    Directory narrow(machine(8, 32));
    SnapshotReader r(w.bytes());
    EXPECT_THROW(narrow.load(r), SnapshotError);
}

} // namespace
} // namespace espnuca
