/**
 * @file
 * Chip-wide per-block coherence bookkeeping: the token-counting ledger
 * and the TokenD-style directory (paper 2.3, [15]).
 *
 * The simulator tracks, per block, which L1s hold tokens, which L2 banks
 * hold copies, where the owner token is, and the SP-NUCA private/shared
 * status. Token counts follow the transaction-level redistribution rule
 * (DESIGN.md 5.2): the owner holds the remainder of the fixed total,
 * every other holder one token, and memory everything when the block is
 * off chip — so conservation holds by construction and the testable
 * invariants are on the holder sets themselves.
 *
 * Storage (DESIGN.md 5.15): 64 open-addressing sub-tables, chosen by
 * the top bits of the block's hash, whose slot is sized to the modelled
 * machine when the directory is built — a key word, an 8-byte
 * BlockInfo header and ⌈(l1Count + l2Banks)/64⌉ holder words: one bit
 * range with the L1 holder bits first and L2 bank b at bit
 * l1Count + b. That is 24 B at the paper's 8 cores / 32 banks and
 * 64 B at the 64-core / 256-bank caps, through one code path. Each
 * sub-table grows on its own, so a growth step holds 1/64 of the
 * directory twice, not all of it. Only this file knows the word
 * layout; callers see BlockInfo accessors and full-width InlineBitset
 * snapshots.
 *
 * An entry lives only while its block is on chip or locked by an
 * in-flight transaction: a block whose copies all left the chip starts
 * over as private (paper 2.1), so its entry holds nothing a later
 * access reads. The last-copy removals queue the address and the
 * protocol erases the queued entries between handlers
 * (forgetOffChip), so the table scales with on-chip capacity rather
 * than with the footprint.
 */

#ifndef ESPNUCA_COHERENCE_DIRECTORY_HPP_
#define ESPNUCA_COHERENCE_DIRECTORY_HPP_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "coherence/l1_cache.hpp"
#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/inline_bitset.hpp"
#include "common/log.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace espnuca {

/** Who holds a block's owner token. */
enum class OwnerKind : std::uint8_t { Memory, L1, L2Bank };

/** Full-width snapshot of a block's L1 holder set (bit per L1Id). */
using L1HolderMask = InlineBitset<kMaxCores * 2>;
/** Full-width snapshot of a block's L2 copy set (bit per BankId). */
using L2CopyMask = InlineBitset<kMaxL2Banks>;

/**
 * Directory entry for one block: the 8-byte header of a directory
 * slot. The holder bits live in the same slot right behind it — one
 * packed range, the L1 holder bits then the L2 copy bits, in as many
 * words as the machine needs — so an entry only exists inside its
 * Directory and is handed out by pointer. Only the Directory can
 * create, copy or mutate one.
 */
class BlockInfo
{
  public:
    OwnerKind ownerKind() const { return ownerKind_; }
    /** SP/ESP-NUCA sharing status: false = private, true = shared. */
    bool sharedStatus() const { return sharedStatus_; }
    /** L1Id or BankId of the owner when ownerKind() is not Memory. */
    std::uint32_t ownerIndex() const { return ownerIndex_; }

    /** The single accessor while the block is private. */
    CoreId
    firstAccessor() const
    {
        return firstAccessor_ == kNoAccessor ? kInvalidCore
                                             : firstAccessor_;
    }

    /** True when any L1 or L2 bank holds the block (one scan of the
     *  whole holder range). */
    bool onChip() const { return countIn(0, endBit()) != 0; }
    bool anyL1Holder() const { return countIn(0, l1Count_) != 0; }
    bool anyL2Copy() const { return countIn(l1Count_, endBit()) != 0; }

    bool hasL1Holder(L1Id id) const { return testBit(l1Bit(id)); }
    bool hasL2Copy(BankId b) const { return testBit(l2Bit(b)); }

    std::uint32_t numL1Holders() const { return countIn(0, l1Count_); }
    std::uint32_t
    numL2Copies() const
    {
        return countIn(l1Count_, endBit());
    }

    /** Full-width copy of the L1 holder set (zero beyond the machine):
     *  the sweeps walk it while their drops mutate the live entry. */
    L1HolderMask
    l1Holders() const
    {
        return extract<L1HolderMask>(0, l1Count_);
    }
    /** Full-width copy of the L2 copy set. */
    L2CopyMask
    l2Copies() const
    {
        return extract<L2CopyMask>(l1Count_, endBit());
    }

  private:
    friend class Directory;

    /** firstAccessor_ value meaning "none yet" (kInvalidCore). */
    static constexpr std::uint16_t kNoAccessor = 0xFFFF;

    BlockInfo(std::uint8_t l1_count, std::uint8_t words)
        : l1Count_(l1_count), words_(words)
    {
    }
    BlockInfo(const BlockInfo &) = default;
    BlockInfo &operator=(const BlockInfo &) = default;

    const std::uint64_t *
    bits() const
    {
        return reinterpret_cast<const std::uint64_t *>(this + 1);
    }
    std::uint64_t *
    bits()
    {
        return reinterpret_cast<std::uint64_t *>(this + 1);
    }

    /** One past the last bit of the holder range. Bits past
     *  l1Count + l2Banks are never set, so a scan may run to here. */
    std::uint32_t endBit() const { return words_ * 64u; }

    /** Range bit of L1 `id` / bank `b`. */
    std::uint32_t
    l1Bit(L1Id id) const
    {
        ESP_ASSERT(id < l1Count_, "L1 id beyond the machine");
        return id;
    }
    std::uint32_t
    l2Bit(BankId b) const
    {
        ESP_ASSERT(l1Count_ + b < endBit(), "bank beyond the directory slot");
        return l1Count_ + b;
    }

    void setL1(L1Id id) { setBit(l1Bit(id), true); }
    void clearL1(L1Id id) { setBit(l1Bit(id), false); }
    void setL2(BankId b) { setBit(l2Bit(b), true); }
    void clearL2(BankId b) { setBit(l2Bit(b), false); }

    void
    setOwner(OwnerKind kind, std::uint32_t index)
    {
        ESP_ASSERT(index <= 0xFFFF, "owner index beyond the entry field");
        ownerKind_ = kind;
        ownerIndex_ = static_cast<std::uint16_t>(index);
    }

    void
    setFirstAccessor(CoreId c)
    {
        ESP_ASSERT(c == kInvalidCore || c < kNoAccessor,
                   "core id beyond the entry field");
        firstAccessor_ = c == kInvalidCore ? kNoAccessor
                                           : static_cast<std::uint16_t>(c);
    }

    bool
    testBit(std::uint32_t i) const
    {
        return (bits()[i / 64] >> (i % 64)) & 1u;
    }

    void
    setBit(std::uint32_t i, bool on)
    {
        std::uint64_t &w = bits()[i / 64];
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        w = on ? (w | bit) : (w & ~bit);
    }

    /** Word k of the holder range with only bits [lo, hi) kept; k must
     *  overlap the span. */
    std::uint64_t
    wordIn(std::uint32_t k, std::uint32_t lo, std::uint32_t hi) const
    {
        const std::uint32_t base = k * 64;
        std::uint64_t w = bits()[k];
        if (lo > base)
            w &= ~std::uint64_t{0} << (lo - base);
        if (hi < base + 64)
            w &= (std::uint64_t{1} << (hi - base)) - 1;
        return w;
    }

    std::uint32_t
    countIn(std::uint32_t lo, std::uint32_t hi) const
    {
        std::uint32_t c = 0;
        for (std::uint32_t k = lo / 64; k * 64 < hi; ++k)
            c += static_cast<std::uint32_t>(
                __builtin_popcountll(wordIn(k, lo, hi)));
        return c;
    }

    /** Bits [lo, hi) shifted down to bit 0 of a full-width mask. */
    template <typename Mask>
    Mask
    extract(std::uint32_t lo, std::uint32_t hi) const
    {
        Mask m;
        for (std::uint32_t j = 0; j < Mask::kWords && lo + j * 64 < hi;
             ++j) {
            const std::uint32_t pos = lo + j * 64;
            const std::uint32_t k = pos / 64;
            const std::uint32_t sh = pos % 64;
            std::uint64_t v = bits()[k] >> sh;
            if (sh != 0 && k + 1 < words_)
                v |= bits()[k + 1] << (64 - sh);
            if (hi - pos < 64)
                v &= (std::uint64_t{1} << (hi - pos)) - 1;
            m.setWord(j, v);
        }
        return m;
    }

    OwnerKind ownerKind_ = OwnerKind::Memory;
    bool sharedStatus_ = false;
    std::uint8_t l1Count_; //!< L1 holder bits; L2 bank b is bit l1Count_+b
    std::uint8_t words_;   //!< holder words behind the header
    std::uint16_t ownerIndex_ = 0;
    std::uint16_t firstAccessor_ = kNoAccessor;
};

static_assert(sizeof(BlockInfo) == sizeof(std::uint64_t),
              "the entry header is one slot word");
static_assert(kMaxCores * 2 <= 0xFF,
              "the L1 count must fit its 8-bit header field");
static_assert(kMaxCores * 2 <= 0xFFFF && kMaxL2Banks <= 0xFFFF,
              "owner and core ids must fit the 16-bit header fields");

/**
 * The directory proper. All mutations funnel through here so the holder
 * sets stay consistent with the cache arrays (cross-checked in tests).
 */
class Directory
{
  public:
    /** Number of sub-tables; the top kSubTableBits hash bits pick one. */
    static constexpr unsigned kSubTableBits = 6;
    static constexpr std::size_t kSubTables = std::size_t{1}
                                              << kSubTableBits;
    /** Initial (and post-load) capacity of each sub-table, in slots. */
    static constexpr std::size_t kMinSlots = 16;

    /** Sub-table that holds block a. */
    static std::size_t
    subTableOf(Addr a)
    {
        return static_cast<std::size_t>(mixHash64(a) >>
                                        (64 - kSubTableBits));
    }

    /** Home slot of block a in a sub-table of `slots` slots (a power of
     *  two): the low hash bits, disjoint from the sub-table bits. */
    static std::size_t
    homeSlot(Addr a, std::size_t slots)
    {
        return static_cast<std::size_t>(mixHash64(a)) & (slots - 1);
    }

    explicit Directory(const SystemConfig &cfg)
        : cfg_(cfg), l1Count_(static_cast<std::uint8_t>(cfg.l1Count())),
          words_(static_cast<std::uint8_t>(
              (cfg.l1Count() + cfg.l2Banks + 63) / 64)),
          stride_(2 + words_)
    {
        for (SubTable &t : tables_)
            resetTable(t, kMinSlots);
    }

    /** Bytes per table slot: key word, header and holder words. */
    std::size_t slotBytes() const { return stride_ * sizeof(std::uint64_t); }

    /** Capacity of sub-table t in slots (tests). */
    std::size_t subTableSlots(std::size_t t) const
    {
        return tables_[t].mask + 1;
    }

    /** Hint: pull a's home slot into cache ahead of a find/entry known
     * to follow shortly (e.g. the noteAccess of a just-issued access). */
    void
    prefetch(Addr a) const
    {
        const SubTable &t = tableOf(a);
        __builtin_prefetch(slotAt(t, homeSlot(a, t.mask + 1)));
    }

    /** Look up without creating; nullptr when the block is off chip. */
    const BlockInfo *
    find(Addr a) const
    {
        const SubTable &t = tableOf(a);
        const std::uint64_t *s = slotAt(t, probe(t, a));
        return s[0] == kInvalidAddr ? nullptr : headerOf(s);
    }

    /** True when any on-chip structure holds the block. */
    bool
    onChip(Addr a) const
    {
        const BlockInfo *e = find(a);
        return e != nullptr && e->onChip();
    }

    /**
     * Record the demand access of core c: establishes the first accessor
     * and performs the SP-NUCA privatization transition. A block whose
     * copies all left the chip starts over as private (paper 2.1). Its
     * entry is usually forgotten by then (a fresh entry is private); an
     * entry still here, because no forget pass ran since the last copy
     * left, is reset here. The status survives pure on-chip moves (e.g.
     * a displaced private block becoming a victim), since no access
     * intervenes in their zero-copy window.
     * @return true when this access flips the block private -> shared.
     */
    bool
    noteAccess(Addr a, CoreId c)
    {
        BlockInfo &e = entry(a);
        if (!e.onChip() && e.firstAccessor() != kInvalidCore) {
            e.setFirstAccessor(kInvalidCore);
            e.sharedStatus_ = false;
        }
        if (e.firstAccessor() == kInvalidCore) {
            e.setFirstAccessor(c);
            return false;
        }
        if (!e.sharedStatus_ && e.firstAccessor() != c) {
            e.sharedStatus_ = true;
            return true;
        }
        return false;
    }

    // -- L1 holder management -----------------------------------------

    void
    addL1(Addr a, L1Id id, bool owner)
    {
        BlockInfo &e = entry(a);
        e.setL1(id);
        if (owner)
            e.setOwner(OwnerKind::L1, id);
    }

    /** Remove an L1 holder; owner token falls back to memory for now
     *  (callers re-assign it when the data lands in an L2 bank). When
     *  this was the last copy the entry stays but is queued for the
     *  next forgetOffChip(): L1 -> L2 moves, victim creation and
     *  migrations pass through zero-copy windows and read the status
     *  mid-handler, after this call. */
    void
    removeL1(Addr a, L1Id id)
    {
        BlockInfo &e = entry(a);
        ESP_ASSERT(e.hasL1Holder(id), "removing a non-holder L1");
        e.clearL1(id);
        if (e.ownerKind_ == OwnerKind::L1 && e.ownerIndex_ == id)
            e.setOwner(OwnerKind::Memory, 0);
        if (!e.onChip())
            forgettable_.push_back(a);
    }

    // -- L2 copy management --------------------------------------------

    void
    addL2(Addr a, BankId b, bool owner)
    {
        BlockInfo &e = entry(a);
        ESP_ASSERT(!e.hasL2Copy(b), "bank already holds a copy");
        e.setL2(b);
        if (owner)
            e.setOwner(OwnerKind::L2Bank, b);
    }

    /** Remove an L2 copy (same owner fallback and last-copy queueing
     *  as removeL1). */
    void
    removeL2(Addr a, BankId b)
    {
        BlockInfo &e = entry(a);
        ESP_ASSERT(e.hasL2Copy(b), "removing a non-copy bank");
        e.clearL2(b);
        if (e.ownerKind_ == OwnerKind::L2Bank && e.ownerIndex_ == b)
            e.setOwner(OwnerKind::Memory, 0);
        if (!e.onChip())
            forgettable_.push_back(a);
    }

    // -- Forgetting off-chip blocks -------------------------------------

    /**
     * Erase every queued entry whose block is still off chip and for
     * which locked(a) is false. A locked block keeps its entry, and its
     * place in the queue, until a pass finds it unlocked: its in-flight
     * transaction's first accessor must survive until the fill lands.
     * A block back on chip leaves the queue. Erasing invalidates
     * BlockInfo pointers, so callers run this only between handlers.
     */
    template <typename Locked>
    void
    forgetOffChip(Locked &&locked)
    {
        std::size_t kept = 0;
        for (const Addr a : forgettable_) {
            SubTable &t = tableOf(a);
            const std::size_t i = probe(t, a);
            const std::uint64_t *s = slotAt(t, i);
            if (s[0] != a || headerOf(s)->onChip())
                continue;
            if (locked(a))
                forgettable_[kept++] = a;
            else
                eraseSlot(t, i);
        }
        forgettable_.resize(kept);
    }

    /** Explicitly hand the owner token to a holder. */
    void
    setOwner(Addr a, OwnerKind kind, std::uint32_t index)
    {
        BlockInfo &e = entry(a);
        if (kind == OwnerKind::L1)
            ESP_ASSERT(e.hasL1Holder(index), "owner must hold the block");
        if (kind == OwnerKind::L2Bank)
            ESP_ASSERT(e.hasL2Copy(index), "owner bank must hold a copy");
        e.setOwner(kind, index);
    }

    /**
     * Token count of a holder under the redistribution rule (tests and
     * diagnostics; conservation is structural).
     */
    std::uint32_t
    tokensOf(Addr a, OwnerKind kind, std::uint32_t index) const
    {
        const BlockInfo *e = find(a);
        const std::uint32_t total = cfg_.totalTokens();
        if (!e)
            return kind == OwnerKind::Memory ? total : 0;
        const std::uint32_t holders = e->numL1Holders() + e->numL2Copies();
        const bool is_holder =
            (kind == OwnerKind::L1 && e->hasL1Holder(index)) ||
            (kind == OwnerKind::L2Bank && e->hasL2Copy(index));
        const bool is_owner =
            e->ownerKind() == kind &&
            (kind == OwnerKind::Memory || e->ownerIndex() == index);
        if (is_owner) {
            const std::uint32_t others = holders - (is_holder ? 1 : 0);
            return total - others;
        }
        return is_holder ? 1 : 0;
    }

    /** Number of blocks currently resident somewhere on chip. */
    std::size_t
    population() const
    {
        std::size_t n = 0;
        forEach([&](Addr, const BlockInfo &e) { n += e.onChip(); });
        return n;
    }

    /** Internal consistency of one entry (used by property tests). */
    bool
    consistent(Addr a) const
    {
        const BlockInfo *e = find(a);
        if (!e)
            return true;
        if (e->ownerKind() == OwnerKind::L1 &&
            !e->hasL1Holder(e->ownerIndex())) {
            return false;
        }
        if (e->ownerKind() == OwnerKind::L2Bank &&
            !e->hasL2Copy(e->ownerIndex())) {
            return false;
        }
        if (e->firstAccessor() == kInvalidCore && e->sharedStatus())
            return false;
        return true;
    }

    /** Tracked blocks: every on-chip block, plus off-chip ones that are
     *  locked or not yet forgotten. Equals population() after a
     *  forgetOffChip() that found no queued block locked. */
    std::size_t size() const { return size_; }

    /** Visit every tracked block in table order (sub-table by
     *  sub-table) as fn(Addr, const BlockInfo &); the order is
     *  deterministic for a given access history. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const SubTable &t : tables_) {
            for (std::size_t i = 0; i <= t.mask; ++i) {
                const std::uint64_t *s = slotAt(t, i);
                if (s[0] != kInvalidAddr)
                    fn(static_cast<Addr>(s[0]), *headerOf(s));
            }
        }
    }

    // -- Snapshot/restore ----------------------------------------------

    /**
     * Every entry is serialized. Holder masks are written zero-extended
     * to the 64-core/256-bank caps, so the record does not depend on
     * the slot width or the packing. A drained System has forgotten its
     * off-chip entries before it saves; load() drops any off-chip
     * record all the same, since a snapshot holds no lock and such a
     * record holds nothing a later access reads. Bucket layout is not preserved
     * (lookups are exact-key; nothing iterates the table during
     * simulation).
     */
    void
    save(SnapshotWriter &w) const
    {
        w.u64(size_);
        forEach([&](Addr a, const BlockInfo &e) {
            w.u64(a);
            const L1HolderMask l1 = e.l1Holders();
            for (std::uint32_t k = 0; k < L1HolderMask::kWords; ++k)
                w.u64(l1.word(k));
            const L2CopyMask l2 = e.l2Copies();
            for (std::uint32_t k = 0; k < L2CopyMask::kWords; ++k)
                w.u64(l2.word(k));
            w.u8(static_cast<std::uint8_t>(e.ownerKind_));
            w.u32(e.ownerIndex_);
            w.b(e.sharedStatus_);
            w.u32(e.firstAccessor());
        });
    }

    void
    load(SnapshotReader &r)
    {
        for (SubTable &t : tables_)
            resetTable(t, kMinSlots);
        size_ = 0;
        forgettable_.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr a = r.u64();
            const auto l1 = readMask<L1HolderMask>(r);
            const auto l2 = readMask<L2CopyMask>(r);
            const auto kind = static_cast<OwnerKind>(r.u8());
            const std::uint32_t index = r.u32();
            if (index > 0xFFFF)
                throw SnapshotError("directory owner index out of range");
            const bool shared = r.b();
            const auto first = static_cast<CoreId>(r.u32());
            if (first != kInvalidCore && first >= BlockInfo::kNoAccessor)
                throw SnapshotError("directory first accessor out of range");
            if (l1.none() && l2.none())
                continue; // off chip: nothing a later access reads
            if (a == kInvalidAddr)
                throw SnapshotError("directory record with the empty key");
            // A bit past the machine would alias the next range's bits.
            checkWidth(l1, cfg_.l1Count());
            checkWidth(l2, cfg_.l2Banks);
            BlockInfo &e = entry(a);
            l1.forEachSet([&](std::uint32_t id) { e.setL1(id); });
            l2.forEachSet([&](std::uint32_t b) { e.setL2(b); });
            e.setOwner(kind, index);
            e.sharedStatus_ = shared;
            e.setFirstAccessor(first);
        }
    }

  private:
    /**
     * One open-addressing sub-table. Slot i is the stride_ words at
     * words[i * stride_]; a kInvalidAddr key marks it empty.
     */
    struct SubTable
    {
        std::vector<std::uint64_t> words;
        std::size_t mask = 0; //!< slots - 1 (slots is a power of two)
        std::size_t size = 0; //!< live entries
    };

    const SubTable &tableOf(Addr a) const { return tables_[subTableOf(a)]; }
    SubTable &tableOf(Addr a) { return tables_[subTableOf(a)]; }

    const std::uint64_t *
    slotAt(const SubTable &t, std::size_t i) const
    {
        return &t.words[i * stride_];
    }
    std::uint64_t *
    slotAt(SubTable &t, std::size_t i)
    {
        return &t.words[i * stride_];
    }

    static const BlockInfo *
    headerOf(const std::uint64_t *s)
    {
        return std::launder(reinterpret_cast<const BlockInfo *>(s + 1));
    }
    static BlockInfo *
    headerOf(std::uint64_t *s)
    {
        return std::launder(reinterpret_cast<BlockInfo *>(s + 1));
    }

    /** Slot of t holding a, or the empty slot ending its probe chain
     *  (the sub-table always has one: its load stays under 5/8). */
    std::size_t
    probe(const SubTable &t, Addr a) const
    {
        std::size_t i = homeSlot(a, t.mask + 1);
        while (true) {
            const std::uint64_t k = slotAt(t, i)[0];
            if (k == a || k == kInvalidAddr)
                return i;
            i = (i + 1) & t.mask;
        }
    }

    /** Look up or create (fresh blocks are private, memory-owned). */
    BlockInfo &
    entry(Addr a)
    {
        ESP_ASSERT(a != kInvalidAddr, "the empty-slot key is not a block");
        SubTable &t = tableOf(a);
        std::uint64_t *s = slotAt(t, probe(t, a));
        if (s[0] == a)
            return *headerOf(s);
        // Claim the empty slot. Its other words are already zero: the
        // sub-table is zero-filled when built and eraseSlot re-zeroes.
        s[0] = a;
        new (s + 1) BlockInfo(l1Count_, words_);
        ++t.size;
        ++size_;
        // Grow past load 5/8: plain linear probing (no tombstones, no
        // robin-hood reordering) keeps clusters short only while the
        // sub-table stays comfortably under ~2/3 full.
        if (t.size * 8 > (t.mask + 1) * 5) {
            rehash(t, (t.mask + 1) * 2);
            s = slotAt(t, probe(t, a));
        }
        return *headerOf(s);
    }

    /** Empty t to `slots` slots: every key kInvalidAddr, every other
     *  word zero. */
    void
    resetTable(SubTable &t, std::size_t slots)
    {
        t.words.assign(slots * stride_, 0);
        t.mask = slots - 1;
        t.size = 0;
        for (std::size_t i = 0; i < slots; ++i)
            slotAt(t, i)[0] = kInvalidAddr;
    }

    /** Backward-shift deletion (Knuth 6.4 R, as FlatMap::eraseAt):
     *  vacate slot i of t, then slide back every later entry of its
     *  cluster whose probe chain still reaches the hole. The slot left
     *  empty is re-zeroed for entry(). */
    void
    eraseSlot(SubTable &t, std::size_t i)
    {
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & t.mask;
             slotAt(t, j)[0] != kInvalidAddr; j = (j + 1) & t.mask) {
            const std::size_t home = homeSlot(slotAt(t, j)[0], t.mask + 1);
            if (((j - home) & t.mask) >= ((j - hole) & t.mask)) {
                std::memcpy(slotAt(t, hole), slotAt(t, j), slotBytes());
                hole = j;
            }
        }
        std::uint64_t *s = slotAt(t, hole);
        std::fill(s + 1, s + stride_, 0);
        s[0] = kInvalidAddr;
        --t.size;
        --size_;
    }

    /** Re-place every entry of t, in old slot order, into `slots`
     *  slots. Only t is briefly held twice. */
    void
    rehash(SubTable &t, std::size_t slots)
    {
        const std::vector<std::uint64_t> old = std::move(t.words);
        const std::size_t live = t.size;
        resetTable(t, slots);
        for (std::size_t j = 0; j < old.size(); j += stride_) {
            if (old[j] != kInvalidAddr)
                std::memcpy(slotAt(t, probe(t, old[j])), &old[j],
                            slotBytes());
        }
        t.size = live;
    }

    /** Read one zero-extended snapshot mask. */
    template <typename Mask>
    static Mask
    readMask(SnapshotReader &r)
    {
        Mask m;
        for (std::uint32_t k = 0; k < Mask::kWords; ++k)
            m.setWord(k, r.u64());
        return m;
    }

    /** Reject a snapshot mask with a bit at or past `limit`. */
    template <typename Mask>
    static void
    checkWidth(const Mask &m, std::uint32_t limit)
    {
        m.forEachSet([&](std::uint32_t i) {
            if (i >= limit)
                throw SnapshotError("directory entry wider than the machine");
        });
    }

    SystemConfig cfg_;
    std::uint8_t l1Count_; //!< L1 holder bits at the front of the range
    std::uint8_t words_;   //!< ⌈(l1Count + l2Banks)/64⌉ holder words
    std::size_t stride_;   //!< words per slot
    /**
     * Open-addressing sub-tables: the directory is probed on every L2
     * search step and every fill, so the lookup must be one mixed hash
     * and (almost always) one cache line rather than a node chase.
     */
    std::array<SubTable, kSubTables> tables_;
    std::size_t size_ = 0; //!< live entries over all sub-tables
    /** Blocks whose last copy left since the last forgetOffChip(),
     *  plus the locked ones that pass kept (may repeat). */
    std::vector<Addr> forgettable_;
};

} // namespace espnuca

#endif // ESPNUCA_COHERENCE_DIRECTORY_HPP_
