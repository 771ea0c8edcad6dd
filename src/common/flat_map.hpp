/**
 * @file
 * Open-addressing hash map with linear probing and backward-shift
 * deletion.
 *
 * The coherence engine keys MSHRs, live transactions and block locks
 * by address or id; std::unordered_map pays one heap
 * node per entry plus a pointer chase per lookup. FlatMap keeps
 * key/value pairs in one contiguous power-of-two table, so a lookup is
 * a mixed hash, a masked index and (almost always) a single cache
 * line.
 *
 * Deletion uses backward shifting instead of tombstones: the rest of
 * the erased slot's cluster is walked and every entry whose home lies
 * cyclically at or before the hole slides back into it (Knuth 6.4,
 * Algorithm R). Probe chains therefore stay
 * as short as a fresh rehash would make them, the table never
 * accumulates dead slots under churn (the MSHR pattern — insert on
 * miss, erase on fill, repeat forever), and rehashing happens only on
 * genuine growth.
 *
 * Semantics intentionally mirror the std::unordered_map subset the
 * simulator uses: operator[], find, erase(key) and erase(iterator),
 * size, clear, range-for iteration over live entries. Differences:
 *  - iterators are invalidated by any insert (possible rehash) AND by
 *    any erase (backward shift moves entries);
 *  - iteration order is table order (deterministic for a given
 *    insert/erase history, which is all the simulator needs — each
 *    run owns its map and replays the same history);
 *  - keys and values must be default-constructible and movable (slots
 *    are reset in place when vacated so they hold no resources).
 *
 * The raw hash is passed through a 64-bit finalizer (splitmix64) so
 * identity hashes — std::hash on block-aligned addresses, say — still
 * spread over the low bits the mask keeps.
 */

#ifndef ESPNUCA_COMMON_FLAT_MAP_HPP_
#define ESPNUCA_COMMON_FLAT_MAP_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace espnuca {

/** splitmix64 finalizer: full-avalanche mix of a 64-bit value. */
inline std::uint64_t
mixHash64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap
{
    struct Slot
    {
        // The occupancy flag leads: a probe reads `full` and then the
        // key, and with a large V a trailing flag would drag the
        // slot's far cache line into every probe, hit or miss.
        bool full = false;
        std::pair<K, V> kv{};
    };

  public:
    using value_type = std::pair<K, V>;

    template <bool Const>
    class Iter
    {
        using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
        using Ref = std::conditional_t<Const, const value_type &,
                                       value_type &>;
        using Ptr = std::conditional_t<Const, const value_type *,
                                       value_type *>;

      public:
        Iter() = default;
        Iter(Map *m, std::size_t i) : m_(m), i_(i) { skip(); }

        Ref operator*() const { return m_->slots_[i_].kv; }
        Ptr operator->() const { return &m_->slots_[i_].kv; }

        Iter &
        operator++()
        {
            ++i_;
            skip();
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return i_ == o.i_;
        }
        bool
        operator!=(const Iter &o) const
        {
            return i_ != o.i_;
        }

        /** Conversion iterator -> const_iterator. */
        operator Iter<true>() const { return Iter<true>(m_, i_); }

      private:
        friend class FlatMap;
        friend class Iter<true>;

        void
        skip()
        {
            while (i_ < m_->slots_.size() && !m_->slots_[i_].full)
                ++i_;
        }

        Map *m_ = nullptr;
        std::size_t i_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, slots_.size()); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, slots_.size()); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Current table capacity (diagnostics and load tests). */
    std::size_t capacity() const { return slots_.size(); }

    void
    clear()
    {
        slots_.clear();
        size_ = 0;
    }

    /** Pre-size the table for at least n live entries. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = 16;
        while (want * 5 < n * 8) // keep load <= 5/8
            want <<= 1;
        if (want > slots_.size())
            rehash(want);
    }

    iterator
    find(const K &k)
    {
        const std::size_t i = findIndex(k);
        return i == kNotFound ? end() : iterator(this, i);
    }

    const_iterator
    find(const K &k) const
    {
        const std::size_t i = findIndex(k);
        return i == kNotFound ? end() : const_iterator(this, i);
    }

    bool contains(const K &k) const { return findIndex(k) != kNotFound; }

    /**
     * Hint the hardware to pull k's home slot into cache ahead of a
     * find/operator[] known to follow shortly. Pure performance hint —
     * no observable effect on the table.
     */
    void
    prefetch(const K &k) const
    {
        if (!slots_.empty())
            __builtin_prefetch(&slots_[homeOf(k)]);
    }

    V &
    operator[](const K &k)
    {
        return slots_[insertIndex(k)].kv.second;
    }

    /** Insert-or-assign; @return true when the key was new. */
    bool
    insert(const K &k, V v)
    {
        const std::size_t before = size_;
        slots_[insertIndex(k)].kv.second = std::move(v);
        return size_ != before;
    }

    /** @return true when the key was present. */
    bool
    erase(const K &k)
    {
        const std::size_t i = findIndex(k);
        if (i == kNotFound)
            return false;
        eraseAt(i);
        return true;
    }

    void
    erase(const_iterator it)
    {
        ESP_ASSERT(it.i_ < slots_.size() && slots_[it.i_].full,
                   "erasing an invalid iterator");
        eraseAt(it.i_);
    }

  private:
    static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    hashOf(const K &k) const
    {
        return static_cast<std::size_t>(
            mixHash64(static_cast<std::uint64_t>(Hash{}(k))));
    }

    /** Home slot of a key in the current table. */
    std::size_t homeOf(const K &k) const { return hashOf(k) & mask(); }

    std::size_t
    findIndex(const K &k) const
    {
        if (slots_.empty())
            return kNotFound;
        std::size_t i = homeOf(k);
        while (true) {
            const Slot &s = slots_[i];
            if (!s.full)
                return kNotFound;
            if (s.kv.first == k)
                return i;
            i = (i + 1) & mask();
        }
    }

    /** Find k or claim the first empty slot of its probe chain. */
    std::size_t
    insertIndex(const K &k)
    {
        if (slots_.empty())
            rehash(16);
        std::size_t i = homeOf(k);
        while (slots_[i].full) {
            if (slots_[i].kv.first == k)
                return i;
            i = (i + 1) & mask();
        }
        slots_[i].full = true;
        slots_[i].kv.first = k;
        ++size_;
        // Grow past load 5/8: plain linear probing (no tombstones,
        // no robin-hood reordering) keeps clusters short only while
        // the table stays comfortably under ~2/3 full.
        if (size_ * 8 > slots_.size() * 5) {
            rehash(slots_.size() * 2);
            return findIndex(k);
        }
        return i;
    }

    /**
     * Backward-shift deletion (Knuth 6.4 R): vacate slot i, then walk
     * the rest of the cluster; any entry whose home lies cyclically at
     * or before the hole is slid back into it (the hole then moves to
     * that entry's old slot). Entries already between their home and
     * the hole stay put. Keeps every probe chain gap-free without
     * tombstones.
     */
    void
    eraseAt(std::size_t i)
    {
        std::size_t hole = i;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask();
            Slot &n = slots_[j];
            if (!n.full)
                break;
            const std::size_t home = homeOf(n.kv.first);
            // n may fill the hole iff hole is cyclically within
            // [home, j): its probe chain then still reaches it.
            if (((j - home) & mask()) >= ((j - hole) & mask())) {
                slots_[hole].kv = std::move(n.kv);
                hole = j;
            }
        }
        slots_[hole].kv = value_type{}; // release resources now
        slots_[hole].full = false;
        --size_;
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.clear();
        slots_.resize(new_cap); // default-inserted: no Slot copies
        for (Slot &s : old) {
            if (!s.full)
                continue;
            std::size_t i = homeOf(s.kv.first);
            while (slots_[i].full)
                i = (i + 1) & mask();
            slots_[i].kv = std::move(s.kv);
            slots_[i].full = true;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0; //!< live entries
};

} // namespace espnuca

#endif // ESPNUCA_COMMON_FLAT_MAP_HPP_
