/**
 * @file
 * Chunked object slab with an embedded freelist.
 *
 * The protocol creates and destroys one Transaction per L2 miss —
 * tens of millions per run — and std::make_unique puts each on the
 * global allocator. A Slab hands out objects from fixed-size chunks
 * and recycles released slots through a freelist, so steady-state
 * acquire/release never calls malloc and the object's cache lines
 * stay warm (the same few slots serve the whole run once the
 * in-flight high-water mark is reached).
 *
 * Lifetime rules (see DESIGN.md "Event kernel"):
 *  - acquire() placement-constructs and returns a stable pointer;
 *    chunks are never moved or freed while the slab lives, so the
 *    pointer may be captured by in-flight events.
 *  - release() destroys the object; the slot may be handed out again
 *    by the very next acquire(). Callers must not touch a released
 *    pointer — the protocol guarantees this by erasing the id from
 *    its live map first and routing every late continuation through
 *    that map.
 */

#ifndef ESPNUCA_COMMON_SLAB_HPP_
#define ESPNUCA_COMMON_SLAB_HPP_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace espnuca {

template <typename T, std::size_t ChunkSize = 256>
class Slab
{
  public:
    Slab() = default;
    Slab(const Slab &) = delete;
    Slab &operator=(const Slab &) = delete;

    ~Slab()
    {
        // Released slots sit on the freelist; anything else is a leak
        // of the caller's (the drain checks catch it upstream), but we
        // must not double-destroy, so only raw storage is freed here.
    }

    /** Construct a T in a recycled (or fresh) slot. */
    template <typename... A>
    T *
    acquire(A &&...args)
    {
        if (free_.empty())
            grow();
        void *slot = free_.back();
        free_.pop_back();
        ++inUse_;
        return ::new (slot) T(std::forward<A>(args)...);
    }

    /** Destroy the object and recycle its slot. */
    void
    release(T *p)
    {
        p->~T();
        --inUse_;
        free_.push_back(p);
    }

    /** Objects currently live (diagnostics and leak checks). */
    std::size_t live() const { return inUse_; }

    /** Total slots ever allocated across all chunks. */
    std::size_t slots() const { return chunks_.size() * ChunkSize; }

  private:
    struct alignas(alignof(T)) Storage
    {
        std::byte bytes[sizeof(T)];
    };

    void
    grow()
    {
        chunks_.push_back(std::make_unique<Storage[]>(ChunkSize));
        Storage *base = chunks_.back().get();
        // Push in reverse so the first acquire takes the lowest slot —
        // purely cosmetic, but it makes slab behaviour reproducible.
        for (std::size_t i = ChunkSize; i-- > 0;)
            free_.push_back(base + i);
    }

    std::vector<std::unique_ptr<Storage[]>> chunks_;
    std::vector<void *> free_;
    std::size_t inUse_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_COMMON_SLAB_HPP_
