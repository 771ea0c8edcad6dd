/**
 * @file
 * Replacement-policy strategy objects for L2 banks.
 *
 * - FlatLru: plain true LRU; the private bit only affects tag matching
 *   (SP-NUCA's cost-effective choice, paper 2.2, and the "ESP-NUCA with
 *   flat LRU" variant of Figure 5).
 * - StaticPartitionLru: statically reserves a fixed number of ways for
 *   private blocks (the 12/4 comparison point of Figure 4, after [23]).
 * - ProtectedLru: the ESP-NUCA policy (paper 3.2); helping blocks per set
 *   are capped by the bank's nmax, reference sets refuse helping blocks,
 *   explorer sets allow nmax + 1.
 * - ShadowTagPolicy: utility-driven dynamic partitioning with 8 shadow
 *   (ghost) tags per set (the costlier comparator of Figure 4, after
 *   [19, 8]).
 */

#ifndef ESPNUCA_CACHE_REPLACEMENT_HPP_
#define ESPNUCA_CACHE_REPLACEMENT_HPP_

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/cache_set.hpp"
#include "common/log.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

/** Role of a set in the bank's hit-rate sampling (paper 3.2). */
enum class SetCategory : std::uint8_t {
    Conventional,        //!< accepts up to nmax helping blocks
    SampledConventional, //!< conventional, but feeds the HRC estimator
    Reference,           //!< refuses all helping blocks; feeds HRR
    Explorer,            //!< accepts nmax + 1 helping blocks; feeds HRE
};

/** Context a policy needs beyond the set contents. */
struct ReplacementContext
{
    SetCategory category = SetCategory::Conventional;
    std::uint32_t nmax = 0;     //!< bank-level helping-block limit
    std::uint32_t setIndex = 0; //!< for policies with per-set state
};

/**
 * Victim selection strategy. `chooseWay` returns the way the incoming
 * block should occupy (possibly an invalid way) or kNoWay to refuse the
 * insertion (e.g., helping block at a reference set).
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Pick the fill way for an incoming block of class `incoming`. */
    virtual int chooseWay(const CacheSet &set, BlockClass incoming,
                          const ReplacementContext &ctx) const = 0;

    /**
     * Does the policy consume the per-access demand stream? Only
     * utility-learning policies (shadow tags) do; when false the bank
     * skips the classification lookup and the virtual onDemandAccess
     * call on every probe, which is the common case on the hot path.
     */
    virtual bool wantsDemandStream() const { return false; }

    /** Observe a demand access (for utility-learning policies). */
    virtual void
    onDemandAccess(std::uint32_t set_index, Addr addr, BlockClass cls,
                   bool hit)
    {
        (void)set_index;
        (void)addr;
        (void)cls;
        (void)hit;
    }

    /** Observe an eviction (for ghost-tag bookkeeping). */
    virtual void
    onEvict(std::uint32_t set_index, const BlockMeta &evicted)
    {
        (void)set_index;
        (void)evicted;
    }

    /** Snapshot hook: stateless policies (the default) write nothing. */
    virtual void save(SnapshotWriter &w) const { (void)w; }
    virtual void load(SnapshotReader &r) { (void)r; }
};

/** Plain LRU over the whole set; accepts every class. */
class FlatLru : public ReplacementPolicy
{
  public:
    int
    chooseWay(const CacheSet &set, BlockClass incoming,
              const ReplacementContext &ctx) const override
    {
        (void)incoming;
        (void)ctx;
        const int inv = set.invalidWay();
        if (inv != kNoWay)
            return inv;
        return set.lruWay();
    }
};

/**
 * Static quota partition between private and shared first-class blocks
 * (e.g., 12 private / 4 shared on a 16-way bank). Helping classes are
 * folded into the quota of their side (replica -> private partition,
 * victim -> shared partition) although SP-NUCA never generates them.
 */
class StaticPartitionLru : public ReplacementPolicy
{
  public:
    StaticPartitionLru(std::uint32_t private_ways, std::uint32_t total_ways)
        : privateWays_(private_ways), totalWays_(total_ways)
    {
        ESP_ASSERT(private_ways >= 1 && private_ways < total_ways,
                   "partition must leave both sides at least one way");
    }

    int
    chooseWay(const CacheSet &set, BlockClass incoming,
              const ReplacementContext &ctx) const override
    {
        (void)ctx;
        const bool priv_side = sideOf(incoming);
        const ClassMask side_mask =
            priv_side ? kPrivateSide : static_cast<ClassMask>(
                                           kMatchAny & ~kPrivateSide);
        const std::uint32_t quota =
            priv_side ? privateWays_ : totalWays_ - privateWays_;
        if (set.countIf(side_mask) >= quota)
            return set.lruAmong(side_mask);
        const int inv = set.invalidWay();
        if (inv != kNoWay)
            return inv;
        // Under quota with a full set: the other side must be over its
        // quota, reclaim its LRU way.
        return set.lruAmong(
            static_cast<ClassMask>(kMatchAny & ~side_mask));
    }

  private:
    /** Private-partition classes (replica folds into the private side). */
    static constexpr ClassMask kPrivateSide =
        kMatchPrivate | kMatchReplica;

    static bool
    sideOf(BlockClass c)
    {
        return c == BlockClass::Private || c == BlockClass::Replica;
    }

    std::uint32_t privateWays_;
    std::uint32_t totalWays_;
};

/**
 * The ESP-NUCA protected LRU (paper 3.2). Let `n` be the set's helping
 * block count and `limit` the category-adjusted cap (0 for reference
 * sets, nmax for conventional, nmax + 1 for explorer sets):
 *
 * - an incoming helping block is refused when limit == 0;
 * - whenever n >= limit (and helping blocks exist), the LRU block among
 *   the helping blocks is replaced;
 * - otherwise the LRU block of the whole set is replaced (invalid ways
 *   first).
 */
class ProtectedLru : public ReplacementPolicy
{
  public:
    int
    chooseWay(const CacheSet &set, BlockClass incoming,
              const ReplacementContext &ctx) const override
    {
        ESP_PROF_SCOPE("policy.choose");
        const std::uint32_t limit = limitFor(ctx);
        const std::uint32_t n = set.helpingCount();
        if (isHelping(incoming)) {
            if (limit == 0)
                return kNoWay;
            if (n >= limit)
                return set.lruAmong(kMatchHelping);
            const int inv = set.invalidWay();
            if (inv != kNoWay)
                return inv;
            return set.lruWay();
        }
        // First-class insertion.
        const int inv = set.invalidWay();
        if (inv != kNoWay)
            return inv;
        if (n >= limit && n > 0)
            return set.lruAmong(kMatchHelping);
        return set.lruWay();
    }

    /** Category-adjusted helping-block cap. */
    static std::uint32_t
    limitFor(const ReplacementContext &ctx)
    {
        switch (ctx.category) {
          case SetCategory::Reference:
            return 0;
          case SetCategory::Explorer:
            return ctx.nmax + 1;
          default:
            return ctx.nmax;
        }
    }
};

/**
 * Shadow-tag utility partitioning (the "much more accurate but also more
 * costly" comparator of Figure 4). Each set keeps 4 ghost tags per side
 * (8 shadow tags per set): recently evicted private and shared blocks. A
 * demand miss matching a ghost votes for giving that side one more way;
 * every `period` accesses to a set the per-set target is nudged toward
 * the winning side, and replacement enforces the target as a quota.
 */
class ShadowTagPolicy : public ReplacementPolicy
{
  public:
    ShadowTagPolicy(std::uint32_t num_sets, std::uint32_t total_ways,
                    std::uint32_t ghosts_per_side = 4,
                    std::uint32_t period = 32)
        : totalWays_(total_ways), ghostsPerSide_(ghosts_per_side),
          period_(period),
          state_(num_sets, SetState{total_ways / 2, {}, {}, 0, 0, 0})
    {
    }

    bool wantsDemandStream() const override { return true; }

    int
    chooseWay(const CacheSet &set, BlockClass incoming,
              const ReplacementContext &ctx) const override
    {
        const SetState &st = state_.at(ctx.setIndex);
        const bool priv_side = incoming == BlockClass::Private;
        const ClassMask side_mask =
            priv_side ? kMatchPrivate
                      : static_cast<ClassMask>(kMatchAny & ~kMatchPrivate);
        const std::uint32_t quota =
            priv_side ? st.targetPrivate : totalWays_ - st.targetPrivate;
        // The learned target is a soft partition: free capacity is
        // always usable, and the quota only decides who pays when the
        // set is full.
        const int inv = set.invalidWay();
        if (inv != kNoWay)
            return inv;
        if (set.countIf(side_mask) >= quota) {
            const int w = set.lruAmong(side_mask);
            if (w != kNoWay)
                return w;
        }
        const int other = set.lruAmong(
            static_cast<ClassMask>(kMatchAny & ~side_mask));
        return other != kNoWay ? other : set.lruWay();
    }

    void
    onDemandAccess(std::uint32_t set_index, Addr addr, BlockClass cls,
                   bool hit) override
    {
        SetState &st = state_.at(set_index);
        if (!hit) {
            auto &ghosts = cls == BlockClass::Private ? st.privateGhosts
                                                      : st.sharedGhosts;
            for (Addr g : ghosts) {
                if (g == addr) {
                    if (cls == BlockClass::Private)
                        ++st.privateUtility;
                    else
                        ++st.sharedUtility;
                    break;
                }
            }
        }
        if (++st.accesses >= period_) {
            if (st.privateUtility > st.sharedUtility &&
                st.targetPrivate < totalWays_ - 1) {
                ++st.targetPrivate;
            } else if (st.sharedUtility > st.privateUtility &&
                       st.targetPrivate > 1) {
                --st.targetPrivate;
            }
            st.accesses = 0;
            st.privateUtility = 0;
            st.sharedUtility = 0;
        }
    }

    void
    onEvict(std::uint32_t set_index, const BlockMeta &evicted) override
    {
        SetState &st = state_.at(set_index);
        auto &ghosts = evicted.cls == BlockClass::Private
                           ? st.privateGhosts
                           : st.sharedGhosts;
        ghosts.push_back(evicted.addr);
        while (ghosts.size() > ghostsPerSide_)
            ghosts.pop_front();
    }

    /** Current private-way target of a set (testing aid). */
    std::uint32_t
    targetPrivate(std::uint32_t set_index) const
    {
        return state_.at(set_index).targetPrivate;
    }

    void
    save(SnapshotWriter &w) const override
    {
        w.u64(state_.size());
        for (const SetState &st : state_) {
            w.u32(st.targetPrivate);
            w.u32(st.privateUtility);
            w.u32(st.sharedUtility);
            w.u32(st.accesses);
            auto ghosts = [&](const std::deque<Addr> &g) {
                w.u32(static_cast<std::uint32_t>(g.size()));
                for (Addr a : g)
                    w.u64(a);
            };
            ghosts(st.privateGhosts);
            ghosts(st.sharedGhosts);
        }
    }

    void
    load(SnapshotReader &r) override
    {
        if (r.u64() != state_.size())
            throw SnapshotError("shadow-tag set-count mismatch");
        for (SetState &st : state_) {
            st.targetPrivate = r.u32();
            st.privateUtility = r.u32();
            st.sharedUtility = r.u32();
            st.accesses = r.u32();
            auto ghosts = [&](std::deque<Addr> &g) {
                g.clear();
                const std::uint32_t n = r.u32();
                for (std::uint32_t i = 0; i < n; ++i)
                    g.push_back(r.u64());
            };
            ghosts(st.privateGhosts);
            ghosts(st.sharedGhosts);
        }
    }

  private:
    struct SetState
    {
        std::uint32_t targetPrivate;
        std::deque<Addr> privateGhosts;
        std::deque<Addr> sharedGhosts;
        std::uint32_t privateUtility;
        std::uint32_t sharedUtility;
        std::uint32_t accesses;
    };

    std::uint32_t totalWays_;
    std::uint32_t ghostsPerSide_;
    std::uint32_t period_;
    std::vector<SetState> state_;
};

} // namespace espnuca

#endif // ESPNUCA_CACHE_REPLACEMENT_HPP_
