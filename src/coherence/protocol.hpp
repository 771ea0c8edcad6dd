/**
 * @file
 * Transaction-level token-coherence engine (paper 2.3), structured as
 * an explicit transaction state machine (DESIGN.md 5.9).
 *
 * Every L1 miss (or write upgrade) becomes a transaction serialized at
 * a per-block ordering point (the block lock). Each transaction carries
 * a TxState and moves along the static transition table in
 * tx_state.hpp; the lifecycle stages live in one translation unit each:
 *
 *   protocol_issue.cpp    — access(), block lock, begin() dispatch
 *   protocol_search.cpp   — probe(), resolve(L2HitAt/L2MissAt),
 *                           the parallel off-chip fetch (startMemory)
 *   protocol_fill.cpp     — token collection, L1/L2 fills, writebacks
 *   protocol_complete.cpp — completion event: attribution, fill
 *                           placement, waiter wake, teardown
 *   protocol_debug.cpp    — state-aware diagnostics for the watchdog
 *
 * The L2 organization under study drives the on-chip search through
 * Protocol::probe(), and reports the outcome through the typed
 * stage-entry points resolve(tx, L2HitAt{...}) / resolve(tx,
 * L2MissAt{...}); the protocol then completes the transaction: data
 * response, token collection for writes (invalidation fan-out to every
 * holder), L1 fill and eviction handling, and service-level/latency
 * attribution for the paper's Figure 6 decomposition. Transitions are
 * audited against the table (tx_audit.hpp) in non-Release builds.
 *
 * All latencies are built from real mesh messages (with link contention)
 * plus bank and memory-controller occupancy.
 */

#ifndef ESPNUCA_COHERENCE_PROTOCOL_HPP_
#define ESPNUCA_COHERENCE_PROTOCOL_HPP_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "cache/address_map.hpp"
#include "coherence/directory.hpp"
#include "coherence/l1_cache.hpp"
#include "coherence/tx_audit.hpp"
#include "coherence/tx_state.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/flat_map.hpp"
#include "common/slab.hpp"
#include "common/types.hpp"
#include "mem/memory_controller.hpp"
#include "net/mesh.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/event_queue.hpp"
#include "stats/stats_registry.hpp"

namespace espnuca {

class L2Org;

// OpDone (completion callback: service level + end-to-end latency)
// lives in common/types.hpp — the core model issues it, we complete it.

/**
 * Typed outcome of a bank tag probe, captured while the set is at hand
 * so continuations never re-read way metadata: the way (kNoWay on
 * miss), whether the hit was on a first-class block (the paper's h
 * signal), and the hit block's class.
 */
struct ProbeResult
{
    int way = kNoWay;
    bool firstClassHit = false;              //!< hit AND first-class
    BlockClass cls = BlockClass::Private;    //!< class when way != kNoWay
};

/** One in-flight miss transaction. */
struct Transaction
{
    std::uint64_t id = 0;
    TxState state = TxState::Issued; //!< lifecycle stage (tx_state.hpp)
    CoreId core = kInvalidCore;
    AccessType type = AccessType::Load;
    Addr addr = kInvalidAddr;
    bool isWrite = false;
    bool isUpgrade = false;     //!< write hit in L1 lacking all tokens
    Cycle issueTime = 0;        //!< core issued the reference
    Cycle searchStart = 0;      //!< request left the L1
    NodeId reqNode = 0;

    // Search outcome (set by l2Hit / l2Miss).
    bool servedByL2 = false;
    BankId hitBank = kInvalidBank;
    std::uint32_t hitSet = 0;
    int hitWay = kNoWay;

    // Parallel memory fetch state.
    bool memStarted = false;
    Cycle memDataAtReq = 0;     //!< cycle memory data reaches the core

    ServiceLevel level = ServiceLevel::OffChip;

    /** The initiating reference plus any MSHR-merged ones. */
    struct Waiter
    {
        Cycle issue = 0;
        OpDone done;
    };

    /**
     * Waiter container with the first entry inline: every transaction
     * has exactly one waiter (its initiating reference) unless MSHR
     * merges add more, so the overflow vector — and the per-transaction
     * heap round trip it would cost — only materializes on a merge.
     */
    struct WaiterList
    {
        Waiter first;             //!< the initiating reference
        std::vector<Waiter> rest; //!< MSHR-merged extras, in order
        std::uint32_t count = 0;

        void
        push_back(Waiter w)
        {
            if (count == 0)
                first = std::move(w);
            else
                rest.push_back(std::move(w));
            ++count;
        }

        std::size_t size() const { return count; }

        template <typename List, typename W> struct Iter
        {
            List *l;
            std::uint32_t i;
            W &operator*() const
            {
                return i == 0 ? l->first : l->rest[i - 1];
            }
            Iter &operator++()
            {
                ++i;
                return *this;
            }
            bool operator!=(const Iter &o) const { return i != o.i; }
        };
        Iter<WaiterList, Waiter> begin() { return {this, 0}; }
        Iter<WaiterList, Waiter> end() { return {this, count}; }
        Iter<const WaiterList, const Waiter> begin() const
        {
            return {this, 0};
        }
        Iter<const WaiterList, const Waiter> end() const
        {
            return {this, count};
        }
    };
    WaiterList waiters;
};

/** Per-service-level latency accounting (Figure 6). */
struct LevelStats
{
    std::uint64_t count = 0;
    Cycle totalLatency = 0;
};

/**
 * Typed stage-entry payload: the search located the block in an L2
 * bank. Drives the Searching -> HitReturn edge.
 */
struct L2HitAt
{
    BankId bank;
    std::uint32_t set;
    int way;
    Cycle tagDone; //!< tag-check completion time at the bank
};

/**
 * Typed stage-entry payload: the on-chip L2 search exhausted. Drives
 * Searching -> HitReturn (remote L1 / directory-guided L2 copy) or
 * Searching -> MissMemWait (off chip).
 */
struct L2MissAt
{
    NodeId lastNode; //!< where the last search step ended
    Cycle t;         //!< when it ended
};

/** The coherence engine. */
class Protocol
{
  public:
    Protocol(const SystemConfig &cfg, const Topology &topo, Mesh &mesh,
             EventQueue &eq, L2Org &org);
    ~Protocol();

    // -- Core-facing interface -----------------------------------------

    /**
     * Issue one memory reference. `done` fires (as an event) when the
     * reference completes, with the servicing level and total latency.
     */
    void access(CoreId c, AccessType t, Addr a, OpDone done);

    // -- Services used by L2 organizations ------------------------------

    /**
     * Probe one bank: bills the mesh hop(s) from `from_node`, the bank's
     * tag occupancy, and calls `cb(result, t_done)` at tag-check
     * completion (result.way == kNoWay on miss). The match mask models the tag
     * comparison, including the private bit — a trivially-copyable
     * class filter, so scheduling the probe allocates nothing for it.
     *
     * The continuation keeps its concrete type: the scheduled probe
     * event captures the search lambda directly, so for the (trivially
     * copyable) architecture continuations the whole closure relocates
     * by memcpy and fires without an indirect dispatch, which matters
     * at ~5 probes per ESP-NUCA transaction. Defined at the bottom of
     * l2_org.hpp, where CacheBank and L2Org are complete; every
     * architecture TU includes that header.
     */
    template <typename CB>
    void probe(Transaction &tx, BankId bank, std::uint32_t set_index,
               ClassMask match, NodeId from_node, Cycle t, CB cb);

    /**
     * Typed stage entry: the search found the block in a bank. The
     * protocol revalidates the copy and completes the transaction.
     * Exactly one resolve() per search — a second call is an illegal
     * FSM transition and trips the auditor.
     */
    void resolve(Transaction &tx, const L2HitAt &hit);

    /**
     * Typed stage entry: the on-chip L2 search exhausted; the protocol
     * falls back to L1 forwarding, a directory-guided remote L2 copy,
     * or memory.
     */
    void resolve(Transaction &tx, const L2MissAt &miss);

    /**
     * Start the off-chip fetch in parallel with the remaining search
     * (Figure 2b step 2). Idempotent per transaction; only legal while
     * the transaction is still Searching.
     */
    void startMemory(Transaction &tx, NodeId from_node, Cycle t);

    // -- Shared infrastructure accessors --------------------------------

    EventQueue &eq() { return eq_; }
    Mesh &mesh() { return mesh_; }
    const Topology &topo() const { return topo_; }
    const AddressMap &map() const { return map_; }
    AddressMap &map() { return map_; } //!< fault injection installs remaps
    Directory &dir() { return dir_; }
    const SystemConfig &config() const { return cfg_; }
    L1Cache &l1(L1Id id) { return l1s_[id]; }
    MemoryController &memCtrl(std::uint32_t i) { return mcs_[i]; }

    /**
     * Fire-and-forget block writeback to memory (dirty data leaving the
     * chip): bills the mesh and controller bandwidth.
     */
    void writebackToMemory(Addr a, NodeId from_node, Cycle t);

    /**
     * Remove an L1 holder as part of an eviction/invalidation and keep
     * the directory consistent. Does not bill latency (callers do).
     */
    void dropL1Copy(Addr a, L1Id id);

    // -- Statistics ------------------------------------------------------

    const LevelStats &levelStats(ServiceLevel l) const
    {
        return levels_[static_cast<std::size_t>(l)];
    }
    std::uint64_t totalAccesses() const { return accesses_; }
    std::uint64_t l1Hits() const { return l1Hits_; }
    std::uint64_t l2Transactions() const { return transactions_; }
    std::uint64_t offChipFetches() const { return offChipFetches_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t invalidationsSent() const { return invalsSent_; }
    std::uint64_t privatizations() const { return privatizations_; }

    /** Mean on-chip latency of references serviced on chip (Figure 7). */
    double onChipLatency() const;
    /** Off-chip service count (Figure 7 "off-chip accesses"). */
    std::uint64_t offChipServices() const
    {
        return levels_[static_cast<std::size_t>(ServiceLevel::OffChip)]
            .count;
    }

    /** Number of transactions still in flight (drain check). */
    std::size_t inFlight() const { return mshrs_.size(); }

    /**
     * Erase the directory entries of blocks that left the chip and
     * whose lock is free (DESIGN.md 5.15). Every L1 miss runs this
     * before it touches the tables; a drained System runs it once more,
     * so its directory then holds exactly the on-chip blocks.
     */
    void forgetOffChip();

    /**
     * Register this component's statistics under the unified naming
     * scheme (DESIGN.md 5.13): proto.* protocol counters, level.* the
     * per-service-level access decomposition, mc.* the memory
     * controllers it owns. System::collectStats is the single caller;
     * the names are frozen — stats dumps are byte-compared across
     * refactors.
     */
    void
    registerStats(StatsRegistry &reg) const
    {
        reg.counter("proto.accesses").inc(accesses_);
        reg.counter("proto.l1_hits").inc(l1Hits_);
        reg.counter("proto.transactions").inc(transactions_);
        reg.counter("proto.offchip_fetches").inc(offChipFetches_);
        reg.counter("proto.writebacks").inc(writebacks_);
        reg.counter("proto.invals_sent").inc(invalsSent_);
        reg.counter("proto.privatizations").inc(privatizations_);
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(ServiceLevel::kNumLevels);
             ++i) {
            const auto &ls = levels_[i];
            const StatsScope level = StatsScope(reg, "level")
                .sub(toString(static_cast<ServiceLevel>(i)));
            level.counter("count").inc(ls.count);
            level.counter("cycles").inc(ls.totalLatency);
        }
        reg.counter("proto.completions").inc(completions_);
        reg.counter("proto.dropped_completions")
            .inc(droppedCompletions_);
        const StatsScope mc(reg, "mc");
        for (std::size_t m = 0; m < mcs_.size(); ++m) {
            const StatsScope ctrl = mc.sub(std::to_string(m));
            ctrl.counter("accesses").inc(mcs_[m].accesses());
            ctrl.counter("queue_wait").inc(mcs_[m].queueWait());
        }
    }

    // -- Observability ---------------------------------------------------

    /** Attach the system's trace sink (null = untraced, the default). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }
    obs::Tracer *tracer() { return tracer_; }

    /** Transactions completed since construction (watchdog progress). */
    std::uint64_t completions() const { return completions_; }

    // -- Fault model ----------------------------------------------------

    /**
     * Drop the completion event of transaction `id` (fault injection /
     * watchdog testing): the transaction stays in flight forever, its
     * lock queue never drains — exactly the stall signature the
     * watchdog must convert into a clean failure.
     */
    void setDropCompletion(std::uint64_t id) { dropTxId_ = id; }

    /**
     * Structured diagnostic dump for watchdog failures: a per-state
     * in-flight histogram (named states), the outstanding transactions
     * (sorted by id, each with its lifecycle state), lock-queue depths
     * and the MSHR count.
     */
    void dumpDiagnostics(std::ostream &os) const;

    /** In-flight transaction count per lifecycle state. */
    std::array<std::size_t, kNumTxStates> inFlightByState() const;

#if ESPNUCA_TX_AUDIT
    /** The FSM auditor (per-edge coverage counters). */
    const TxAudit &txAudit() const { return audit_; }
#endif

    /**
     * Test hook: force a raw FSM transition on an in-flight
     * transaction. Exists so the negative audit tests can prove an
     * illegal edge trips the auditor; never called by the engine.
     */
    void
    debugForceTransition(std::uint64_t id, TxState to)
    {
        for (const auto &[key, tx] : mshrs_) {
            if (tx->id == id) {
                transition(*tx, to, eq_.now());
                return;
            }
        }
        ESP_PANIC("forcing a dead transaction");
    }

    /**
     * Zero the statistic counters (warmup boundary). Cache and
     * directory *state* is untouched — only the books reset.
     */
    void
    resetStats()
    {
        for (auto &l : levels_)
            l = LevelStats{};
        accesses_ = 0;
        l1Hits_ = 0;
        transactions_ = 0;
        offChipFetches_ = 0;
        writebacks_ = 0;
        invalsSent_ = 0;
        privatizations_ = 0;
    }

    // -- Snapshot/restore ------------------------------------------------

    /**
     * Serialize directory, L1 arrays, memory controllers, the id
     * counter and all statistics. Only legal at a drained epoch
     * boundary: no live transactions, locks or MSHRs (asserted), so
     * the transient engine state is structurally empty and not part
     * of the format.
     */
    void
    save(SnapshotWriter &w) const
    {
        ESP_ASSERT(locks_.empty() && mshrs_.empty(),
                   "snapshot with transactions in flight");
        dir_.save(w);
        w.u32(static_cast<std::uint32_t>(l1s_.size()));
        for (const auto &l1 : l1s_)
            l1.save(w);
        w.u32(static_cast<std::uint32_t>(mcs_.size()));
        for (const auto &mc : mcs_)
            mc.save(w);
        w.u64(nextId_);
        for (const auto &l : levels_) {
            w.u64(l.count);
            w.u64(l.totalLatency);
        }
        w.u64(accesses_);
        w.u64(l1Hits_);
        w.u64(transactions_);
        w.u64(offChipFetches_);
        w.u64(writebacks_);
        w.u64(invalsSent_);
        w.u64(privatizations_);
        w.u64(completions_);
        w.u64(droppedCompletions_);
    }

    void
    load(SnapshotReader &r)
    {
        ESP_ASSERT(locks_.empty() && mshrs_.empty(),
                   "restore with transactions in flight");
        dir_.load(r);
        if (r.u32() != l1s_.size())
            throw SnapshotError("L1 count mismatch");
        for (auto &l1 : l1s_)
            l1.load(r);
        if (r.u32() != mcs_.size())
            throw SnapshotError("memory-controller count mismatch");
        for (auto &mc : mcs_)
            mc.load(r);
        nextId_ = r.u64();
        for (auto &l : levels_) {
            l.count = r.u64();
            l.totalLatency = r.u64();
        }
        accesses_ = r.u64();
        l1Hits_ = r.u64();
        transactions_ = r.u64();
        offChipFetches_ = r.u64();
        writebacks_ = r.u64();
        invalsSent_ = r.u64();
        privatizations_ = r.u64();
        completions_ = r.u64();
        droppedCompletions_ = r.u64();
    }

  private:
    struct MshrKey
    {
        CoreId core;
        Addr addr;
        bool instr;
        bool write;
        bool operator==(const MshrKey &) const = default;
    };
    struct MshrKeyHash
    {
        std::size_t
        operator()(const MshrKey &k) const
        {
            std::size_t h = std::hash<Addr>()(k.addr);
            h ^= (static_cast<std::size_t>(k.core) << 1) ^
                 (k.instr ? 0x9e37u : 0) ^ (k.write ? 0x79b9u : 0);
            return h;
        }
    };

    /**
     * Move `tx` to `to` at time `t`: audits the edge against the
     * static table (non-Release builds), stores the new state and
     * emits a TxStage trace record. The single choke point every
     * lifecycle stage funnels through.
     */
    void
    transition(Transaction &tx, TxState to, Cycle t)
    {
        const TxState from = tx.state;
#if ESPNUCA_TX_AUDIT
        audit_.transition(tx.id, tx.addr, from, to,
                          locks_.find(tx.addr) != locks_.end());
#endif
        tx.state = to;
        if (tracer_ && tracer_->enabled())
            tracer_->record(obs::TraceKind::TxStage, t, tx.id, tx.addr,
                            static_cast<std::uint16_t>(from),
                            static_cast<std::uint8_t>(tx.core),
                            static_cast<std::uint32_t>(to));
    }

    /** Begin a transaction once it holds the block lock. */
    void begin(Transaction *tx);

    /** Search resolution handlers (HitReturn / miss fallback paths). */
    void handleL2Hit(Transaction &tx, BankId bank,
                     std::uint32_t set_index, int way, Cycle tag_done);
    void handleL2Miss(Transaction &tx, NodeId last_node, Cycle t);

    /** Complete: attribute, apply fills/tokens, release lock, wake. */
    void finish(Transaction *tx, Cycle data_at_req);

    /** Write transactions gather every token: invalidation fan-out. */
    Cycle collectTokens(Transaction &tx, Cycle t_ordering);

    /** Completion-time sweep of copies recreated since collectTokens. */
    void sweepForWrite(Transaction &tx);

    /** Fill the requesting L1 and handle the displaced block. */
    void fillRequesterL1(Transaction &tx);

    /** Handle an L1 eviction (writeback / replica / tile insert). */
    void handleL1Eviction(CoreId c, L1Id id, const BlockMeta &evicted,
                          Cycle t);

    /** Attribute a serviced reference to its level. */
    void attribute(Transaction &tx, Cycle completion);

    void acquireLock(Addr a, EventFn start);
    void releaseLock(Addr a);

    /**
     * FIFO of transactions serialized on one block. The front entry is
     * the current holder (kept as a placeholder once started); the
     * rest wait. Queues are almost always depth 1 (a lock lives exactly
     * one uncontended transaction), so the first entry is stored inline
     * — the overflow vector, and with it any heap traffic, only exists
     * under real contention.
     */
    struct LockQueue
    {
        EventFn first;             //!< inline slot (the common case)
        std::vector<EventFn> rest; //!< contention overflow, in order
        std::uint32_t head = 0;    //!< popped entries; 0 = first is front
        std::uint32_t count = 0;   //!< live entries

        bool empty() const { return count == 0; }
        std::size_t size() const { return count; }
        EventFn &front() { return head == 0 ? first : rest[head - 1]; }

        void
        push(EventFn fn)
        {
            if (count == 0 && head == 0)
                first = std::move(fn);
            else
                rest.push_back(std::move(fn));
            ++count;
        }

        void
        pop()
        {
            ++head;
            --count;
            if (count == 0) {
                rest.clear();
                head = 0;
            }
        }
    };

    SystemConfig cfg_;
    const Topology &topo_;
    Mesh &mesh_;
    EventQueue &eq_;
    L2Org &org_;
    AddressMap map_;
    Directory dir_;
    std::vector<L1Cache> l1s_;
    std::vector<MemoryController> mcs_;

    // Hot-path bookkeeping: open-addressing tables (no per-entry heap
    // nodes) and a slab for the Transaction objects themselves. mshrs_
    // is the in-flight registry: every transaction holds exactly one
    // MSHR from access() to finish(), and merges add waiters, not keys.
    FlatMap<Addr, LockQueue> locks_;
    FlatMap<MshrKey, Transaction *, MshrKeyHash> mshrs_;
    Slab<Transaction> txSlab_;
    std::uint64_t nextId_ = 1;

    std::array<LevelStats,
               static_cast<std::size_t>(ServiceLevel::kNumLevels)>
        levels_{};
    std::uint64_t accesses_ = 0;
    std::uint64_t l1Hits_ = 0;
    std::uint64_t transactions_ = 0;
    std::uint64_t offChipFetches_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t invalsSent_ = 0;
    std::uint64_t privatizations_ = 0;

    // Fault model / watchdog hooks (not reset at the warmup boundary:
    // completions_ is a monotonic progress signal, not a statistic).
    std::uint64_t completions_ = 0;
    std::uint64_t dropTxId_ = 0; //!< 0 = no completion is dropped
    std::uint64_t droppedCompletions_ = 0;

    // Observability: read-only lifecycle recording; never alters timing.
    obs::Tracer *tracer_ = nullptr;

    // FSM auditor: transition legality, invariants, edge coverage.
    // An empty stub (no storage, no checks) in Release builds.
    TxAudit audit_;
};

} // namespace espnuca

#endif // ESPNUCA_COHERENCE_PROTOCOL_HPP_
