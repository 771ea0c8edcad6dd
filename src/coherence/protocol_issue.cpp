/**
 * @file
 * Issue stage of the transaction FSM: construction, the core-facing
 * access() entry (L1 lookup, MSHR merge, transaction creation), the
 * per-block ordering point (lock queue), and the begin() dispatch that
 * routes a lock-granted transaction onto its lifecycle edge —
 * LockWait -> {Searching, HitReturn, Upgrading}.
 */

#include "coherence/protocol.hpp"

#include <algorithm>
#include <utility>

#include "coherence/l2_org.hpp"
#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

Protocol::Protocol(const SystemConfig &cfg, const Topology &topo,
                   Mesh &mesh, EventQueue &eq, L2Org &org)
    : cfg_(cfg), topo_(topo), mesh_(mesh), eq_(eq), org_(org), map_(cfg),
      dir_(cfg)
{
    l1s_.reserve(cfg.l1Count());
    for (std::uint32_t i = 0; i < cfg.l1Count(); ++i)
        l1s_.emplace_back(cfg);
    mcs_.reserve(cfg.memControllers);
    for (std::uint32_t i = 0; i < cfg.memControllers; ++i)
        mcs_.emplace_back(cfg);
    org_.attach(*this);
}

Protocol::~Protocol()
{
    // Transactions still in flight when the simulation is torn down
    // (e.g. a watchdog abort mid-run) live on the slab; destroy them
    // so their waiter vectors are released.
    for (auto &[key, tx] : mshrs_)
        txSlab_.release(tx);
}

void
Protocol::access(CoreId c, AccessType t, Addr a, OpDone done)
{
    ESP_PROF_SCOPE("proto.access");
    a = map_.blockAddr(a);
    // Every path below ends in hash probes of these tables (the
    // store-permission check or begin()'s noteAccess on the directory,
    // the MSHR merge lookup, acquireLock on the lock table); start
    // pulling their home slots in while the L1 lookup runs.
    dir_.prefetch(a);
    locks_.prefetch(a);
    ++accesses_;
    const bool is_write = t == AccessType::Store;
    const bool instr = t == AccessType::Ifetch;
    const L1Id id = l1IdOf(c, instr);
    L1Cache &l1 = l1s_[id];
    const MshrKey key{c, a, instr, is_write};
    mshrs_.prefetch(key);
    const Cycle issue = eq_.now();

    const int way = l1.lookup(a);
    if (way != kNoWay) {
        bool serviceable = !is_write;
        if (is_write) {
            // A store needs every token: sole L1 holder, no L2 copies.
            const BlockInfo *e = dir_.find(a);
            ESP_ASSERT(e != nullptr, "L1 copy without directory entry");
            serviceable = e->ownerKind() == OwnerKind::L1 &&
                          e->ownerIndex() == id && e->numL1Holders() == 1 &&
                          !e->anyL2Copy();
        }
        if (serviceable) {
            l1.touch(a, way);
            if (is_write)
                l1.markDirty(a, way);
            ++l1Hits_;
            const Cycle lat = cfg_.l1Latency;
            auto &ls = levels_[static_cast<std::size_t>(
                ServiceLevel::LocalL1)];
            ++ls.count;
            ls.totalLatency += lat;
            eq_.schedule(lat, [done = std::move(done), lat]() {
                done(ServiceLevel::LocalL1, lat);
            });
            return;
        }
    }

    // Miss or write upgrade: merge into an existing transaction if one
    // matches, otherwise start a new one behind the block lock. An
    // access starts an event, so no handler is mid-move: forget the
    // blocks that left the chip first.
    forgetOffChip();
    auto it = mshrs_.find(key);
    if (it != mshrs_.end()) {
        it->second->waiters.push_back({issue, std::move(done)});
        return;
    }

    Transaction *raw = txSlab_.acquire();
    raw->id = nextId_++;
    raw->core = c;
    raw->type = t;
    raw->addr = a;
    raw->isWrite = is_write;
    raw->isUpgrade = is_write && way != kNoWay;
    raw->issueTime = issue;
    raw->reqNode = topo_.coreNode(c);
    raw->waiters.push_back({issue, std::move(done)});
    mshrs_[key] = raw;
    ++transactions_;
    // The L1 miss is the moment a reference becomes a transaction: the
    // issue record opens the lifecycle span.
    if (tracer_ && tracer_->enabled())
        tracer_->record(obs::TraceKind::TxIssue, issue, raw->id, a, 0,
                        static_cast<std::uint8_t>(c),
                        static_cast<std::uint32_t>(t));
    transition(*raw, TxState::LockWait, issue);
    acquireLock(a, [this, raw]() { begin(raw); });
}

void
Protocol::begin(Transaction *tx)
{
    // The L1 miss was detected after the L1 tag check; lock waits may
    // have delayed us further.
    const Cycle t0 = std::max(tx->issueTime + cfg_.l1TagLatency, eq_.now());
    tx->searchStart = t0;
    if (tracer_)
        tracer_->setCurrentTx(tx->id);
    if (dir_.noteAccess(tx->addr, tx->core)) {
        ++privatizations_;
        if (tracer_ && tracer_->enabled())
            tracer_->record(
                obs::TraceKind::Promotion, t0, tx->id, tx->addr,
                static_cast<std::uint16_t>(map_.sharedBank(tx->addr)),
                static_cast<std::uint8_t>(tx->core), 0);
    }

    // Re-derive the transaction shape from the *current* L1 state: while
    // this transaction waited for the block lock, a lock-serialized
    // predecessor of the same core may have filled or invalidated the
    // copy that existed at issue time.
    const L1Id self = l1IdOf(tx->core, tx->type == AccessType::Ifetch);
    const bool resident = l1s_[self].has(tx->addr);
    if (!tx->isWrite && resident) {
        // A predecessor filled it: this is now a plain L1 hit.
        ++l1Hits_;
        tx->level = ServiceLevel::LocalL1;
        transition(*tx, TxState::HitReturn, t0);
        finish(tx, t0 + cfg_.l1Latency);
        return;
    }
    tx->isUpgrade = tx->isWrite && resident;
    if (tx->isUpgrade) {
        // Sole ownership may also have materialized already.
        const BlockInfo *e = dir_.find(tx->addr);
        if (e != nullptr && e->ownerKind() == OwnerKind::L1 &&
            e->ownerIndex() == self && e->numL1Holders() == 1 &&
            !e->anyL2Copy()) {
            ++l1Hits_;
            tx->level = ServiceLevel::LocalL1;
            transition(*tx, TxState::HitReturn, t0);
            finish(tx, t0 + cfg_.l1Latency);
            return;
        }
    }

    if (tx->isUpgrade) {
        // Data is local; only the token collection round trip remains.
        transition(*tx, TxState::Upgrading, t0);
        const NodeId home = topo_.bankNode(map_.sharedBank(tx->addr));
        const Cycle t_home = mesh_.deliveryTime(
            tx->reqNode, home, cfg_.ctrlMsgBytes, t0);
        const Cycle acks = collectTokens(*tx, t_home);
        tx->level = ServiceLevel::LocalL1;
        finish(tx, std::max(acks, t0 + cfg_.l1Latency));
        return;
    }
    transition(*tx, TxState::Searching, t0);
    org_.search(*tx);
}

void
Protocol::forgetOffChip()
{
    dir_.forgetOffChip([this](Addr b) { return locks_.contains(b); });
}

void
Protocol::acquireLock(Addr a, EventFn start)
{
    LockQueue &q = locks_[a];
    q.push(std::move(start));
    if (q.size() == 1)
        q.front()();
}

void
Protocol::releaseLock(Addr a)
{
    auto it = locks_.find(a);
    ESP_ASSERT(it != locks_.end() && !it->second.empty(),
               "releasing an unheld lock");
    it->second.pop();
    if (it->second.empty()) {
        locks_.erase(it);
        return;
    }
    // Start the next queued transaction on this block as a fresh event.
    // The closure moves out of the queue; the emptied entry stays at
    // the front as the holder marker until that transaction releases.
    eq_.schedule(0, std::move(it->second.front()));
}

} // namespace espnuca
