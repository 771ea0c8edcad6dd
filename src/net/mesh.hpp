/**
 * @file
 * 2D mesh interconnect with deterministic X-Y (dimension-order) routing.
 * Hop cost matches Table 2: 3-cycle router pipeline + 2-cycle link, with
 * flit serialization and per-link FIFO contention from Link.
 */

#ifndef ESPNUCA_NET_MESH_HPP_
#define ESPNUCA_NET_MESH_HPP_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/event_queue.hpp"
#include "stats/stats_registry.hpp"

namespace espnuca {

/**
 * The on-chip network. Messages are not individual simulation objects:
 * delivery time is computed by walking the X-Y route and reserving each
 * link in order, then a single event fires at arrival. This keeps the
 * event count low while still modelling serialization and bandwidth
 * contention on every traversed link.
 */
class Mesh
{
  public:
    Mesh(const Topology &topo, EventQueue &eq)
        : topo_(topo), eq_(eq), cfg_(topo.config()),
          // 4 directions per node; index = node * 4 + direction.
          links_(static_cast<std::size_t>(topo.numNodes()) * 4)
    {
    }

    /** Direction of a link leaving a router. */
    enum Dir : std::uint32_t { East = 0, West = 1, North = 2, South = 3 };

    /**
     * Compute (and reserve bandwidth for) a message injected at `start`
     * and return its delivery cycle; the caller schedules the arrival.
     */
    Cycle
    deliveryTime(NodeId src, NodeId dst, std::uint32_t bytes, Cycle start)
    {
        ESP_PROF_SCOPE("mesh.route");
        ++messagesSent_;
        const std::uint32_t flits = static_cast<std::uint32_t>(
            divCeil(bytes, cfg_.linkBytes));
        // Local delivery still crosses the router once (bank and L1 share
        // the router at a node).
        Cycle t = start + cfg_.routerLatency;
        Coord cur = topo_.coordOf(src);
        const Coord dest = topo_.coordOf(dst);
        // X first, then Y (deadlock-free dimension order).
        while (cur.x != dest.x) {
            const Dir d = cur.x < dest.x ? East : West;
            const NodeId node = topo_.nodeAt(cur);
            t = linkAt(node, d)
                    .transmit(t, flits, cfg_.linkLatency, eq_.now());
            traceHop(node, d, t);
            cur.x = cur.x < dest.x ? cur.x + 1 : cur.x - 1;
            t += cfg_.routerLatency;
        }
        while (cur.y != dest.y) {
            const Dir d = cur.y < dest.y ? South : North;
            const NodeId node = topo_.nodeAt(cur);
            t = linkAt(node, d)
                    .transmit(t, flits, cfg_.linkLatency, eq_.now());
            traceHop(node, d, t);
            cur.y = cur.y < dest.y ? cur.y + 1 : cur.y - 1;
            t += cfg_.routerLatency;
        }
        return t;
    }

    /** Zero-load latency between two nodes for a message of `bytes`. */
    Cycle
    zeroLoadLatency(NodeId src, NodeId dst, std::uint32_t bytes) const
    {
        const std::uint32_t flits = static_cast<std::uint32_t>(
            divCeil(bytes, cfg_.linkBytes));
        const std::uint32_t h = topo_.hops(src, dst);
        return cfg_.routerLatency * (h + 1) +
               (cfg_.linkLatency + flits - 1) * h;
    }

    const Topology &topology() const { return topo_; }

    /** Aggregate flits sent over all links. */
    std::uint64_t
    totalFlits() const
    {
        std::uint64_t sum = 0;
        for (const auto &l : links_)
            sum += l.flitsSent();
        return sum;
    }

    /** Aggregate per-link queueing delay. */
    Cycle
    totalLinkWait() const
    {
        Cycle sum = 0;
        for (const auto &l : links_)
            sum += l.waitCycles();
        return sum;
    }

    std::uint64_t messagesSent() const { return messagesSent_; }

    /** Live busy intervals across all links (stats registry). */
    std::uint64_t
    totalIntervals() const
    {
        std::uint64_t sum = 0;
        for (const auto &l : links_)
            sum += l.intervals();
        return sum;
    }

    /** Worst per-link interval-list high-water mark. */
    std::uint64_t
    peakIntervals() const
    {
        std::uint64_t peak = 0;
        for (const auto &l : links_)
            if (l.peakIntervals() > peak)
                peak = l.peakIntervals();
        return peak;
    }

    /** Interval merges forced by the per-link cap, summed. */
    std::uint64_t
    totalCompactions() const
    {
        std::uint64_t sum = 0;
        for (const auto &l : links_)
            sum += l.compactions();
        return sum;
    }

    /** Extra wire cycles paid to fault-injected link degradation. */
    Cycle
    totalDegradedCycles() const
    {
        Cycle sum = 0;
        for (const auto &l : links_)
            sum += l.degradedCycles();
        return sum;
    }

    /**
     * Register the network's statistics under mesh.* (unified naming,
     * DESIGN.md 5.13). Names are frozen — stats dumps are
     * byte-compared across refactors.
     */
    void
    registerStats(StatsRegistry &reg) const
    {
        const StatsScope mesh(reg, "mesh");
        mesh.counter("messages").inc(messagesSent_);
        mesh.counter("flits").inc(totalFlits());
        mesh.counter("link_wait").inc(totalLinkWait());
        mesh.counter("link_intervals").inc(totalIntervals());
        mesh.counter("link_peak_intervals").inc(peakIntervals());
        mesh.counter("link_compactions").inc(totalCompactions());
        mesh.counter("degraded_cycles").inc(totalDegradedCycles());
    }

    /** Access a specific directed link (testing / stats). */
    Link &
    linkAt(NodeId node, Dir d)
    {
        return links_[static_cast<std::size_t>(node) * 4 + d];
    }

    /** Zero the statistics; link occupancy state is kept. */
    void
    resetStats()
    {
        for (auto &l : links_)
            l.resetStats();
        messagesSent_ = 0;
    }

    /** Attach the system's trace sink (null = untraced, the default). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    // -- Snapshot/restore ----------------------------------------------

    void
    save(SnapshotWriter &w) const
    {
        w.u64(links_.size());
        for (const auto &l : links_)
            l.save(w);
        w.u64(messagesSent_);
    }

    void
    load(SnapshotReader &r)
    {
        if (r.u64() != links_.size())
            throw SnapshotError("mesh link-count mismatch");
        for (auto &l : links_)
            l.load(r);
        messagesSent_ = r.u64();
    }

  private:
    /** Record one link traversal, attributed via the tracer's current
     * transaction (set by the protocol before routing). */
    void
    traceHop(NodeId node, Dir d, Cycle t)
    {
        if (tracer_ && tracer_->enabled())
            tracer_->record(obs::TraceKind::Hop, t,
                            tracer_->currentTx(), 0,
                            static_cast<std::uint16_t>(node), 0,
                            static_cast<std::uint32_t>(d));
    }

    const Topology &topo_;
    EventQueue &eq_;
    SystemConfig cfg_;
    std::vector<Link> links_;
    std::uint64_t messagesSent_ = 0;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace espnuca

#endif // ESPNUCA_NET_MESH_HPP_
