/**
 * @file
 * Transaction lifecycle tracing. Components append fixed-size binary
 * TraceRecords into a Tracer owned by their System; the buffer is
 * drained post-run into Chrome/Perfetto trace_event JSON (see
 * trace_export.hpp) or, in ring mode, kept as a bounded tail that the
 * watchdog attaches to its diagnostic dump on a stall.
 *
 * Each System (and therefore each simulation thread in the parallel
 * harness) owns its own Tracer, so recording is a plain unsynchronized
 * append — lock-free by construction. Recording is strictly read-only
 * with respect to simulation state: a traced run produces bit-identical
 * statistics to an untraced one.
 */

#ifndef ESPNUCA_OBS_TRACE_BUFFER_HPP_
#define ESPNUCA_OBS_TRACE_BUFFER_HPP_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace espnuca {
namespace obs {

/** Lifecycle points a transaction (or block) passes through. */
enum class TraceKind : std::uint8_t
{
    TxIssue = 0,   //!< L1 miss became a transaction (core, addr, type)
    TxComplete,    //!< transaction finished (a = waiters, b = level)
    TxStage,       //!< FSM transition (a = from TxState, b = to TxState)
    BankProbe,     //!< tag probe resolved (a = bank, b = way + 1; 0 = miss)
    Hop,           //!< message crossed one mesh link (a = node, b = dir)
    MemFill,       //!< off-chip fetch started (a = controller, b = latency)
    MemWriteback,  //!< dirty block left the chip (a = controller)
    Promotion,     //!< private -> shared status flip (a = home bank)
    ReplicaCreate, //!< helping-block replica inserted (a = bank)
    VictimCreate,  //!< helping-block victim inserted (a = bank)
    L2Evict,       //!< protected-LRU displacement (a = bank, b = class)
};

inline const char *
toString(TraceKind k)
{
    switch (k) {
    case TraceKind::TxIssue: return "tx-issue";
    case TraceKind::TxComplete: return "tx-complete";
    case TraceKind::TxStage: return "tx-stage";
    case TraceKind::BankProbe: return "bank-probe";
    case TraceKind::Hop: return "hop";
    case TraceKind::MemFill: return "mem-fill";
    case TraceKind::MemWriteback: return "mem-writeback";
    case TraceKind::Promotion: return "promotion";
    case TraceKind::ReplicaCreate: return "replica-create";
    case TraceKind::VictimCreate: return "victim-create";
    case TraceKind::L2Evict: return "l2-evict";
    }
    return "?";
}

/**
 * Coarse event categories for --trace-filter. "tx" selects the
 * transaction lifecycle spans, "bank" the L2-bank block events, "core"
 * adds the memory-side records; the mesh hops ride with "tx" since
 * they are only meaningful as part of a span.
 */
constexpr std::uint8_t kCatTx = 1u << 0;   //!< issue/complete + hops
constexpr std::uint8_t kCatBank = 1u << 1; //!< probes, evictions, helpers
constexpr std::uint8_t kCatCore = 1u << 2; //!< memory fills/writebacks
constexpr std::uint8_t kCatAll = kCatTx | kCatBank | kCatCore;

inline std::uint8_t
category(TraceKind k)
{
    switch (k) {
    case TraceKind::TxIssue:
    case TraceKind::TxComplete:
    case TraceKind::TxStage:
    case TraceKind::Hop:
        return kCatTx;
    case TraceKind::BankProbe:
    case TraceKind::Promotion:
    case TraceKind::ReplicaCreate:
    case TraceKind::VictimCreate:
    case TraceKind::L2Evict:
        return kCatBank;
    case TraceKind::MemFill:
    case TraceKind::MemWriteback:
        return kCatCore;
    }
    return kCatAll;
}

/**
 * One 32-byte binary trace record. `a` and `b` are kind-specific
 * payloads (bank/node/way/direction/level) documented on TraceKind.
 */
struct TraceRecord
{
    Cycle time = 0;
    std::uint64_t tx = 0; //!< transaction id; 0 = unattributed
    Addr addr = 0;
    std::uint32_t b = 0;
    std::uint16_t a = 0;
    std::uint8_t core = 0;
    TraceKind kind = TraceKind::TxIssue;
};

static_assert(sizeof(TraceRecord) == 32, "trace record grew past 32B");

/**
 * Per-system trace sink. Two capture modes:
 *   - full: unbounded append, drained post-run into a trace file;
 *   - ring: bounded tail of the most recent records, attached to the
 *     watchdog's diagnostic dump so stalls ship with an event history.
 */
class Tracer
{
  public:
    bool enabled() const { return mode_ != Mode::Off; }

    /** Capture everything matching `mask` until drained. */
    void
    enableFull(std::uint8_t mask = kCatAll)
    {
        mode_ = Mode::Full;
        mask_ = mask;
    }

    /** Keep only the most recent `capacity` records (watchdog tail). */
    void
    enableRing(std::size_t capacity, std::uint8_t mask = kCatAll)
    {
        mode_ = Mode::Ring;
        mask_ = mask;
        capacity_ = capacity != 0 ? capacity : 1;
        records_.clear();
        head_ = 0;
    }

    void
    record(TraceKind kind, Cycle time, std::uint64_t tx, Addr addr,
           std::uint16_t a, std::uint8_t core, std::uint32_t b)
    {
        if (mode_ == Mode::Off || (mask_ & category(kind)) == 0)
            return;
        TraceRecord r;
        r.time = time;
        r.tx = tx;
        r.addr = addr;
        r.b = b;
        r.a = a;
        r.core = core;
        r.kind = kind;
        if (mode_ == Mode::Full) {
            records_.push_back(r);
            return;
        }
        if (records_.size() < capacity_) {
            records_.push_back(r);
        } else {
            records_[head_] = r;
            head_ = (head_ + 1) % capacity_;
        }
    }

    /**
     * Transaction the protocol is currently operating on, so the mesh
     * can attribute hop records without widening its interface. 0 for
     * fire-and-forget traffic (writebacks, migrations).
     */
    void
    setCurrentTx(std::uint64_t id)
    {
        if (mode_ != Mode::Off)
            currentTx_ = id;
    }
    std::uint64_t currentTx() const { return currentTx_; }

    /** All captured records in chronological (capture) order. */
    std::vector<TraceRecord>
    snapshot() const
    {
        if (mode_ != Mode::Ring || head_ == 0)
            return records_;
        std::vector<TraceRecord> out;
        out.reserve(records_.size());
        out.insert(out.end(), records_.begin() +
                   static_cast<std::ptrdiff_t>(head_), records_.end());
        out.insert(out.end(), records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(head_));
        return out;
    }

    /** The most recent `n` records, oldest first. */
    std::vector<TraceRecord>
    tail(std::size_t n) const
    {
        std::vector<TraceRecord> all = snapshot();
        if (all.size() > n)
            all.erase(all.begin(),
                      all.end() - static_cast<std::ptrdiff_t>(n));
        return all;
    }

    std::size_t size() const { return records_.size(); }

  private:
    enum class Mode : std::uint8_t { Off, Full, Ring };

    std::vector<TraceRecord> records_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0; //!< ring mode: index of the oldest record
    std::uint64_t currentTx_ = 0;
    Mode mode_ = Mode::Off;
    std::uint8_t mask_ = kCatAll;
};

/** Records kept for the watchdog's post-mortem tail. */
constexpr std::size_t kDiagRingCapacity = 64;
constexpr std::size_t kDiagTailLines = 32;

/** Map a --trace-filter word to a category mask; kCatAll on "all". */
inline bool
parseTraceFilter(const std::string &word, std::uint8_t &mask)
{
    if (word.empty() || word == "all")
        mask = kCatAll;
    else if (word == "tx")
        mask = kCatTx;
    else if (word == "bank")
        mask = kCatBank | kCatTx; // spans give the probes their context
    else if (word == "core")
        mask = kCatCore | kCatTx;
    else
        return false;
    return true;
}

} // namespace obs
} // namespace espnuca

#endif // ESPNUCA_OBS_TRACE_BUFFER_HPP_
