/**
 * @file
 * Chrome/Perfetto trace_event JSON export of a drained TraceBuffer.
 *
 * Layout: transactions become complete ("ph":"X") spans on pid 1 with
 * one track per issuing core; bank events (probes, evictions, helping
 * blocks) are instants on pid 2 tracked by bank; mesh hops instants on
 * pid 3 tracked by node; memory events on pid 4 tracked by controller;
 * when epoch telemetry ran alongside the trace, each MetricsSampler
 * tick becomes counter ("ph":"C") events on pid 5, one track per
 * sampled registry name, so load curves render as counter tracks
 * above the spans they explain.
 * Every event carries the owning transaction id in args.tx so a span
 * and its probes/hops correlate in the Perfetto UI (and in the CI
 * validator, tools/check_trace.py). Timestamps are core cycles written
 * as microseconds — relative spacing is what matters.
 */

#ifndef ESPNUCA_OBS_TRACE_EXPORT_HPP_
#define ESPNUCA_OBS_TRACE_EXPORT_HPP_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "coherence/tx_state.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/trace_buffer.hpp"

namespace espnuca {
namespace obs {

namespace detail {

inline void
writeEventCommon(std::ostream &os, bool &first, const char *name,
                 const char *cat, const char *ph, Cycle ts, int pid,
                 std::uint64_t tid)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  {\"name\":\"" << name << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"" << ph << "\",\"ts\":" << ts << ",\"pid\":" << pid
       << ",\"tid\":" << tid;
}

inline void
writeArgsOpen(std::ostream &os)
{
    os << ",\"args\":{";
}

inline void
writeHexAddr(std::ostream &os, Addr a)
{
    os << "\"addr\":\"0x" << std::hex << a << std::dec << "\"";
}

inline void
writeProcessName(std::ostream &os, bool &first, int pid, const char *name)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":\"" << name << "\"}}";
}

} // namespace detail

/**
 * Write `records` as one Chrome trace_event JSON document. Pairs
 * TxIssue/TxComplete into complete spans; an issue without a matching
 * complete (a transaction still in flight when the capture stopped)
 * degrades to an instant so nothing is silently dropped. When
 * `samples` is non-null, epoch telemetry rides along as counter
 * tracks (pid 5).
 */
inline void
writeChromeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
                 const std::vector<MetricsSample> *samples = nullptr)
{
    using detail::writeArgsOpen;
    using detail::writeEventCommon;
    using detail::writeHexAddr;

    // First pass: remember each transaction's issue so the complete
    // record can become a span with the right start and duration.
    std::map<std::uint64_t, const TraceRecord *> issues;
    for (const TraceRecord &r : records)
        if (r.kind == TraceKind::TxIssue && r.tx != 0)
            issues.emplace(r.tx, &r);
    std::map<std::uint64_t, bool> completed;

    os << "{\"traceEvents\":[\n";
    bool first = true;
    detail::writeProcessName(os, first, 1, "transactions");
    detail::writeProcessName(os, first, 2, "l2-banks");
    detail::writeProcessName(os, first, 3, "mesh");
    detail::writeProcessName(os, first, 4, "memory");
    if (samples != nullptr && !samples->empty())
        detail::writeProcessName(os, first, 5, "counters");

    for (const TraceRecord &r : records) {
        switch (r.kind) {
        case TraceKind::TxIssue:
            break; // emitted when its complete (or the tail) is seen
        case TraceKind::TxStage:
            // Lifecycle stage instants ride the transaction track so a
            // span expands into its FSM edges in the Perfetto UI.
            writeEventCommon(os, first,
                             toString(static_cast<TxState>(r.b)), "tx",
                             "i", r.time, 1, r.core);
            os << ",\"s\":\"t\"";
            writeArgsOpen(os);
            os << "\"tx\":" << r.tx << ",";
            writeHexAddr(os, r.addr);
            os << ",\"from\":\"" << toString(static_cast<TxState>(r.a))
               << "\"}}";
            break;
        case TraceKind::TxComplete: {
            auto it = issues.find(r.tx);
            const Cycle start =
                it != issues.end() ? it->second->time : r.time;
            completed[r.tx] = true;
            writeEventCommon(os, first, "tx", "tx", "X", start, 1,
                             r.core);
            os << ",\"dur\":" << (r.time - start);
            writeArgsOpen(os);
            os << "\"tx\":" << r.tx << ",";
            writeHexAddr(os, r.addr);
            os << ",\"level\":" << r.b << ",\"waiters\":" << r.a << "}}";
            break;
        }
        case TraceKind::BankProbe:
            writeEventCommon(os, first, "probe", "bank", "i", r.time, 2,
                             r.a);
            os << ",\"s\":\"t\"";
            writeArgsOpen(os);
            os << "\"tx\":" << r.tx << ",";
            writeHexAddr(os, r.addr);
            os << ",\"way\":" << (static_cast<std::int64_t>(r.b) - 1)
               << "}}";
            break;
        case TraceKind::Hop:
            writeEventCommon(os, first, "hop", "net", "i", r.time, 3,
                             r.a);
            os << ",\"s\":\"t\"";
            writeArgsOpen(os);
            os << "\"tx\":" << r.tx << ",\"dir\":" << r.b << "}}";
            break;
        case TraceKind::MemFill:
            writeEventCommon(os, first, "mem-fill", "mem", "X", r.time, 4,
                             r.a);
            os << ",\"dur\":" << r.b;
            writeArgsOpen(os);
            os << "\"tx\":" << r.tx << ",";
            writeHexAddr(os, r.addr);
            os << "}}";
            break;
        case TraceKind::MemWriteback:
            writeEventCommon(os, first, "mem-writeback", "mem", "i",
                             r.time, 4, r.a);
            os << ",\"s\":\"t\"";
            writeArgsOpen(os);
            writeHexAddr(os, r.addr);
            os << "}}";
            break;
        case TraceKind::Promotion:
        case TraceKind::ReplicaCreate:
        case TraceKind::VictimCreate:
        case TraceKind::L2Evict:
            writeEventCommon(os, first, toString(r.kind), "bank", "i",
                             r.time, 2, r.a);
            os << ",\"s\":\"t\"";
            writeArgsOpen(os);
            os << "\"tx\":" << r.tx << ",";
            writeHexAddr(os, r.addr);
            if (r.kind == TraceKind::L2Evict)
                os << ",\"class\":" << r.b;
            os << "}}";
            break;
        }
    }

    // Epoch telemetry as Perfetto counter tracks: one "ph":"C" event
    // per sample per sampled name, holding the raw registry value
    // (Perfetto's counter "delta" view shows per-interval activity).
    if (samples != nullptr) {
        for (const MetricsSample &s : *samples) {
            for (std::size_t i = 0; i < s.values.size(); ++i) {
                const std::string &name = (*s.names)[i];
                writeEventCommon(os, first, name.c_str(), "counter", "C",
                                 s.cycle, 5, 0);
                writeArgsOpen(os);
                os << "\"" << name << "\":" << s.values[i] << "}}";
            }
        }
    }

    // Issues that never completed inside the capture window.
    for (const auto &[tx, rec] : issues) {
        if (completed.count(tx) != 0)
            continue;
        writeEventCommon(os, first, "tx-issue", "tx", "i", rec->time, 1,
                         rec->core);
        os << ",\"s\":\"t\"";
        writeArgsOpen(os);
        os << "\"tx\":" << tx << ",";
        writeHexAddr(os, rec->addr);
        os << "}}";
    }

    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

} // namespace obs
} // namespace espnuca

#endif // ESPNUCA_OBS_TRACE_EXPORT_HPP_
