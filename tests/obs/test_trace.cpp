/**
 * @file
 * Transaction tracing tests: TraceRecord round-trip through the Tracer,
 * ring-buffer tail semantics, category filtering, Chrome trace_event
 * export shape, the watchdog's trace-tail post-mortem, and the
 * guarantee that tracing never perturbs simulation statistics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/fault_plan.hpp"
#include "harness/system.hpp"
#include "obs/trace_buffer.hpp"
#include "obs/trace_export.hpp"

namespace espnuca {
namespace {

TEST(Tracer, DisabledByDefaultRecordsNothing)
{
    obs::Tracer t;
    EXPECT_FALSE(t.enabled());
    t.record(obs::TraceKind::TxIssue, 10, 1, 0x40, 0, 0, 0);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, FullModeRoundTripsRecords)
{
    obs::Tracer t;
    t.enableFull();
    t.record(obs::TraceKind::TxIssue, 100, 7, 0xABCD40, 0, 3, 1);
    t.record(obs::TraceKind::BankProbe, 120, 7, 0xABCD40, 5, 3, 2);
    t.record(obs::TraceKind::TxComplete, 150, 7, 0xABCD40, 1, 3, 4);
    const auto recs = t.snapshot();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].kind, obs::TraceKind::TxIssue);
    EXPECT_EQ(recs[0].time, 100u);
    EXPECT_EQ(recs[0].tx, 7u);
    EXPECT_EQ(recs[0].addr, 0xABCD40u);
    EXPECT_EQ(recs[0].core, 3u);
    EXPECT_EQ(recs[1].kind, obs::TraceKind::BankProbe);
    EXPECT_EQ(recs[1].a, 5u);
    EXPECT_EQ(recs[1].b, 2u);
    EXPECT_EQ(recs[2].kind, obs::TraceKind::TxComplete);
    EXPECT_EQ(recs[2].b, 4u);
}

TEST(Tracer, RecordIs32Bytes)
{
    EXPECT_EQ(sizeof(obs::TraceRecord), 32u);
}

TEST(Tracer, RingKeepsOnlyTheTailInOrder)
{
    obs::Tracer t;
    t.enableRing(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(obs::TraceKind::Hop, i, i, 0, 0, 0, 0);
    const auto recs = t.snapshot();
    ASSERT_EQ(recs.size(), 4u);
    // Oldest-first: records 6..9 survive.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(recs[i].time, 6 + i);
    const auto last2 = t.tail(2);
    ASSERT_EQ(last2.size(), 2u);
    EXPECT_EQ(last2[0].time, 8u);
    EXPECT_EQ(last2[1].time, 9u);
}

TEST(Tracer, CategoryMaskFiltersRecords)
{
    obs::Tracer t;
    t.enableFull(obs::kCatTx);
    t.record(obs::TraceKind::TxIssue, 1, 1, 0, 0, 0, 0);    // tx: kept
    t.record(obs::TraceKind::BankProbe, 2, 1, 0, 0, 0, 0);  // bank: no
    t.record(obs::TraceKind::MemFill, 3, 1, 0, 0, 0, 0);    // core: no
    t.record(obs::TraceKind::Hop, 4, 1, 0, 0, 0, 0);        // tx: kept
    const auto recs = t.snapshot();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].kind, obs::TraceKind::TxIssue);
    EXPECT_EQ(recs[1].kind, obs::TraceKind::Hop);
}

TEST(Tracer, ParseTraceFilterWords)
{
    std::uint8_t mask = 0;
    EXPECT_TRUE(obs::parseTraceFilter("all", mask));
    EXPECT_EQ(mask, obs::kCatAll);
    EXPECT_TRUE(obs::parseTraceFilter("tx", mask));
    EXPECT_EQ(mask, obs::kCatTx);
    EXPECT_TRUE(obs::parseTraceFilter("bank", mask));
    EXPECT_EQ(mask, obs::kCatBank | obs::kCatTx);
    EXPECT_TRUE(obs::parseTraceFilter("core", mask));
    EXPECT_EQ(mask, obs::kCatCore | obs::kCatTx);
    EXPECT_FALSE(obs::parseTraceFilter("bogus", mask));
}

TEST(TraceExport, ChromeJsonHasSpansAndInstants)
{
    obs::Tracer t;
    t.enableFull();
    t.record(obs::TraceKind::TxIssue, 100, 7, 0x40, 0, 2, 0);
    t.record(obs::TraceKind::Hop, 110, 7, 0, 3, 0, 1);
    t.record(obs::TraceKind::BankProbe, 120, 7, 0x40, 5, 2, 1);
    t.record(obs::TraceKind::TxComplete, 150, 7, 0x40, 1, 2, 2);
    t.record(obs::TraceKind::TxIssue, 160, 8, 0x80, 0, 1, 0); // dangling
    std::ostringstream os;
    obs::writeChromeTrace(os, t.snapshot());
    const std::string j = os.str();
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    // The completed transaction became a span with the issue->complete
    // duration, on the transactions pid, tracked by core.
    EXPECT_NE(j.find("\"ph\":\"X\",\"ts\":100"), std::string::npos);
    EXPECT_NE(j.find("\"dur\":50"), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"probe\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"hop\""), std::string::npos);
    // The in-flight issue degraded to an instant, not dropped.
    EXPECT_NE(j.find("\"name\":\"tx-issue\""), std::string::npos);
    // Track metadata for the Perfetto UI.
    EXPECT_NE(j.find("process_name"), std::string::npos);
    EXPECT_NE(j.find("\"tx\":7"), std::string::npos);
}

TEST(TraceExport, EmptyCaptureIsStillValidJson)
{
    std::ostringstream os;
    obs::writeChromeTrace(os, {});
    const std::string j = os.str();
    EXPECT_NE(j.find("{\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("],\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceSystem, TracedRunEmitsFullTransactionLifecycles)
{
    SystemConfig cfg;
    const Workload wl = makeWorkload("apache", cfg, 3000, 5);
    System sys(cfg, "esp-nuca", wl, 5, 0.0);
    sys.enableTracing();
    sys.run();
    std::uint64_t issues = 0, completes = 0, probes = 0, hops = 0;
    for (const auto &r : sys.tracer().snapshot()) {
        switch (r.kind) {
        case obs::TraceKind::TxIssue: ++issues; break;
        case obs::TraceKind::TxComplete: ++completes; break;
        case obs::TraceKind::BankProbe: ++probes; break;
        case obs::TraceKind::Hop: ++hops; break;
        default: break;
        }
    }
    EXPECT_GT(issues, 0u);
    EXPECT_EQ(issues, completes); // every transaction drained
    EXPECT_GT(probes, 0u);
    EXPECT_GT(hops, 0u);
}

TEST(TraceSystem, TracingDoesNotPerturbStatistics)
{
    SystemConfig cfg;
    const RunResult plain =
        simulate(cfg, "esp-nuca", "apache", 3000, 9, 0.0);
    System traced(cfg, "esp-nuca", makeWorkload("apache", cfg, 3000, 9),
                  9, 0.0);
    traced.enableTracing();
    const RunResult r = traced.run();
    EXPECT_EQ(plain.cycles, r.cycles);
    EXPECT_EQ(plain.throughput, r.throughput);
    EXPECT_EQ(plain.networkFlits, r.networkFlits);
    EXPECT_EQ(plain.offChipAccesses, r.offChipAccesses);
    EXPECT_EQ(plain.l2DemandHits, r.l2DemandHits);
}

TEST(TraceSystem, WatchdogStallShipsWithTraceTail)
{
    // A dropped completion stalls the protocol; the WatchdogError dump
    // must carry the ring-buffer tail of recent trace records.
    SystemConfig cfg;
    const FaultPlan plan =
        FaultPlan::parse("drop-tx=40;watchdog=20000:2000000");
    try {
        simulate(cfg, "esp-nuca", "apache", 3000, 11, 0.0, &plan);
        FAIL() << "stalled run completed";
    } catch (const WatchdogError &e) {
        const std::string dump = e.dump();
        EXPECT_NE(dump.find("trace tail"), std::string::npos);
        // The tail holds the last pre-stall activity; hop records are
        // the densest kind, so at least one must be present.
        EXPECT_NE(dump.find("hop"), std::string::npos);
    }
}

} // namespace
} // namespace espnuca
