/**
 * @file
 * Run-ledger tests: record framing (CRC trailer, torn tails), identity
 * stamping, run-id inheritance and the append-only writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/ledger.hpp"

namespace espnuca {
namespace {

std::string
tempDir()
{
    char tmpl[] = "/tmp/espnuca-ledger-XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return std::string(dir);
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(Ledger, EventRoundTrips)
{
    LedgerEvent e;
    e.event = "point-finish";
    e.pointHash = 0xdeadbeefcafef00dULL;
    e.index = 7;
    e.arch = "esp-nuca";
    e.workload = "apache";
    e.value = 1234;
    e.detail = "with \"quotes\" and\nnewline";
    e.run = "0123456789abcdef";
    e.seq = 42;
    e.wallMs = 1700000000000ULL;
    e.pid = 999;
    e.role = "worker";
    e.shard = 3;
    e.build = "v0-test";

    const std::string line = ledgerEventJson(e);
    LedgerEvent back;
    ASSERT_TRUE(parseLedgerEvent(line, back));
    EXPECT_EQ(back.event, e.event);
    EXPECT_EQ(back.pointHash, e.pointHash);
    EXPECT_EQ(back.index, e.index);
    EXPECT_EQ(back.arch, e.arch);
    EXPECT_EQ(back.workload, e.workload);
    EXPECT_EQ(back.value, e.value);
    EXPECT_EQ(back.detail, e.detail);
    EXPECT_EQ(back.run, e.run);
    EXPECT_EQ(back.seq, e.seq);
    EXPECT_EQ(back.wallMs, e.wallMs);
    EXPECT_EQ(back.pid, e.pid);
    EXPECT_EQ(back.role, e.role);
    EXPECT_EQ(back.shard, e.shard);
    EXPECT_EQ(back.build, e.build);
}

TEST(Ledger, NonPointEventOmitsPointFields)
{
    LedgerEvent e;
    e.event = "run-start";
    e.run = "0123456789abcdef";
    e.role = "supervisor";
    const std::string line = ledgerEventJson(e);
    EXPECT_EQ(line.find("point_hash"), std::string::npos);
    LedgerEvent back;
    ASSERT_TRUE(parseLedgerEvent(line, back));
    EXPECT_EQ(back.pointHash, 0u);
}

TEST(Ledger, FlippedByteAndTornTailRejected)
{
    LedgerEvent e;
    e.event = "shard-start";
    e.run = "0123456789abcdef";
    e.role = "worker";
    const std::string line = ledgerEventJson(e);

    std::string flipped = line;
    flipped[line.size() / 2] ^= 0x01;
    LedgerEvent out;
    EXPECT_FALSE(parseLedgerEvent(flipped, out));

    // A SIGKILL can tear at most the final line: every proper prefix
    // must be rejected, never half-parsed.
    for (std::size_t n = 1; n < line.size(); n += 7)
        EXPECT_FALSE(parseLedgerEvent(line.substr(0, n), out));
    EXPECT_FALSE(parseLedgerEvent("", out));
    EXPECT_FALSE(parseLedgerEvent("{\"schema\":\"other\"}", out));
}

TEST(Ledger, MistypedFieldRejectedOptionalFieldMayBeAbsent)
{
    LedgerEvent e;
    e.event = "point-start";
    e.pointHash = 0x1234;
    e.index = 3;
    e.detail = "why";
    e.run = "0123456789abcdef";
    e.role = "worker";
    std::string body;
    ASSERT_TRUE(jsonCrcStrip(ledgerEventJson(e), body));
    // Re-frame an edited body under a valid checksum, so only the
    // parser can refuse it.
    const auto swap = [&](const std::string &from, const std::string &to) {
        std::string doc = body;
        doc.replace(doc.find(from), from.size(), to);
        return jsonCrcAppend(doc);
    };
    LedgerEvent out;
    EXPECT_FALSE(parseLedgerEvent(swap("\"index\":3", "\"index\":3.5"), out));
    EXPECT_FALSE(parseLedgerEvent(
        swap("\"point_hash\":\"0000000000001234\"", "\"point_hash\":\"1234\""),
        out));
    EXPECT_FALSE(
        parseLedgerEvent(swap("\"detail\":\"why\"", "\"detail\":1"), out));
    EXPECT_FALSE(parseLedgerEvent(swap("\"seq\":0", "\"seq\":\"0\""), out));
    // The point fields and detail are optional.
    ASSERT_TRUE(parseLedgerEvent(swap(",\"detail\":\"why\"", ""), out));
    EXPECT_TRUE(out.detail.empty());
    EXPECT_EQ(out.pointHash, 0x1234u);
}

TEST(Ledger, MakeRunIdIs16Hex)
{
    const std::string id = makeRunId();
    ASSERT_EQ(id.size(), 16u);
    for (char c : id)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << c;
}

TEST(Ledger, InheritedRunIdReadsEnv)
{
    ::unsetenv(kRunIdEnv);
    EXPECT_TRUE(inheritedRunId().empty());
    ::setenv(kRunIdEnv, "00000000deadbeef", 1);
    EXPECT_EQ(inheritedRunId(), "00000000deadbeef");
    ::unsetenv(kRunIdEnv);
}

TEST(Ledger, PathNaming)
{
    EXPECT_EQ(ledgerPathFor("d", true), "d/events-supervisor.jsonl");
    EXPECT_EQ(ledgerPathFor("d", false, 4), "d/events-shard-4.jsonl");
}

TEST(Ledger, WriterStampsIdentityAndSequence)
{
    const std::string dir = tempDir();
    const std::string path = ledgerPathFor(dir, /*supervisor=*/false, 2);
    {
        RunLedger ledger;
        ASSERT_TRUE(ledger.open(path, "00000000000000aa", "v-test",
                                "worker", 2));
        ledger.event("shard-start", 5, "fig07");
        ledger.pointEvent("point-start", 0x1234, 0, "esp-nuca", "apache");
        ledger.event("shard-finish", 5);
    }
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        LedgerEvent e;
        ASSERT_TRUE(parseLedgerEvent(lines[i], e)) << lines[i];
        EXPECT_EQ(e.run, "00000000000000aa");
        EXPECT_EQ(e.seq, i + 1); // per-writer monotonic, 1-based
        EXPECT_EQ(e.role, "worker");
        EXPECT_EQ(e.shard, 2u);
        EXPECT_EQ(e.build, "v-test");
        EXPECT_EQ(e.pid, static_cast<std::uint64_t>(::getpid()));
        EXPECT_GT(e.wallMs, 0u);
    }
    LedgerEvent point;
    ASSERT_TRUE(parseLedgerEvent(lines[1], point));
    EXPECT_EQ(point.event, "point-start");
    EXPECT_EQ(point.pointHash, 0x1234u);
    EXPECT_EQ(point.arch, "esp-nuca");

    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(Ledger, ReopenAppends)
{
    const std::string dir = tempDir();
    const std::string path = ledgerPathFor(dir, /*supervisor=*/true);
    {
        RunLedger ledger;
        ASSERT_TRUE(
            ledger.open(path, "00000000000000bb", "v", "supervisor", 0));
        ledger.event("run-start");
    }
    {
        // A restarted supervisor appends; the earlier records survive.
        RunLedger ledger;
        ASSERT_TRUE(
            ledger.open(path, "00000000000000bb", "v", "supervisor", 0));
        ledger.event("run-finish");
    }
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    LedgerEvent first;
    LedgerEvent second;
    ASSERT_TRUE(parseLedgerEvent(lines[0], first));
    ASSERT_TRUE(parseLedgerEvent(lines[1], second));
    EXPECT_EQ(first.event, "run-start");
    EXPECT_EQ(second.event, "run-finish");

    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(Ledger, EmitWithoutOpenIsNoop)
{
    RunLedger ledger;
    ledger.event("orphan"); // must not crash or write anywhere
    EXPECT_FALSE(ledger.isOpen());
}

} // namespace
} // namespace espnuca
