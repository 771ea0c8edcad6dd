/**
 * @file
 * Seeded mutation fuzzing of the harness's one JSON reader and of every
 * artifact format read through it: point records, run-ledger lines,
 * heartbeats, quarantine lists, and raw jsonParse. Each case takes a
 * valid serialized record and applies a fixed, seeded number of byte
 * mutations (flip, truncate, insert, delete, duplicate). The CRC-framed
 * formats are also fuzzed with a mutated body under a recomputed
 * trailer, so the mutations reach the parser instead of stopping at
 * the checksum.
 *
 * Every call must return (accepting or rejecting) or throw a typed
 * PointFileError: no crash, no hang, no other exception. The suite is
 * deterministic and carries a ctest TIMEOUT; sanitizer builds run it
 * with the rest of ctest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/rng.hpp"
#include "harness/sweep.hpp"

namespace espnuca {
namespace {

constexpr int kCases = 2000;

/** Applies 1-4 seeded byte mutations per call. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::string
    operator()(std::string s)
    {
        const std::uint64_t n = 1 + rng_.below(4);
        for (std::uint64_t i = 0; i < n; ++i)
            mutateOnce(s);
        return s;
    }

  private:
    /** Half structural JSON bytes (the ones that steer a parser), half
     *  arbitrary bytes. */
    char
    byte()
    {
        static const std::string json = "{}[]\",:\\-+.0123456789eEtfnu ";
        if (rng_.chance(0.5))
            return json[rng_.below(json.size())];
        return static_cast<char>(rng_.below(256));
    }

    /** A random [pos, pos+len) range of at most `cap` bytes. */
    std::pair<std::size_t, std::size_t>
    range(const std::string &s, std::size_t cap)
    {
        const std::size_t pos = rng_.below(s.size());
        return {pos, 1 + rng_.below(std::min(cap, s.size() - pos))};
    }

    void
    mutateOnce(std::string &s)
    {
        const std::uint64_t op = rng_.below(5);
        if (s.empty() && op != 2)
            return;
        switch (op) {
        case 0: // flip one bit
            s[rng_.below(s.size())] ^=
                static_cast<char>(1u << rng_.below(8));
            break;
        case 1: // truncate
            s.resize(rng_.below(s.size()));
            break;
        case 2: // insert one byte
            s.insert(rng_.below(s.size() + 1), 1, byte());
            break;
        case 3: { // delete up to 4 bytes
            const auto [pos, len] = range(s, 4);
            s.erase(pos, len);
            break;
        }
        default: { // duplicate up to 16 bytes somewhere else
            const auto [pos, len] = range(s, 16);
            s.insert(rng_.below(s.size() + 1), s.substr(pos, len));
            break;
        }
        }
    }

    Rng rng_;
};

struct Tally
{
    std::size_t accepted = 0;
    std::size_t rejected = 0;
};

std::string
asIs(std::string s)
{
    return s;
}

/** Give a mutated record body a valid CRC trailer, so the checksum
 *  passes and the parser sees the mutation. */
std::string
reframe(std::string body)
{
    if (body.empty() || body.back() != '}')
        body += '}';
    return jsonCrcAppend(body);
}

/** The record a CRC trailer covers. */
std::string
bodyOf(const std::string &record)
{
    std::string body;
    EXPECT_TRUE(jsonCrcStrip(record, body));
    return body;
}

/**
 * Feed kCases mutants of `valid`, each passed through `frame`, to
 * `read` (which reports whether it accepted the input). A typed
 * PointFileError counts as a rejection; anything else fails the test.
 */
template <typename Frame, typename Read>
Tally
fuzz(const std::string &valid, std::uint64_t seed, Frame frame, Read read)
{
    EXPECT_TRUE(read(frame(valid))) << "the unmutated input must read";
    Mutator mutate(seed);
    Tally t;
    for (int i = 0; i < kCases; ++i) {
        const std::string input = frame(mutate(valid));
        try {
            ++(read(input) ? t.accepted : t.rejected);
        } catch (const PointFileError &) {
            ++t.rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "case " << i << " threw " << e.what()
                          << " on: " << input;
        }
    }
    return t;
}

PointRecord
samplePoint()
{
    PointRecord rec;
    rec.bench = "fig07_onchip_offchip";
    rec.hash = 0xfedcba9876543210ULL;
    rec.index = 3;
    rec.total = 36;
    rec.key = jsonQuote(std::string("esp-nuca\x1f") + "apache");
    rec.arch = jsonQuote("esp-nuca");
    rec.workload = jsonQuote("apache");
    rec.build = "{\"describe\":\"v1-3-gabc\",\"config_digest\":"
                "\"0011223344556677\"}";
    rec.config = "{\"runs\":2,\"ops\":1000,\"warmup\":0.25}";
    rec.point = "{\"arch\":\"esp-nuca\",\"cpi\":1.5,\"levels\":[1,2e-3,"
                "{\"s\":\"a\\\"b\\\\c\"}],\"failures\":[]}";
    return rec;
}

/** readPointFile minus the file I/O: checksum, then parse. */
bool
readPoint(const std::string &doc)
{
    PointRecord rec;
    return parsePointRecord(verifyPointChecksum(doc, "fuzz"), rec);
}

TEST(ArtifactFuzz, RawJsonParse)
{
    const std::string doc =
        "{\n  \"name\": \"fig \\\"7\\\"\\n\\u00e9\",\n  \"n\": -12.5e+3,"
        "\n  \"big\": 18446744073709551615,\n  \"flags\": [true, false, "
        "null],\n  \"nest\": {\"a\": [[], {}, [1, [2, [3]]]]}\n}\n";
    // Every accepted document's spans stay inside the source and are
    // themselves a complete value of the same kind.
    const auto read = [](const std::string &text) {
        JsonValue v;
        if (!jsonParse(text, v))
            return false;
        const auto check = [&](const JsonValue &x, auto &self) -> void {
            ASSERT_LE(x.offset + x.length, text.size());
            JsonValue again;
            ASSERT_TRUE(jsonParse(x.span(text), again)) << x.span(text);
            EXPECT_EQ(again.kind, x.kind);
            for (const auto &m : x.members)
                self(m.second, self);
            for (const JsonValue &item : x.items)
                self(item, self);
        };
        check(v, check);
        return true;
    };
    const Tally t = fuzz(doc, 1, asIs, read);
    EXPECT_GT(t.accepted, 0u);
    EXPECT_GT(t.rejected, 0u);
}

TEST(ArtifactFuzz, PointRecord)
{
    const std::string record = pointRecordJson(samplePoint());
    const Tally raw = fuzz(record, 2, asIs, readPoint);
    EXPECT_GT(raw.rejected, 0u);
    const Tally body = fuzz(bodyOf(record), 3, reframe, readPoint);
    EXPECT_GT(body.accepted, 0u);
    EXPECT_GT(body.rejected, 0u);
}

TEST(ArtifactFuzz, LedgerLine)
{
    LedgerEvent e;
    e.event = "point-finish";
    e.pointHash = 0x00000000deadbeefULL;
    e.index = 11;
    e.arch = "sp-nuca";
    e.workload = "oltp";
    e.value = 1234;
    e.detail = "attempt 2: \"stall\"\n\tat bank 3";
    e.run = "0123456789abcdef";
    e.seq = 7;
    e.wallMs = 1700000000000ULL;
    e.pid = 4242;
    e.role = "worker";
    e.shard = 1;
    e.build = "v1-3-gabc";
    const std::string line = ledgerEventJson(e);
    const auto read = [](const std::string &text) {
        LedgerEvent out;
        return parseLedgerEvent(text, out);
    };
    const Tally raw = fuzz(line, 4, asIs, read);
    EXPECT_GT(raw.rejected, 0u);
    const Tally body = fuzz(bodyOf(line), 5, reframe, read);
    EXPECT_GT(body.accepted, 0u);
    EXPECT_GT(body.rejected, 0u);
}

TEST(ArtifactFuzz, Heartbeat)
{
    Heartbeat hb;
    hb.pid = 99;
    hb.seq = 12;
    hb.state = "point-start";
    hb.pointHash = 0x0123456789abcdefULL;
    hb.index = 5;
    hb.arch = "d-nuca";
    hb.workload = "jbb";
    hb.done = 4;
    hb.total = 9;
    hb.wallMs = 1700000000000ULL;
    const auto read = [](const std::string &text) {
        Heartbeat out;
        return parseHeartbeat(text, out);
    };
    const Tally t = fuzz(heartbeatJson(hb) + "\n", 6, asIs, read);
    EXPECT_GT(t.accepted, 0u);
    EXPECT_GT(t.rejected, 0u);
}

TEST(ArtifactFuzz, QuarantineList)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("espnuca_fuzz_quarantine_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<QuarantineRecord> records(2);
    records[0].hash = 0xaaULL;
    records[0].index = 7;
    records[0].arch = "esp-nuca";
    records[0].workload = "apache";
    records[0].deaths = 3;
    records[0].error = "died on signal 11 \"SEGV\"";
    records[1].hash = 0x1111111111111111ULL;
    records[1].index = 2;
    records[1].arch = "shared";
    records[1].workload = "oltp";
    records[1].deaths = 5;
    records[1].error = "stalled";
    const auto read = [&](const std::string &text) {
        std::ofstream(quarantinePath(dir),
                      std::ios::binary | std::ios::trunc)
            << text;
        readQuarantine(dir);
        return true; // a malformed list throws PointFileError
    };
    const Tally t = fuzz(quarantineJson(records) + "\n", 7, asIs, read);
    EXPECT_GT(t.accepted, 0u);
    EXPECT_GT(t.rejected, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace espnuca
