/**
 * @file
 * Seeded mutation fuzzing of the harness's one JSON reader and of every
 * artifact format read through it: point records, run-ledger lines,
 * heartbeats, quarantine lists, and raw jsonParse; of the FaultPlan
 * grammar; of the trace v1 line reader, fed a recorded stream; and of
 * the binary snapshot loader, fed a real esp-nuca checkpoint. Each
 * case takes a
 * valid serialized record and applies a fixed, seeded number of byte
 * mutations (flip, truncate, insert, delete, duplicate). The CRC-framed
 * formats are also fuzzed with a mutated body under a recomputed
 * trailer, so the mutations reach the parser instead of stopping at
 * the checksum.
 *
 * Every call must return (accepting or rejecting) or throw a typed
 * PointFileError (FaultPlanError for fault plans, TraceFormatError for
 * trace lines, SnapshotError for the snapshot loader): no crash, no
 * hang, no other exception. The suite is deterministic and carries a
 * ctest TIMEOUT; sanitizer builds run it with the rest of ctest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "workload/trace_file.hpp"

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
fuzz(const std::string &valid, std::uint64_t seed, Frame frame, Read read,
     int cases = kCases)
{
    EXPECT_TRUE(read(frame(valid))) << "the unmutated input must read";
    Mutator mutate(seed);
    Tally t;
    for (int i = 0; i < cases; ++i) {
        const std::string input = frame(mutate(valid));
        try {
            ++(read(input) ? t.accepted : t.rejected);
        } catch (const PointFileError &) {
            ++t.rejected;
        } catch (const std::exception &e) {
            // Binary images are too long to print usefully.
            ADD_FAILURE() << "case " << i << " threw " << e.what()
                          << " on: "
                          << (input.size() <= 4096
                                  ? input
                                  : std::to_string(input.size()) +
                                        " bytes");
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

TEST(ArtifactFuzz, FaultPlan)
{
    // An accepted mutant must also print back to text that parses to
    // itself, and, when it validates against the default machine,
    // resolve without throwing.
    const SystemConfig cfg;
    const auto read = [&](const std::string &text) {
        FaultPlan p;
        try {
            p = FaultPlan::parse(text);
        } catch (const FaultPlanError &) {
            return false;
        }
        const std::string canon = p.toString();
        EXPECT_EQ(FaultPlan::parse(canon).toString(), canon) << text;
        try {
            p.validate(cfg);
        } catch (const FaultPlanError &) {
            return true; // parsed, but not for this machine
        }
        EXPECT_EQ(p.bankRemap(cfg).size(), cfg.l2Banks) << text;
        EXPECT_EQ(p.resolveWayMasks(cfg).size(), cfg.l2Banks) << text;
        return true;
    };
    // The CI acceptance plan, then the CI induced-stall plan.
    const Tally acceptance =
        fuzz("seed=5;bank=6;ways=*:0x3;link=1:e:0:50000:4", 10, asIs, read);
    EXPECT_GT(acceptance.accepted, 0u);
    EXPECT_GT(acceptance.rejected, 0u);
    const Tally stall = fuzz("drop-tx=40;watchdog=20000", 11, asIs, read);
    EXPECT_GT(stall.accepted, 0u);
    EXPECT_GT(stall.rejected, 0u);
}

TEST(ArtifactFuzz, TraceV1)
{
    // A recorded synthetic stream, header comment included. A mutant is
    // read line by line as FileTraceSource reads it; an accepted line
    // must print back, in the recorder's format, to a line that parses
    // to the same reference.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("espnuca_fuzz_trace_" + std::to_string(::getpid())))
            .string();
    {
        const SystemConfig cfg;
        StreamParams p;
        p.ops = 24;
        RecordingSource rec(std::make_unique<SyntheticSource>(cfg, p, 3),
                            path);
        TraceOp op;
        while (rec.next(op)) {
        }
    }
    std::ifstream in(path);
    const std::string valid((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    const auto read = [](const std::string &text) {
        std::istringstream lines(text);
        std::string line;
        std::uint64_t n = 0;
        try {
            TraceOp op;
            while (std::getline(lines, line)) {
                if (!parseTraceLine(line, "fuzz", ++n, op))
                    continue;
                std::ostringstream out;
                out << op.gap << ' '
                    << (op.type == AccessType::Load    ? 'L'
                        : op.type == AccessType::Store ? 'S'
                                                       : 'I')
                    << ' ' << std::hex << op.addr << std::dec << ' '
                    << (op.dependsOnPrev ? 1 : 0);
                TraceOp back;
                EXPECT_TRUE(parseTraceLine(out.str(), "fuzz", n, back));
                EXPECT_EQ(back.gap, op.gap) << line;
                EXPECT_EQ(back.type, op.type) << line;
                EXPECT_EQ(back.addr, op.addr) << line;
                EXPECT_EQ(back.dependsOnPrev, op.dependsOnPrev) << line;
            }
        } catch (const TraceFormatError &e) {
            EXPECT_EQ(std::string(e.what()).rfind("fuzz:", 0), 0u)
                << e.what();
            return false;
        }
        return true;
    };
    const Tally t = fuzz(valid, 13, asIs, read);
    EXPECT_GT(t.accepted, 0u);
    EXPECT_GT(t.rejected, 0u);
}

/** Append the CRC32C trailer a snapshot file carries. */
std::string
withSnapshotCrc(std::string body)
{
    const std::uint32_t crc = crc32c(body);
    for (int i = 0; i < 4; ++i)
        body += static_cast<char>((crc >> (8 * i)) & 0xFF);
    return body;
}

TEST(SnapshotFuzz, EspNucaCheckpoint)
{
    // Real warmup checkpoints of a small esp-nuca machine (256 KB of
    // L2 keeps each case cheap; every section is still present), one
    // unsampled and one whose sampler section carries a timeseries.
    SystemConfig cfg;
    cfg.l2SizeBytes = 256 * 1024;
    constexpr std::uint64_t kSeed = 5;
    constexpr Cycle kInterval = 2000;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("espnuca_fuzz_snapshot_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/point.ckpt";
    const auto checkpoint = [&](Cycle interval) {
        std::filesystem::remove(path);
        simulatePhased(cfg, "esp-nuca", "apache", 1000, kSeed, 0.5,
                       nullptr, path, nullptr, nullptr, interval);
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    const std::string file = checkpoint(0);
    const std::string sampled = checkpoint(kInterval);
    ASSERT_GT(file.size(), 4u);
    const SnapshotIdentity id = SnapshotReader::fromFile(path).header();
    const Workload tail = makeWorkload("apache", cfg, 500, kSeed);

    // The warm-restore path of simulatePhased, minus the fallback: a
    // SnapshotError (checksum mismatch included) or a foreign identity
    // is a rejection.
    const auto reader = [&](Cycle interval) {
        return [&, interval](const std::string &image) {
            std::ofstream(path, std::ios::binary | std::ios::trunc)
                << image;
            try {
                SnapshotReader r = SnapshotReader::fromFile(path);
                if (!(r.header() == id))
                    return false;
                System sys(cfg, "esp-nuca", "apache",
                           std::vector<std::unique_ptr<TraceSource>>(
                               cfg.numCores),
                           kSeed, 0.0, 0, nullptr);
                if (interval > 0)
                    sys.enableMetrics(interval);
                sys.loadSnapshot(r, tail, kSeed);
                r.finish();
                return true;
            } catch (const SnapshotError &) {
                return false;
            }
        };
    };
    const auto read = reader(0);
    constexpr int kSnapshotCases = 400;
    const Tally raw = fuzz(file, 8, asIs, read, kSnapshotCases);
    EXPECT_EQ(raw.accepted, 0u) << "a mutant passed the checksum";
    const Tally body = fuzz(file.substr(0, file.size() - 4), 9,
                            withSnapshotCrc, read, kSnapshotCases);
    EXPECT_GT(body.accepted, 0u);
    EXPECT_GT(body.rejected, 0u);

    // Sampling does not perturb the machine state, so the sampled
    // body equals the unsampled one up to the closing sampler flag,
    // which is followed by the sampler section (interval, name table,
    // values). Mutating only the bytes past the flag lands every
    // mutation in that section.
    const std::size_t flag = file.size() - 5;
    ASSERT_EQ(file[flag], 0);
    ASSERT_EQ(sampled[flag], 1);
    const std::string prefix = sampled.substr(0, flag + 1);
    const std::string section =
        sampled.substr(prefix.size(), sampled.size() - 4 - prefix.size());
    ASSERT_GT(section.size(), 64u);
    const Tally samples = fuzz(
        section, 12,
        [&prefix](std::string s) { return withSnapshotCrc(prefix + s); },
        reader(kInterval), kSnapshotCases / 2);
    EXPECT_GT(samples.accepted, 0u);
    EXPECT_GT(samples.rejected, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace espnuca
