/**
 * @file
 * Sweep-engine unit tests: shard-spec parsing, stable point hashing
 * and disjoint/complete shard partitioning, the raw-span JSON scanner,
 * verbatim re-framing through JsonWriter::raw, and the point-record
 * round trip espnuca-merge relies on.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "harness/sweep.hpp"

namespace espnuca {
namespace {

TEST(ShardSpec, ParsesWellFormedSpecs)
{
    const ShardSpec a = ShardSpec::parse("0/1");
    EXPECT_EQ(a.index, 0u);
    EXPECT_EQ(a.count, 1u);
    const ShardSpec b = ShardSpec::parse("3/8");
    EXPECT_EQ(b.index, 3u);
    EXPECT_EQ(b.count, 8u);
}

TEST(ShardSpec, RejectsMalformedSpecs)
{
    for (const char *bad : {"", "3", "/4", "3/", "4/4", "5/4", "a/4",
                            "1/b", "1/4/2", "-1/4", "1/ 4"})
        EXPECT_THROW(ShardSpec::parse(bad), std::invalid_argument)
            << bad;
}

ExperimentMatrix
smallMatrix()
{
    ExperimentConfig cfg;
    cfg.opsPerCore = 1000;
    cfg.runs = 1;
    ExperimentMatrix m(cfg);
    for (const char *a : {"shared", "private", "esp-nuca"})
        for (const char *w : {"apache", "gzip-4", "oltp", "CG"})
            m.add(a, w);
    return m;
}

TEST(PointHash, StableAndConfigSensitive)
{
    const ExperimentMatrix m = smallMatrix();
    const auto &e = m.entries().front();
    const std::uint64_t h = pointHash("fig", e);
    EXPECT_EQ(h, pointHash("fig", e)); // pure function
    EXPECT_NE(h, pointHash("other-bench", e));

    ExperimentMatrix::Entry mutated = e;
    mutated.cfg.opsPerCore += 1;
    EXPECT_NE(h, pointHash("fig", mutated));
}

TEST(PointHash, ShardsPartitionTheGridDisjointlyAndCompletely)
{
    const ExperimentMatrix m = smallMatrix();
    for (std::uint32_t count : {1u, 2u, 3u, 5u}) {
        std::set<std::string> seen;
        for (std::uint32_t shard = 0; shard < count; ++shard)
            for (const auto &e : m.entries()) {
                if (pointHash("fig", e) % count == shard) {
                    EXPECT_TRUE(seen.insert(e.key).second)
                        << "point owned by two shards: " << e.key;
                }
            }
        EXPECT_EQ(seen.size(), m.entries().size())
            << "grid not covered with " << count << " shards";
    }
}

// Regression: raw FNV-1a's low bit is the XOR parity of the input
// bytes, and the default point key duplicates (arch, workload), so
// without a finalizing mix every point in a grid hashed to the same
// side of `hash % 2` — shard 1/2 owned nothing. A 2-way split of any
// realistic grid must give both shards work.
TEST(PointHash, TwoWaySplitGivesBothShardsWork)
{
    const ExperimentMatrix m = smallMatrix();
    std::size_t owned[2] = {0, 0};
    for (const auto &e : m.entries())
        ++owned[pointHash("fig", e) % 2];
    EXPECT_GT(owned[0], 0u);
    EXPECT_GT(owned[1], 0u);
}

TEST(JsonWriterRaw, ReframedSpansAreByteIdentical)
{
    // A value serialized standalone, injected via raw() into a larger
    // document, must re-extract byte-identically — the invariant the
    // whole merge path rests on.
    JsonWriter inner;
    inner.beginObject();
    inner.field("x", std::uint64_t{7});
    inner.field("s", "a\"b");
    inner.endObject();
    const std::string span = inner.str();

    JsonWriter outer;
    outer.beginObject();
    outer.field("head", std::uint64_t{1});
    outer.key("v").raw(span);
    outer.key("arr").beginArray();
    outer.raw(span);
    outer.raw(span);
    outer.endArray();
    outer.endObject();
    const std::string doc = outer.str();

    JsonValue v;
    ASSERT_TRUE(jsonParse(doc, v));
    EXPECT_EQ(v.find("v")->span(doc), span);
    EXPECT_EQ(v.find("arr")->span(doc), "[" + span + "," + span + "]");
    EXPECT_EQ(v.find("arr")->items[1].span(doc), span);
}

TEST(PointRecord, RoundTripsThroughItsFileFormat)
{
    PointRecord rec;
    rec.bench = "fig07_onchip_offchip";
    rec.hash = 0x0123456789abcdefULL;
    rec.index = 4;
    rec.total = 36;
    rec.key = jsonQuote(std::string("esp-nuca\x1f") + "apache");
    rec.arch = jsonQuote("esp-nuca");
    rec.workload = jsonQuote("apache");
    rec.build = "{\"describe\":\"v1\",\"config_digest\":\"00\"}";
    rec.config = "{\"runs\":2}";
    rec.point = "{\"arch\":\"esp-nuca\",\"v\":[1,2]}";

    PointRecord back;
    ASSERT_TRUE(parsePointRecord(pointRecordJson(rec), back));
    EXPECT_EQ(back.bench, rec.bench);
    EXPECT_EQ(back.hash, rec.hash);
    EXPECT_EQ(back.index, rec.index);
    EXPECT_EQ(back.total, rec.total);
    EXPECT_EQ(back.key, rec.key);
    EXPECT_EQ(back.arch, rec.arch);
    EXPECT_EQ(back.workload, rec.workload);
    EXPECT_EQ(back.build, rec.build);
    EXPECT_EQ(back.config, rec.config);
    EXPECT_EQ(back.point, rec.point);
}

TEST(PointRecord, RejectsWrongSchemaAndTruncation)
{
    PointRecord rec;
    rec.bench = "b";
    rec.total = 1;
    rec.key = rec.arch = rec.workload = jsonQuote("x");
    rec.build = rec.config = rec.point = "{}";
    const std::string good = pointRecordJson(rec);

    PointRecord out;
    EXPECT_TRUE(parsePointRecord(good, out));
    EXPECT_FALSE(parsePointRecord("", out));
    EXPECT_FALSE(parsePointRecord("{\"schema\":\"bogus\"}", out));
    EXPECT_FALSE(
        parsePointRecord(good.substr(0, good.size() / 2), out));

    // Present but mistyped or malformed: rejected, never read as 0.
    const auto swap = [&](const std::string &from, const std::string &to) {
        std::string doc = good;
        doc.replace(doc.find(from), from.size(), to);
        return doc;
    };
    EXPECT_FALSE(parsePointRecord(swap("\"index\":0", "\"index\":\"0\""), out));
    EXPECT_FALSE(parsePointRecord(swap("\"total\":1", "\"total\":-1"), out));
    EXPECT_FALSE(
        parsePointRecord(swap("\"point\":{}", "\"point\":\"{}\""), out));
    EXPECT_FALSE(parsePointRecord(swap("\"arch\":\"x\"", "\"arch\":[]"), out));
}

TEST(ExperimentDigest, TracksResultAffectingKnobsOnly)
{
    ExperimentConfig a;
    ExperimentConfig b = a;
    EXPECT_EQ(experimentConfigDigest(a), experimentConfigDigest(b));

    b.jobs = 13; // scheduling-only: same results, same digest
    b.retryBackoffMs = 50;
    EXPECT_EQ(experimentConfigDigest(a), experimentConfigDigest(b));

    b = a;
    b.baseSeed += 1;
    EXPECT_NE(experimentConfigDigest(a), experimentConfigDigest(b));

    b = a;
    b.system.l2Ways *= 2;
    EXPECT_NE(experimentConfigDigest(a), experimentConfigDigest(b));

    // Phased warmup changes results; the directory path does not.
    b = a;
    b.checkpointDir = "/tmp/x";
    EXPECT_NE(experimentConfigDigest(a), experimentConfigDigest(b));
    ExperimentConfig c = b;
    c.checkpointDir = "/somewhere/else";
    EXPECT_EQ(experimentConfigDigest(b), experimentConfigDigest(c));
}

} // namespace
} // namespace espnuca
