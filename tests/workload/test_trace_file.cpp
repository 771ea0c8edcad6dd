/**
 * @file
 * Trace record/replay tests: format round trip, comments, strict
 * parsing with named errors, capture-through behaviour.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "workload/trace_file.hpp"
#include "workload/trace_gen.hpp"

namespace espnuca {
namespace {

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TraceFile, RoundTrip)
{
    const std::string path = tempPath("espnuca_rt.trace");
    {
        TraceRecorder rec(path);
        rec.record({3, AccessType::Load, 0xABCD40, true});
        rec.record({0, AccessType::Store, 0x40, false});
        rec.record({7, AccessType::Ifetch, 0xFFFF80, false});
        EXPECT_EQ(rec.recorded(), 3u);
    }
    FileTraceSource src(path);
    TraceOp op;
    ASSERT_TRUE(src.next(op));
    EXPECT_EQ(op.gap, 3u);
    EXPECT_EQ(op.type, AccessType::Load);
    EXPECT_EQ(op.addr, 0xABCD40u);
    EXPECT_TRUE(op.dependsOnPrev);
    ASSERT_TRUE(src.next(op));
    EXPECT_EQ(op.type, AccessType::Store);
    EXPECT_EQ(op.addr, 0x40u);
    EXPECT_FALSE(op.dependsOnPrev);
    ASSERT_TRUE(src.next(op));
    EXPECT_EQ(op.type, AccessType::Ifetch);
    EXPECT_FALSE(src.next(op));
    std::filesystem::remove(path);
}

TEST(TraceFile, CommentsAndBlankLinesSkipped)
{
    const std::string path = tempPath("espnuca_cm.trace");
    {
        std::ofstream out(path);
        out << "# header comment\n\n2 L 1000 0\n# middle\n1 S 2000 1\n";
    }
    FileTraceSource src(path);
    TraceOp op;
    ASSERT_TRUE(src.next(op));
    EXPECT_EQ(op.addr, 0x1000u);
    ASSERT_TRUE(src.next(op));
    EXPECT_EQ(op.addr, 0x2000u);
    EXPECT_TRUE(op.dependsOnPrev);
    EXPECT_FALSE(src.next(op));
    std::filesystem::remove(path);
}

TEST(TraceFile, MissingFileIsFatal)
{
    EXPECT_DEATH({ FileTraceSource src("/nonexistent/nowhere.trace"); },
                 ".*");
}

TEST(TraceFile, MalformedLineThrowsNamingFileAndLine)
{
    const std::string path = tempPath("espnuca_bad.trace");
    {
        std::ofstream out(path);
        out << "# header\n2 L 1000 0\nnot a trace line\n";
    }
    FileTraceSource src(path);
    TraceOp op;
    ASSERT_TRUE(src.next(op));
    try {
        src.next(op);
        FAIL() << "malformed line accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(std::string(e.what()).rfind(path + ":3: ", 0), 0u)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(TraceFile, LineParserIsStrict)
{
    TraceOp op;
    const auto error = [&op](const std::string &line) {
        try {
            parseTraceLine(line, "t", 7, op);
        } catch (const TraceFormatError &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    // The address is whole hex: no junk after it, no non-hex start.
    EXPECT_EQ(error("1 L 40zz 0"), "t:7: address: trailing junk in '40zz'");
    EXPECT_EQ(error("1 L zz 0"), "t:7: address: bad number 'zz'");
    EXPECT_EQ(error("1 L -40 0"), "t:7: address: bad number '-40'");
    EXPECT_EQ(error("x L 40 0"), "t:7: gap: bad number 'x'");
    EXPECT_EQ(error("4294967296 L 40 0"),
              "t:7: gap: '4294967296' out of range");
    EXPECT_EQ(error("1 Load 40 0"), "t:7: unknown access type 'Load'");
    EXPECT_EQ(error("1 L 40 2"), "t:7: dep must be 0 or 1, got '2'");
    EXPECT_NE(error("1 L 40"), "accepted");
    EXPECT_NE(error("1 L 40 0 9"), "accepted");
    ASSERT_TRUE(parseTraceLine("3 I abcd40 1", "t", 1, op));
    EXPECT_EQ(op.gap, 3u);
    EXPECT_EQ(op.type, AccessType::Ifetch);
    EXPECT_EQ(op.addr, 0xABCD40u);
    EXPECT_TRUE(op.dependsOnPrev);
    EXPECT_FALSE(parseTraceLine("# comment", "t", 2, op));
    EXPECT_FALSE(parseTraceLine("", "t", 3, op));
}

TEST(TraceFile, RecordingSourcePassesThrough)
{
    const std::string path = tempPath("espnuca_cap.trace");
    SystemConfig cfg;
    StreamParams p;
    p.ops = 50;
    p.hotBytes = 64 * 1024;
    {
        RecordingSource rec(
            std::make_unique<SyntheticSource>(cfg, p, 9), path);
        TraceOp op;
        int n = 0;
        while (rec.next(op))
            ++n;
        EXPECT_EQ(n, 50);
    }
    // The captured file replays the identical stream.
    FileTraceSource replay(path);
    SyntheticSource fresh(cfg, p, 9);
    TraceOp a, b;
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(replay.next(a));
        ASSERT_TRUE(fresh.next(b));
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.type, b.type) << i;
        EXPECT_EQ(a.gap, b.gap) << i;
        EXPECT_EQ(a.dependsOnPrev, b.dependsOnPrev) << i;
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace espnuca
