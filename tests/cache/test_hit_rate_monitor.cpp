/**
 * @file
 * The ESP-NUCA nmax controller (paper 3.3): set-category assignment,
 * EMA bookkeeping, the equation-(3) update rule and the snapshot record.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "cache/hit_rate_monitor.hpp"

namespace espnuca {
namespace {

SystemConfig
monitorConfig(std::uint32_t period = 8)
{
    SystemConfig cfg;
    cfg.monitorPeriod = period;
    return cfg;
}

/** Locate the sampled sets of a monitor. */
struct Samples
{
    std::vector<std::uint32_t> reference, explorer, conventional;
};

Samples
findSamples(const HitRateMonitor &m, std::uint32_t num_sets)
{
    Samples s;
    for (std::uint32_t i = 0; i < num_sets; ++i) {
        switch (m.category(i)) {
          case SetCategory::Reference:
            s.reference.push_back(i);
            break;
          case SetCategory::Explorer:
            s.explorer.push_back(i);
            break;
          case SetCategory::SampledConventional:
            s.conventional.push_back(i);
            break;
          default:
            break;
        }
    }
    return s;
}

TEST(HitRateMonitor, PaperSampleCounts)
{
    const SystemConfig cfg = monitorConfig();
    HitRateMonitor m(cfg, 256, 16);
    const Samples s = findSamples(m, 256);
    EXPECT_EQ(s.reference.size(), 1u);
    EXPECT_EQ(s.explorer.size(), 1u);
    EXPECT_EQ(s.conventional.size(), 2u);
}

TEST(HitRateMonitor, SampledSetsAreSpread)
{
    const SystemConfig cfg = monitorConfig();
    HitRateMonitor m(cfg, 256, 16);
    const Samples s = findSamples(m, 256);
    // No two sampled sets adjacent; they span the index space.
    std::vector<std::uint32_t> all = s.reference;
    all.insert(all.end(), s.conventional.begin(), s.conventional.end());
    all.insert(all.end(), s.explorer.begin(), s.explorer.end());
    std::sort(all.begin(), all.end());
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_GT(all[i] - all[i - 1], 8u);
}

TEST(HitRateMonitor, NmaxDecreasesWhenConventionalLags)
{
    const SystemConfig cfg = monitorConfig(4);
    HitRateMonitor m(cfg, 256, 16, /*initial_nmax=*/8);
    const Samples s = findSamples(m, 256);
    // Reference sets hit, conventional sets miss, explorer sets miss:
    // helping blocks are hurting -> nmax must fall.
    for (int i = 0; i < 64; ++i) {
        m.record(s.reference[0], true);
        m.record(s.conventional[0], false);
        m.record(s.explorer[0], false);
    }
    EXPECT_LT(m.nmax(), 8u);
    EXPECT_GT(m.decrements(), 0u);
}

TEST(HitRateMonitor, NmaxIncreasesWhenExplorerKeepsUp)
{
    const SystemConfig cfg = monitorConfig(4);
    HitRateMonitor m(cfg, 256, 16, 4);
    const Samples s = findSamples(m, 256);
    // All three categories hit equally: one more helping block is free.
    for (int i = 0; i < 64; ++i) {
        m.record(s.reference[0], true);
        m.record(s.conventional[0], true);
        m.record(s.explorer[0], true);
    }
    EXPECT_GT(m.nmax(), 4u);
    EXPECT_GT(m.increments(), 0u);
}

TEST(HitRateMonitor, DecrementWinsOverIncrement)
{
    // Construct HRC low (decrement fires) while HRE high (increment
    // would also fire): the paper lists the decrement first.
    const SystemConfig cfg = monitorConfig(4);
    HitRateMonitor m(cfg, 256, 16, 8);
    const Samples s = findSamples(m, 256);
    for (int i = 0; i < 16; ++i) {
        m.record(s.reference[0], true);
        m.record(s.explorer[0], true);
        m.record(s.conventional[0], false);
    }
    EXPECT_LT(m.nmax(), 8u);
}

TEST(HitRateMonitor, NmaxClampedToWays)
{
    const SystemConfig cfg = monitorConfig(2);
    HitRateMonitor m(cfg, 256, 16, 14);
    EXPECT_EQ(m.nmax(), 14u); // ways - 2
    const Samples s = findSamples(m, 256);
    for (int i = 0; i < 256; ++i) {
        m.record(s.reference[0], true);
        m.record(s.conventional[0], true);
        m.record(s.explorer[0], true);
    }
    EXPECT_LE(m.nmax(), 14u);
}

TEST(HitRateMonitor, NmaxNeverUnderflows)
{
    const SystemConfig cfg = monitorConfig(2);
    HitRateMonitor m(cfg, 256, 16, 0);
    const Samples s = findSamples(m, 256);
    for (int i = 0; i < 256; ++i) {
        m.record(s.reference[0], true);
        m.record(s.conventional[0], false);
        m.record(s.explorer[0], false);
    }
    EXPECT_EQ(m.nmax(), 0u);
}

TEST(HitRateMonitor, ConventionalUnsampledSetsDontAdvance)
{
    const SystemConfig cfg = monitorConfig(1);
    HitRateMonitor m(cfg, 256, 16, 4);
    // Find an unsampled conventional set.
    std::uint32_t plain = 0;
    while (m.category(plain) != SetCategory::Conventional)
        ++plain;
    for (int i = 0; i < 100; ++i)
        m.record(plain, false);
    EXPECT_EQ(m.nmax(), 4u);
    EXPECT_EQ(m.increments() + m.decrements(), 0u);
}

TEST(HitRateMonitor, SetNmaxClamps)
{
    const SystemConfig cfg = monitorConfig();
    HitRateMonitor m(cfg, 256, 16);
    m.setNmax(100);
    EXPECT_EQ(m.nmax(), 14u);
    m.setNmax(3);
    EXPECT_EQ(m.nmax(), 3u);
}

/** Adaptation dynamics under a phase change (paper Figure 3 story):
 *  a small working set grows nmax; a high-utility phase shrinks it. */
TEST(HitRateMonitor, PhaseChangeAdapts)
{
    const SystemConfig cfg = monitorConfig(4);
    HitRateMonitor m(cfg, 256, 16, 4);
    const Samples s = findSamples(m, 256);
    // Phase 1: everything hits (small working set).
    for (int i = 0; i < 128; ++i) {
        m.record(s.reference[0], true);
        m.record(s.conventional[0], true);
        m.record(s.explorer[0], true);
    }
    const std::uint32_t grown = m.nmax();
    EXPECT_GT(grown, 4u);
    // Phase 2: conventional sets start missing (high utility).
    for (int i = 0; i < 128; ++i) {
        m.record(s.reference[0], true);
        m.record(s.conventional[0], false);
        m.record(s.explorer[0], false);
    }
    EXPECT_LT(m.nmax(), grown);
}

// -- The snapshot record ------------------------------------------------

/** Byte offsets into HitRateMonitor::save()'s record (snapshot v8): one
 *  u32 register per EMA (HRC, HRR, HRE), nmax, the reference count in
 *  the current period, then the u64 increment and decrement counts. */
constexpr std::size_t kEmaAt[3] = {0, 4, 8};
constexpr std::size_t kNmaxAt = 12;
constexpr std::size_t kReferencesAt = 16;
constexpr std::size_t kRecordBytes = 20 + 8 + 8;

std::string
saved(const HitRateMonitor &m)
{
    SnapshotWriter w;
    m.save(w);
    return w.bytes();
}

std::uint32_t
getU32(const std::string &bytes, std::size_t at)
{
    std::uint32_t v = 0;
    for (std::size_t i = 4; i-- > 0;)
        v = (v << 8) | static_cast<std::uint8_t>(bytes[at + i]);
    return v;
}

/** Overwrite the little-endian u32 at `at`. */
std::string
withU32(std::string bytes, std::size_t at, std::uint32_t v)
{
    for (std::size_t i = 0; i < 4; ++i)
        bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    return bytes;
}

/** Drive a monitor through `n` references to its sampled sets. */
void
drive(HitRateMonitor &m, const Samples &s, std::mt19937 &rng, int n)
{
    for (int i = 0; i < n; ++i) {
        switch (rng() % 3) {
          case 0:
            m.record(s.reference[0], rng() % 4 != 0);
            break;
          case 1:
            m.record(s.explorer[0], rng() % 2 != 0);
            break;
          default:
            m.record(s.conventional[i % 2], rng() % 3 != 0);
            break;
        }
    }
}

/** Load a record into a fresh 256-set, 16-way monitor. */
void
load(const SystemConfig &cfg, const std::string &bytes)
{
    HitRateMonitor m(cfg, 256, 16);
    SnapshotReader r(bytes);
    m.load(r);
    r.finish();
}

TEST(HitRateMonitorSnapshot, RecordHoldsOneRegisterPerEma)
{
    const SystemConfig cfg = monitorConfig(8);
    HitRateMonitor m(cfg, 256, 16, 5);
    const Samples s = findSamples(m, 256);
    m.record(s.reference[0], true);
    m.record(s.explorer[0], true);
    m.record(s.explorer[0], false);
    const std::string b = saved(m);
    ASSERT_EQ(b.size(), kRecordBytes);
    EXPECT_EQ(getU32(b, kEmaAt[0]), m.emaConventional());
    EXPECT_EQ(getU32(b, kEmaAt[1]), m.emaReference());
    EXPECT_EQ(getU32(b, kEmaAt[2]), m.emaExplorer());
    EXPECT_EQ(getU32(b, kNmaxAt), 5u);
    EXPECT_EQ(getU32(b, kReferencesAt), 3u);
}

TEST(HitRateMonitorSnapshot, RejectsEmaRegisterAboveFullScale)
{
    const SystemConfig cfg = monitorConfig(8);
    const std::string b = saved(HitRateMonitor(cfg, 256, 16));
    const std::uint32_t full = std::uint32_t{1} << cfg.emaBits;
    for (const std::size_t at : kEmaAt) {
        EXPECT_NO_THROW(load(cfg, withU32(b, at, full))) << at;
        EXPECT_THROW(load(cfg, withU32(b, at, full + 1)), SnapshotError)
            << at;
    }
}

TEST(HitRateMonitorSnapshot, RejectsNmaxAboveWaysMinusTwo)
{
    const SystemConfig cfg = monitorConfig(8);
    const std::string b = saved(HitRateMonitor(cfg, 256, 16));
    EXPECT_NO_THROW(load(cfg, withU32(b, kNmaxAt, 14)));
    EXPECT_THROW(load(cfg, withU32(b, kNmaxAt, 15)), SnapshotError);
}

TEST(HitRateMonitorSnapshot, RejectsReferenceCountNotBelowPeriod)
{
    const SystemConfig cfg = monitorConfig(8);
    const std::string b = saved(HitRateMonitor(cfg, 256, 16));
    EXPECT_NO_THROW(load(cfg, withU32(b, kReferencesAt, 7)));
    EXPECT_THROW(load(cfg, withU32(b, kReferencesAt, 8)), SnapshotError);
}

/** A record taken mid-period restores a monitor that saves the same
 *  bytes and continues along the uninterrupted nmax trajectory. */
TEST(HitRateMonitorSnapshot, MidPeriodSaveLoadSaveContinuesIdentically)
{
    const SystemConfig cfg = monitorConfig(8);
    HitRateMonitor live(cfg, 256, 16);
    const Samples s = findSamples(live, 256);
    std::mt19937 rng(23);
    drive(live, s, rng, 1003);
    const std::string first = saved(live);
    ASSERT_EQ(getU32(first, kReferencesAt), 1003u % 8);
    ASSERT_NE(getU32(first, kEmaAt[1]), 0u);
    HitRateMonitor back(cfg, 256, 16);
    SnapshotReader r(first);
    back.load(r);
    r.finish();
    ASSERT_EQ(saved(back), first);

    std::mt19937 rng_back = rng;
    for (int i = 0; i < 4000; ++i) {
        drive(live, s, rng, 1);
        drive(back, s, rng_back, 1);
        ASSERT_EQ(back.nmax(), live.nmax()) << "reference " << i;
    }
    EXPECT_GT(live.increments() + live.decrements(), 0u);
    EXPECT_EQ(saved(back), saved(live));
}

} // namespace
} // namespace espnuca
