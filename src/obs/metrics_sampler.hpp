/**
 * @file
 * Epoch telemetry: a periodic, read-only event on the simulation's own
 * EventQueue that snapshots the adaptive controller's visible state —
 * per-bank nmax, the Reference/Conventional/Explorer EMA values,
 * helping-block occupancy, first-class hit rates — plus link
 * utilization and MSHR depth, into an in-memory time series that
 * report.hpp serializes as the point JSON's "timeseries" section.
 *
 * Like the watchdog, the sampler registers its event as auxiliary with
 * the queue and re-arms only while real work remains pending, so it
 * never keeps a drained queue alive (and two observers never keep each
 * other alive). Sampling mutates nothing: a sampled run produces
 * bit-identical statistics to an unsampled one, serial or parallel.
 */

#ifndef ESPNUCA_OBS_METRICS_SAMPLER_HPP_
#define ESPNUCA_OBS_METRICS_SAMPLER_HPP_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace espnuca {
namespace obs {

/** One bank's slice of an epoch snapshot. */
struct BankMetrics
{
    std::uint32_t nmax = 0;    //!< helping-block cap (ESP banks only)
    std::uint32_t hrRef = 0;   //!< Reference EMA, raw fixed point
    std::uint32_t hrConv = 0;  //!< Conventional EMA, raw fixed point
    std::uint32_t hrExp = 0;   //!< Explorer EMA, raw fixed point
    std::uint32_t replicas = 0;
    std::uint32_t victims = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;

    bool
    operator==(const BankMetrics &) const = default;
};

/** One epoch snapshot across the whole system. */
struct MetricsSample
{
    Cycle cycle = 0;
    std::uint64_t mshrDepth = 0;  //!< allocated MSHRs at sample time
    std::uint64_t inFlight = 0;   //!< outstanding transactions
    std::uint64_t meshFlits = 0;  //!< cumulative flits sent
    Cycle linkWait = 0;           //!< cumulative link queueing delay
    std::uint64_t memAccesses = 0;
    bool hasMonitor = false;      //!< banks carry live EMA monitors
    std::vector<BankMetrics> banks;

    bool
    operator==(const MetricsSample &) const = default;
};

/**
 * The periodic sampling event. The System supplies a filler that reads
 * component state; the sampler owns the cadence and the series.
 */
class MetricsSampler
{
  public:
    using FillFn = std::function<void(MetricsSample &)>;

    MetricsSampler(EventQueue &eq, Cycle interval, FillFn fill)
        : eq_(eq), interval_(interval), fill_(std::move(fill))
    {
        ESP_ASSERT(interval_ > 0, "metrics interval must be positive");
    }

    /** Schedule the first tick (idempotent). */
    void
    arm()
    {
        if (armed_)
            return;
        armed_ = true;
        eq_.noteAuxScheduled();
        eq_.schedule(interval_, [this]() { tick(); });
    }

    const std::vector<MetricsSample> &samples() const { return samples_; }
    Cycle interval() const { return interval_; }

    // -- Snapshot/restore ----------------------------------------------
    //
    // The series captured so far (the warmup epoch's samples) rides
    // inside the checkpoint, so a warm-restored run's merged timeseries
    // is byte-identical to the cold run's: warmup samples from the
    // snapshot, tail samples recorded live after the fast-forward.

    void
    save(SnapshotWriter &w) const
    {
        w.u64(interval_);
        w.u64(samples_.size());
        for (const MetricsSample &s : samples_) {
            w.u64(s.cycle);
            w.u64(s.mshrDepth);
            w.u64(s.inFlight);
            w.u64(s.meshFlits);
            w.u64(s.linkWait);
            w.u64(s.memAccesses);
            w.b(s.hasMonitor);
            w.u64(s.banks.size());
            for (const BankMetrics &b : s.banks) {
                w.u32(b.nmax);
                w.u32(b.hrRef);
                w.u32(b.hrConv);
                w.u32(b.hrExp);
                w.u32(b.replicas);
                w.u32(b.victims);
                w.u64(b.demandAccesses);
                w.u64(b.demandHits);
            }
        }
    }

    /** Replace the series with the serialized one. Throws SnapshotError
     *  on a cadence mismatch: splicing a warmup sampled at one interval
     *  onto a tail sampled at another would corrupt the series. */
    void
    load(SnapshotReader &r)
    {
        const Cycle iv = r.u64();
        if (iv != interval_)
            throw SnapshotError("metrics-interval mismatch");
        samples_.clear();
        const std::uint64_t n = r.count(7 * sizeof(std::uint64_t));
        samples_.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            MetricsSample s;
            s.cycle = r.u64();
            s.mshrDepth = r.u64();
            s.inFlight = r.u64();
            s.meshFlits = r.u64();
            s.linkWait = r.u64();
            s.memAccesses = r.u64();
            s.hasMonitor = r.b();
            const std::uint64_t nb = r.count(5 * sizeof(std::uint64_t));
            s.banks.reserve(nb);
            for (std::uint64_t b = 0; b < nb; ++b) {
                BankMetrics bm;
                bm.nmax = r.u32();
                bm.hrRef = r.u32();
                bm.hrConv = r.u32();
                bm.hrExp = r.u32();
                bm.replicas = r.u32();
                bm.victims = r.u32();
                bm.demandAccesses = r.u64();
                bm.demandHits = r.u64();
                s.banks.push_back(bm);
            }
            samples_.push_back(std::move(s));
        }
    }

  private:
    void
    tick()
    {
        eq_.noteAuxFired();
        MetricsSample s;
        s.cycle = eq_.now();
        fill_(s);
        samples_.push_back(std::move(s));
        // Re-arm only while non-auxiliary events remain; the sampler
        // must never be the reason the queue stays alive.
        if (eq_.hasRealWork()) {
            eq_.noteAuxScheduled();
            eq_.schedule(interval_, [this]() { tick(); });
        } else {
            armed_ = false;
        }
    }

    EventQueue &eq_;
    Cycle interval_;
    FillFn fill_;
    std::vector<MetricsSample> samples_;
    bool armed_ = false;
};

} // namespace obs
} // namespace espnuca

#endif // ESPNUCA_OBS_METRICS_SAMPLER_HPP_
