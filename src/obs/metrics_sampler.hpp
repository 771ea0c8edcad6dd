/**
 * @file
 * Epoch telemetry: a periodic, read-only event on the simulation's own
 * EventQueue that samples the StatsRegistry. Every tick fills a fresh
 * registry (the System passes its extended collection, which carries
 * the adaptive controller's per-bank nmax, set-class EMAs and
 * helping-block occupancy next to the mesh, memory and protocol
 * counters) and records each counter's value, so any registered
 * counter becomes a time series. report.hpp serializes the series as
 * the point JSON's "timeseries" section.
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
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"
#include "stats/stats_registry.hpp"

namespace espnuca {
namespace obs {

/** Sorted counter names; consecutive samples with the same key set
 *  share one table. */
using NameTable = std::vector<std::string>;

/** One epoch snapshot: the cycle plus one value per table name. */
struct MetricsSample
{
    Cycle cycle = 0;
    std::shared_ptr<const NameTable> names;
    std::vector<std::uint64_t> values; //!< values[i] belongs to names[i]
};

/**
 * The periodic sampling event. The System supplies a filler that
 * registers its statistics; the sampler owns the cadence and the
 * series.
 */
class MetricsSampler
{
  public:
    using FillFn = std::function<void(StatsRegistry &)>;

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
    // snapshot, tail samples recorded live after the fast-forward. A
    // sample writes its name table only when the table differs from
    // its predecessor's.

    void
    save(SnapshotWriter &w) const
    {
        w.u64(interval_);
        w.u64(samples_.size());
        const NameTable *prev = nullptr;
        for (const MetricsSample &s : samples_) {
            w.u64(s.cycle);
            const bool fresh = s.names.get() != prev;
            w.b(fresh);
            if (fresh) {
                w.u64(s.names->size());
                for (const std::string &n : *s.names)
                    w.str(n);
                prev = s.names.get();
            }
            for (const std::uint64_t v : s.values)
                w.u64(v);
        }
    }

    /** Replace the series with the serialized one. Throws SnapshotError
     *  on a cadence mismatch (splicing a warmup sampled at one interval
     *  onto a tail sampled at another would corrupt the series) and on
     *  a name table that is not strictly sorted, as a registry's is (a
     *  repeated name would repeat a key of the JSON sample object). */
    void
    load(SnapshotReader &r)
    {
        const Cycle iv = r.u64();
        if (iv != interval_)
            throw SnapshotError("metrics-interval mismatch");
        samples_.clear();
        const std::uint64_t n = r.count(sizeof(std::uint64_t) + 1);
        samples_.reserve(n);
        std::shared_ptr<const NameTable> names;
        for (std::uint64_t i = 0; i < n; ++i) {
            MetricsSample s;
            s.cycle = r.u64();
            if (r.b()) {
                auto t = std::make_shared<NameTable>();
                const std::uint64_t k = r.count(sizeof(std::uint64_t));
                t->reserve(k);
                for (std::uint64_t j = 0; j < k; ++j) {
                    t->push_back(r.str());
                    if (j > 0 && !((*t)[j - 1] < (*t)[j]))
                        throw SnapshotError("metrics names not sorted");
                }
                names = std::move(t);
            } else if (!names) {
                throw SnapshotError("metrics sample without a name table");
            }
            s.names = names;
            if (names->size() > r.remaining() / sizeof(std::uint64_t))
                throw SnapshotError("metrics values beyond the snapshot",
                                    SnapshotError::Kind::Truncated);
            s.values.reserve(names->size());
            for (std::size_t j = 0; j < names->size(); ++j)
                s.values.push_back(r.u64());
            samples_.push_back(std::move(s));
        }
    }

  private:
    void
    tick()
    {
        eq_.noteAuxFired();
        StatsRegistry reg;
        fill_(reg);
        MetricsSample s;
        s.cycle = eq_.now();
        auto names = std::make_shared<NameTable>();
        for (const auto &[name, c] : reg.counters()) {
            names->push_back(name);
            s.values.push_back(c.value());
        }
        if (!samples_.empty() && *samples_.back().names == *names)
            s.names = samples_.back().names;
        else
            s.names = std::move(names);
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
