/**
 * @file
 * Epoch telemetry: samples the StatsRegistry every `interval` cycles.
 * Every sample fills a fresh registry (the System passes its extended
 * collection, which carries the adaptive controller's per-bank nmax,
 * set-class EMAs and helping-block occupancy next to the mesh, memory
 * and protocol counters) and records each counter's value, so any
 * registered counter becomes a time series. report.hpp serializes the
 * series as the point JSON's "timeseries" section.
 *
 * The sampler is not an event. The System's drain loop calls sample()
 * before the first event at or after each boundary k * interval, so
 * sample k holds the state after every event before that cycle, and
 * once more when the queue drains. Sampling mutates nothing, the
 * event queue's clock and counters included: a sampled run produces
 * byte-identical statistics to an unsampled one, serial or parallel.
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
 * The periodic sampler. The System supplies a filler that registers
 * its statistics and decides when to call sample(); the sampler owns
 * the cadence and the series.
 */
class MetricsSampler
{
  public:
    using FillFn = std::function<void(StatsRegistry &)>;

    MetricsSampler(Cycle interval, FillFn fill)
        : interval_(interval), fill_(std::move(fill))
    {
        ESP_ASSERT(interval_ > 0, "metrics interval must be positive");
    }

    /** The boundary the next sample is stamped with: sample i is
     *  stamped (i + 1) * interval, across epochs too. */
    Cycle due() const { return (samples_.size() + 1) * interval_; }

    /** Record the current state, stamped with due(). */
    void
    sample()
    {
        StatsRegistry reg;
        fill_(reg);
        MetricsSample s;
        s.cycle = due();
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
    }

    const std::vector<MetricsSample> &samples() const { return samples_; }

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
     *  onto a tail sampled at another would corrupt the series), on a
     *  sample stamped off its boundary, and on a name table that is
     *  not strictly sorted, as a registry's is (a repeated name would
     *  repeat a key of the JSON sample object). */
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
            if (s.cycle != due())
                throw SnapshotError("metrics sample off its boundary");
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
    Cycle interval_;
    FillFn fill_;
    std::vector<MetricsSample> samples_;
};

} // namespace obs
} // namespace espnuca

#endif // ESPNUCA_OBS_METRICS_SAMPLER_HPP_
