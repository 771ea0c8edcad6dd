/**
 * @file
 * On-line first-class hit-rate estimation and nmax control (paper 3.3).
 *
 * Per bank: three shift-based EMAs (HRC for sampled conventional sets,
 * HRR for reference sets, HRE for explorer sets), each updated on every
 * reference to one of its sets, and the bank-wide helping-block limit
 * nmax. Every `period` monitored references the controller applies the
 * paper's update rule:
 *
 *   nmax -= 1  if HRR - (HRR >> d) >= HRC   (helping blocks hurt)
 *   nmax += 1  if HRR - (HRR >> d) <  HRE   (room for one more)
 *   unchanged  otherwise
 *
 * (the decrement test is evaluated first, matching the paper's listing).
 */

#ifndef ESPNUCA_CACHE_HIT_RATE_MONITOR_HPP_
#define ESPNUCA_CACHE_HIT_RATE_MONITOR_HPP_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "cache/replacement.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/snapshot.hpp"
#include "obs/profiler.hpp"
#include "stats/ema.hpp"

namespace espnuca {

/** Per-bank sampling monitor driving the ESP-NUCA nmax controller. */
class HitRateMonitor
{
  public:
    /**
     * @param cfg monitor parameters (a, b, d, sample counts, period)
     * @param num_sets sets in the bank
     * @param ways bank associativity (bounds nmax)
     * @param initial_nmax starting helping-block limit
     */
    HitRateMonitor(const SystemConfig &cfg, std::uint32_t num_sets,
                   std::uint32_t ways, std::uint32_t initial_nmax = 4)
        : hrC_(cfg.emaBits, cfg.emaShift),
          hrR_(cfg.emaBits, cfg.emaShift),
          hrE_(cfg.emaBits, cfg.emaShift),
          dShift_(cfg.degradationShift),
          period_(cfg.monitorPeriod),
          maxNmax_(ways >= 2 ? ways - 2 : 0),
          nmax_(initial_nmax <= maxNmax_ ? initial_nmax : maxNmax_),
          categories_(num_sets, SetCategory::Conventional)
    {
        ESP_ASSERT(num_sets >= cfg.referenceSamples + cfg.explorerSamples +
                                   cfg.conventionalSamples,
                   "bank too small for the requested sample sets");
        assignSamples(cfg, num_sets);
    }

    /** Category of a set (decided once, fixed by design). */
    SetCategory
    category(std::uint32_t set_index) const
    {
        return categories_.at(set_index);
    }

    /** Current bank-wide helping-block limit. */
    std::uint32_t nmax() const { return nmax_; }

    /** Force a limit (testing / ablations). */
    void
    setNmax(std::uint32_t v)
    {
        nmax_ = v <= maxNmax_ ? v : maxNmax_;
    }

    /**
     * Record the outcome of one demand reference to a set: h = 1 when it
     * hit a *first-class* block, 0 otherwise (helping-block hits and
     * misses both count as 0, matching the paper's definition of h).
     */
    void
    record(std::uint32_t set_index, bool first_class_hit)
    {
        // The vast majority of sets are unsampled; bail out before any
        // profiling bookkeeping so the common case is one table load.
        const SetCategory cat = categories_[set_index];
        if (cat == SetCategory::Conventional)
            return; // unsampled sets do not advance the controller
        ESP_PROF_SCOPE("bank.ema");
        ShiftEma &ema = cat == SetCategory::SampledConventional
                            ? hrC_
                            : cat == SetCategory::Reference ? hrR_ : hrE_;
        ema.record(first_class_hit);
        if (++references_ >= period_) {
            references_ = 0;
            updateNmax();
        }
    }

    /** Estimated hit rates (diagnostics, sensitivity benches, epoch
     *  telemetry). */
    std::uint32_t emaConventional() const { return hrC_.raw(); }
    std::uint32_t emaReference() const { return hrR_.raw(); }
    std::uint32_t emaExplorer() const { return hrE_.raw(); }

    /** Number of nmax adjustments performed (diagnostic). */
    std::uint64_t increments() const { return increments_; }
    std::uint64_t decrements() const { return decrements_; }

    // -- Snapshot/restore ----------------------------------------------

    /**
     * Serialize controller state. categories_ is NOT serialized: it is
     * assigned deterministically from the config at construction.
     */
    void
    save(SnapshotWriter &w) const
    {
        w.u32(hrC_.raw());
        w.u32(hrR_.raw());
        w.u32(hrE_.raw());
        w.u32(nmax_);
        w.u32(references_);
        w.u64(increments_);
        w.u64(decrements_);
    }

    /** Restore controller state. Throws SnapshotError on a record no
     *  run can produce: an EMA register above 2^b, an nmax above the
     *  bank's ways − 2, or a reference count not below the period. */
    void
    load(SnapshotReader &r)
    {
        for (ShiftEma *e : {&hrC_, &hrR_, &hrE_}) {
            const std::uint32_t raw = r.u32();
            if (raw > (std::uint32_t{1} << e->bits()))
                throw SnapshotError("monitor EMA register above 2^b");
            e->reset(raw);
        }
        const std::uint32_t nmax = r.u32();
        if (nmax > maxNmax_)
            throw SnapshotError("monitor nmax above ways - 2");
        const std::uint32_t references = r.u32();
        if (references >= period_)
            throw SnapshotError("monitor reference count not below period");
        nmax_ = nmax;
        references_ = references;
        increments_ = r.u64();
        decrements_ = r.u64();
    }

  private:
    void
    updateNmax()
    {
        const std::uint32_t hrr = hrR_.raw();
        const std::uint32_t threshold = hrr - (hrr >> dShift_);
        if (threshold >= hrC_.raw()) {
            if (nmax_ > 0) {
                --nmax_;
                ++decrements_;
            }
        } else if (threshold < hrE_.raw()) {
            if (nmax_ < maxNmax_) {
                ++nmax_;
                ++increments_;
            }
        }
    }

    /**
     * Spread the sampled sets across the bank deterministically:
     * reference first, explorer last, sampled conventionals between,
     * equally spaced so no region of the index space is over-sampled.
     */
    void
    assignSamples(const SystemConfig &cfg, std::uint32_t num_sets)
    {
        const std::uint32_t total = cfg.referenceSamples +
                                    cfg.explorerSamples +
                                    cfg.conventionalSamples;
        std::uint32_t slot = 0;
        auto place = [&](SetCategory cat, std::uint32_t count) {
            for (std::uint32_t i = 0; i < count; ++i, ++slot) {
                const std::uint32_t idx =
                    static_cast<std::uint32_t>(
                        (static_cast<std::uint64_t>(slot) * num_sets) /
                        total);
                categories_.at(idx) = cat;
            }
        };
        place(SetCategory::Reference, cfg.referenceSamples);
        place(SetCategory::SampledConventional, cfg.conventionalSamples);
        place(SetCategory::Explorer, cfg.explorerSamples);
    }

    ShiftEma hrC_;
    ShiftEma hrR_;
    ShiftEma hrE_;
    std::uint32_t dShift_;
    std::uint32_t period_;
    std::uint32_t maxNmax_;
    std::uint32_t nmax_;
    std::uint32_t references_ = 0;
    std::uint64_t increments_ = 0;
    std::uint64_t decrements_ = 0;
    std::vector<SetCategory> categories_;
};

} // namespace espnuca

#endif // ESPNUCA_CACHE_HIT_RATE_MONITOR_HPP_
