/**
 * @file
 * Named statistic registry: owns counters/averages registered
 * by the simulator components and dumps them in a stable text format.
 * This is the single collection surface every component's
 * registerStats() writes into — the stats dump, the run JSON "stats"
 * section, the epoch timeseries and the Perfetto counter tracks all
 * read from here.
 */

#ifndef ESPNUCA_STATS_STATS_REGISTRY_HPP_
#define ESPNUCA_STATS_STATS_REGISTRY_HPP_

#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "stats/counter.hpp"

namespace espnuca {

/**
 * A flat name -> value store. Components register by name; names use
 * dotted paths ("l1.0.hits"). The map keeps deterministic (sorted) order
 * for reproducible dumps.
 *
 * Naming scheme (DESIGN.md 5.13): `<component>.<instance>.<metric>`,
 * the instance segment omitted for singletons — `proto.accesses`,
 * `bank.3.evictions`, `mc.0.queue_wait`, `core.7.ipc`, `prof.<site>.ns`.
 * The text dump prints counters first, then averages (each section
 * name-sorted).
 */
class StatsRegistry
{
  public:
    /** Get (creating on first use) a counter by name. */
    Counter &counter(const std::string &name) { return counters_[name]; }

    /** Get (creating on first use) an average by name. */
    Average &average(const std::string &name) { return averages_[name]; }

    /** Read a counter value; 0 when absent. */
    std::uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    /** Sum all counters whose name starts with the given prefix. */
    std::uint64_t
    sumByPrefix(const std::string &prefix) const
    {
        std::uint64_t sum = 0;
        for (auto it = counters_.lower_bound(prefix);
             it != counters_.end() && it->first.compare(
                 0, prefix.size(), prefix) == 0;
             ++it) {
            sum += it->second.value();
        }
        return sum;
    }

    /** All counters in sorted name order (JSON serialization). */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, Average> &averages() const
    {
        return averages_;
    }

    /** Dump every statistic as "name value" lines. */
    void
    dump(std::ostream &os) const
    {
        for (const auto &[name, c] : counters_)
            os << name << " " << c.value() << "\n";
        for (const auto &[name, a] : averages_)
            os << name << " " << a.mean() << " (n=" << a.count() << ")\n";
    }

    /** Clear all statistics (values and registrations). */
    void
    reset()
    {
        counters_.clear();
        averages_.clear();
    }

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
};

/**
 * Hierarchical naming helper: a scope carries a dotted prefix so a
 * component's registerStats() names only its leaves. `sub()` nests —
 * StatsScope(reg, "bank").sub("3").counter("evictions") registers
 * "bank.3.evictions".
 */
class StatsScope
{
  public:
    explicit StatsScope(StatsRegistry &reg, std::string prefix = "")
        : reg_(reg), prefix_(std::move(prefix))
    {
    }

    StatsScope
    sub(const std::string &name) const
    {
        return StatsScope(reg_, join(name));
    }

    Counter &counter(const std::string &name) const
    {
        return reg_.counter(join(name));
    }

    Average &average(const std::string &name) const
    {
        return reg_.average(join(name));
    }

    const std::string &prefix() const { return prefix_; }

  private:
    std::string
    join(const std::string &name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

    StatsRegistry &reg_;
    std::string prefix_;
};

} // namespace espnuca

#endif // ESPNUCA_STATS_STATS_REGISTRY_HPP_
