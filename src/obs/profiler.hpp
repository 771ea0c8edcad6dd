/**
 * @file
 * Simulator self-profiling: RAII scoped wall-clock timers around the
 * coarse hot paths (event-kernel drain, protocol actions, mesh routing,
 * harness fold/merge), aggregated per-thread and merged into a
 * StatsRegistry under prof.* for --json output and bench_perf.sh.
 *
 * Usage: ESP_PROF_SCOPE("proto.access"); at the top of a scope. The
 * site name is registered once (function-local static, mutex only at
 * registration); the per-call cost when profiling is runtime-disabled
 * is one relaxed atomic load.
 *
 * Accumulators are thread_local, so parallel harness workers profile
 * without synchronization; collect() must run while workers are idle
 * (the harness calls it after all futures resolve). Wall-clock numbers
 * are inherently nondeterministic — they live under prof.* only and
 * never feed simulation statistics.
 */

#ifndef ESPNUCA_OBS_PROFILER_HPP_
#define ESPNUCA_OBS_PROFILER_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats/stats_registry.hpp"

namespace espnuca {
namespace obs {

/** Global runtime gate; off by default (one relaxed load per scope). */
inline std::atomic<bool> &
profGate()
{
    static std::atomic<bool> gate{false};
    return gate;
}

inline bool
profilingEnabled()
{
    return profGate().load(std::memory_order_relaxed);
}

inline void
setProfiling(bool on)
{
    profGate().store(on, std::memory_order_relaxed);
}

/** Per-site accumulated totals. */
struct ProfSiteStats
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/**
 * Site table plus per-thread accumulators. Sites are registered once
 * per process (the macro's function-local static); recording touches
 * only the calling thread's vector.
 */
class ProfRegistry
{
  public:
    static ProfRegistry &
    instance()
    {
        static ProfRegistry reg;
        return reg;
    }

    std::uint32_t
    site(const char *name)
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (std::uint32_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name)
                return i;
        names_.emplace_back(name);
        return static_cast<std::uint32_t>(names_.size() - 1);
    }

    void
    add(std::uint32_t id, std::uint64_t ns)
    {
        ThreadState &ts = local();
        if (ts.acc.size() <= id)
            ts.acc.resize(id + 1);
        ++ts.acc[id].calls;
        ts.acc[id].ns += ns;
    }

    /** Sum every thread's accumulators per site (call while idle). */
    std::vector<std::pair<std::string, ProfSiteStats>>
    snapshot()
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::vector<std::pair<std::string, ProfSiteStats>> out;
        out.reserve(names_.size());
        for (std::uint32_t i = 0; i < names_.size(); ++i) {
            ProfSiteStats sum;
            for (const auto &t : threads_) {
                if (t->acc.size() <= i)
                    continue;
                sum.calls += t->acc[i].calls;
                sum.ns += t->acc[i].ns;
            }
            out.emplace_back(names_[i], sum);
        }
        return out;
    }

    /** Merge the aggregated totals into `reg` under prof.*. */
    void
    collect(StatsRegistry &reg)
    {
        for (const auto &[name, s] : snapshot()) {
            if (s.calls == 0)
                continue;
            reg.counter("prof." + name + ".calls").inc(s.calls);
            reg.counter("prof." + name + ".ns").inc(s.ns);
        }
    }

    /** Zero every accumulator (tests; sites stay registered). */
    void
    reset()
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto &t : threads_)
            for (auto &a : t->acc)
                a = ProfSiteStats{};
    }

  private:
    struct ThreadState
    {
        std::vector<ProfSiteStats> acc;
    };

    ThreadState &
    local()
    {
        thread_local ThreadState *tls = nullptr;
        if (tls == nullptr) {
            auto owned = std::make_unique<ThreadState>();
            tls = owned.get();
            std::lock_guard<std::mutex> lk(mu_);
            threads_.push_back(std::move(owned));
        }
        return *tls;
    }

    std::mutex mu_;
    std::vector<std::string> names_;
    std::vector<std::unique_ptr<ThreadState>> threads_;
};

/** RAII timer; records only when profiling was on at entry. */
class ProfScope
{
  public:
    explicit ProfScope(std::uint32_t id)
    {
        if (profilingEnabled()) {
            active_ = true;
            id_ = id;
            start_ = std::chrono::steady_clock::now();
        }
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

    ~ProfScope()
    {
        if (!active_)
            return;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        ProfRegistry::instance().add(
            id_, static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    }

  private:
    std::chrono::steady_clock::time_point start_{};
    std::uint32_t id_ = 0;
    bool active_ = false;
};

#define ESP_PROF_CONCAT2(a, b) a##b
#define ESP_PROF_CONCAT(a, b) ESP_PROF_CONCAT2(a, b)
#define ESP_PROF_SCOPE(name) \
    static const std::uint32_t ESP_PROF_CONCAT(esp_prof_site_, \
                                               __LINE__) = \
        ::espnuca::obs::ProfRegistry::instance().site(name); \
    ::espnuca::obs::ProfScope ESP_PROF_CONCAT(esp_prof_scope_, __LINE__)( \
        ESP_PROF_CONCAT(esp_prof_site_, __LINE__))

} // namespace obs
} // namespace espnuca

#endif // ESPNUCA_OBS_PROFILER_HPP_
