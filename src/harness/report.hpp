/**
 * @file
 * Machine-readable serialization of experiment results: JSON documents
 * and CSV rows for RunResult and DataPoint, so downstream tooling
 * (plots, regression tracking) can consume the harness output directly.
 */

#ifndef ESPNUCA_HARNESS_REPORT_HPP_
#define ESPNUCA_HARNESS_REPORT_HPP_

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/stats_json.hpp"
#include "net/placement.hpp"
#include "obs/metrics_sampler.hpp"

namespace espnuca {

/**
 * The epoch-telemetry time series as a JSON array, one object per
 * MetricsSampler tick: `{"cycle":N,"counters":{name:value,...}}` with
 * the sampled StatsRegistry names (DESIGN.md 5.13), e.g. the adaptive
 * controller's `bank.<b>.nmax` and raw fixed-point set-class EMAs
 * `bank.<b>.hr_ref`/`hr_conv`/`hr_exp` (paper 3.3).
 */
inline void
writeTimeseriesJson(JsonWriter &w, const std::vector<obs::MetricsSample> &ts)
{
    w.beginArray();
    for (const obs::MetricsSample &s : ts) {
        w.beginObject();
        w.field("cycle", static_cast<std::uint64_t>(s.cycle));
        w.key("counters").beginObject();
        for (std::size_t i = 0; i < s.values.size(); ++i)
            w.field((*s.names)[i], s.values[i]);
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

/** One run as a JSON object (written into an open writer). */
inline void
writeRunJson(JsonWriter &w, const RunResult &r)
{
    w.beginObject();
    w.field("arch", r.arch);
    w.field("workload", r.workload);
    w.field("cycles", static_cast<std::uint64_t>(r.cycles));
    w.field("instructions", r.instructions);
    w.field("mem_ops", r.memOps);
    w.field("throughput_ipc", r.throughput);
    w.field("avg_ipc", r.avgIpc);
    w.field("avg_access_time", r.avgAccessTime);
    w.field("off_chip_accesses", r.offChipAccesses);
    w.field("on_chip_latency", r.onChipLatency);
    w.field("l2_demand_accesses", r.l2DemandAccesses);
    w.field("l2_demand_hits", r.l2DemandHits);
    w.field("network_flits", r.networkFlits);
    w.field("privatizations", r.privatizations);
    w.field("mean_nmax", r.meanNmax);
    w.key("service_levels").beginObject();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i) {
        w.key(toString(static_cast<ServiceLevel>(i)));
        w.beginObject();
        w.field("count", r.levelCounts[i]);
        w.field("cycles_per_ref", r.levelContribution[i]);
        w.endObject();
    }
    w.endObject();
    // Epoch telemetry rides along only when a sampler ran, so documents
    // from unsampled runs stay byte-identical to the previous schema.
    if (!r.timeseries.empty()) {
        w.key("timeseries");
        writeTimeseriesJson(w, r.timeseries);
    }
    // Unified registry export, present only when the caller collected
    // it (--stats with machine-readable output).
    if (!r.statsJson.empty())
        w.key("stats").raw(r.statsJson);
    w.endObject();
}

/** One run as a standalone JSON document. */
inline std::string
runToJson(const RunResult &r)
{
    JsonWriter w;
    writeRunJson(w, r);
    return w.str();
}

/** One aggregated data point (mean +/- CI) as a JSON object. */
inline void
writePointJson(JsonWriter &w, const DataPoint &p)
{
    w.beginObject();
    w.field("arch", p.arch);
    w.field("workload", p.workload);
    // Conditional-emit (like the layout fields): only custom-keyed
    // points carry a label, so default-keyed documents — including
    // the frozen fig07 golden — keep their historical bytes.
    if (!p.key.empty())
        w.field("key", p.key);
    auto stat = [&w](const char *name, const RunningStats &s) {
        w.key(name).beginObject();
        w.field("mean", s.mean());
        w.field("ci95", s.ci95());
        w.field("runs", s.count());
        w.endObject();
    };
    stat("throughput_ipc", p.throughput);
    stat("avg_ipc", p.avgIpc);
    stat("avg_access_time", p.avgAccessTime);
    stat("on_chip_latency", p.onChipLatency);
    stat("off_chip_accesses", p.offChip);
    w.key("service_levels").beginObject();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ServiceLevel::kNumLevels); ++i)
        stat(toString(static_cast<ServiceLevel>(i)),
             p.levelContribution[i]);
    w.endObject();
    // Epoch telemetry of the last run folded into this point (the
    // full per-run series would dwarf the aggregate document). Only
    // present when a sampler ran.
    if (!p.lastRun.timeseries.empty()) {
        w.key("timeseries");
        writeTimeseriesJson(w, p.lastRun.timeseries);
    }
    // Crash-isolated runs that exhausted their retry budget. Emitted
    // only when present, so healthy documents are byte-identical to the
    // pre-fault-isolation schema.
    if (!p.failures.empty()) {
        w.key("failures").beginArray();
        for (const RunFailure &f : p.failures) {
            w.beginObject();
            w.field("run", static_cast<std::uint64_t>(f.runIndex));
            w.field("seed", f.seed);
            w.field("attempts", static_cast<std::uint64_t>(f.attempts));
            w.field("error", f.error);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

/** Compiled-in `git describe` of the producing build (CMake stamp). */
inline std::string
buildDescribe()
{
#ifdef ESPNUCA_GIT_DESCRIBE
    return ESPNUCA_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

/** The "build" provenance object: which binary produced a document,
 *  under which result-affecting configuration. espnuca-merge refuses
 *  to merge shards whose build objects differ. */
inline void
writeBuildJson(JsonWriter &w, const ExperimentConfig &cfg)
{
    w.beginObject();
    w.field("describe", buildDescribe());
    w.field("config_digest", digestHex(experimentConfigDigest(cfg)));
    w.endObject();
}

/** The "config" object of a bench document. */
inline void
writeConfigJson(JsonWriter &w, const ExperimentConfig &cfg)
{
    w.beginObject();
    w.field("ops_per_core", cfg.opsPerCore);
    w.field("runs", static_cast<std::uint64_t>(cfg.runs));
    w.field("base_seed", cfg.baseSeed);
    w.field("warmup_fraction", cfg.warmupFraction);
    w.field("jobs", static_cast<std::uint64_t>(cfg.resolveJobs()));
    w.field("cores", static_cast<std::uint64_t>(cfg.system.numCores));
    w.field("l2_bytes", cfg.system.l2SizeBytes);
    w.field("l2_banks", static_cast<std::uint64_t>(cfg.system.l2Banks));
    // Layout fields appear only when overridden (conditional-emit
    // pattern: documents for the paper configuration stay byte-
    // identical with pre-placement builds). The resolved grid and the
    // placement digest make mixed-layout merge attempts visible — and
    // refusable — at the config-span level.
    if (!cfg.system.placementIsDefault()) {
        const PlacementMap place = PlacementMap::forConfig(cfg.system);
        w.field("mesh", std::to_string(place.cols) + "x" +
                            std::to_string(place.rows));
        w.field("placement", place.name);
        w.field("placement_digest", digestHex(place.digest()));
    }
    w.endObject();
}

/** Standalone span producers: the writer is fully compact, so a value
 *  serialized into a fresh writer is byte-identical to the same value
 *  nested inside a larger document. The sweep engine stores these
 *  spans per point and espnuca-merge re-frames them verbatim. */
inline std::string
pointToJson(const DataPoint &p)
{
    JsonWriter w;
    writePointJson(w, p);
    return w.str();
}

inline std::string
configToJson(const ExperimentConfig &cfg)
{
    JsonWriter w;
    writeConfigJson(w, cfg);
    return w.str();
}

inline std::string
buildToJson(const ExperimentConfig &cfg)
{
    JsonWriter w;
    writeBuildJson(w, cfg);
    return w.str();
}

/**
 * A whole bench as one JSON document: build provenance, the experiment
 * configuration, then every aggregated data point in declaration
 * order.
 *
 * Schema:
 *   { "bench": <name>,
 *     "build": { "describe", "config_digest" },
 *     "config": { "ops_per_core", "runs", "base_seed",
 *                 "warmup_fraction", "jobs", "cores", "l2_bytes",
 *                 "l2_banks" },
 *     "points": [ <writePointJson objects> ] }
 */
inline void
writeBenchJson(JsonWriter &w, const std::string &bench,
               const ExperimentConfig &cfg,
               const std::vector<DataPoint> &points)
{
    w.beginObject();
    w.field("bench", bench);
    w.key("build");
    writeBuildJson(w, cfg);
    w.key("config");
    writeConfigJson(w, cfg);
    w.key("points").beginArray();
    for (const DataPoint &p : points)
        writePointJson(w, p);
    w.endArray();
    w.endObject();
}

/**
 * Write the bench document to `path`. Returns false (with a message on
 * stderr) when the file cannot be opened; benches keep their console
 * tables either way.
 */
inline bool
writeBenchJsonFile(const std::string &path, const std::string &bench,
                   const ExperimentConfig &cfg,
                   const std::vector<DataPoint> &points)
{
    std::ofstream out(path);
    if (!out) {
        ESP_LOG(Warn, "harness",
                "cannot open " + path + " for JSON output");
        return false;
    }
    JsonWriter w;
    writeBenchJson(w, bench, cfg, points);
    out << w.str() << '\n';
    return out.good();
}

/**
 * Extract the `--json <path>` argument every figure bench accepts.
 * Returns an empty string when absent.
 */
inline std::string
jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json")
            return argv[i + 1];
    return std::string();
}

/** CSV header matching runToCsv. */
inline std::string
csvHeader()
{
    return "arch,workload,cycles,instructions,mem_ops,throughput_ipc,"
           "avg_ipc,avg_access_time,off_chip_accesses,on_chip_latency,"
           "l2_demand_accesses,l2_demand_hits,network_flits,"
           "privatizations,mean_nmax";
}

/** One run as a CSV row (no trailing newline). */
inline std::string
runToCsv(const RunResult &r)
{
    std::ostringstream os;
    os << r.arch << ',' << r.workload << ',' << r.cycles << ','
       << r.instructions << ',' << r.memOps << ',' << r.throughput << ','
       << r.avgIpc << ',' << r.avgAccessTime << ',' << r.offChipAccesses
       << ',' << r.onChipLatency << ',' << r.l2DemandAccesses << ','
       << r.l2DemandHits << ',' << r.networkFlits << ','
       << r.privatizations << ',' << r.meanNmax;
    return os.str();
}

} // namespace espnuca

#endif // ESPNUCA_HARNESS_REPORT_HPP_
