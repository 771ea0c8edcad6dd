/**
 * @file
 * espnuca-report: cross-run regression report over two bench JSON
 * documents (DESIGN.md 5.13).
 *
 * Both documents (typically BENCH_core.json snapshots, but any JSON
 * works) are flattened to dotted numeric paths and diffed metric by
 * metric. Each metric's direction is inferred from its name — a
 * throughput-shaped metric ("*_per_sec", "*_per_s", "*speedup*")
 * regresses when it drops, a latency-shaped one ("ns_per_*", "*_seconds",
 * "*overhead*") when it rises, anything else is flagged on movement in
 * either direction — and a change beyond the noise threshold makes it
 * a regression.
 *
 * Usage:
 *   espnuca-report --baseline OLD.json --new NEW.json
 *                  [--threshold PCT]   per-metric noise gate (def 15)
 *                  [--only PREFIX]     restrict to paths under PREFIX
 *                  [--json]            machine-readable report
 *                  [--check]           exit 1 on any regression
 *
 * Exit codes: 0 ok (or regressions found without --check), 1 at least
 * one regression with --check, 2 usage (including a --threshold that is
 * not a finite number >= 0, and --check over a selection holding no
 * baseline metric), 3 unreadable/unparsable input. CI's bench-smoke
 * lane runs `--check --threshold 15 --only e2e.<workload>.refs_per_s`
 * on perfbench results as the perf guard; ESPNUCA_SKIP_PERF_GUARD=1 is
 * honoured by the caller, not here — this tool always tells the
 * truth.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/parse_num.hpp"
#include "harness/json.hpp"
#include "harness/json_parse.hpp"

namespace {

using espnuca::JsonValue;

enum class Direction
{
    HigherBetter,
    LowerBetter,
    TwoSided,
};

/** Infer which way a metric is allowed to move from its name. */
Direction
directionOf(const std::string &path)
{
    auto has = [&path](const char *needle) {
        return path.find(needle) != std::string::npos;
    };
    if (path.ends_with("_per_s") || has("per_sec") || has("speedup") ||
        has("ipc") || has("hits"))
        return Direction::HigherBetter;
    if (has("ns_per") || has("_seconds") || has("overhead") ||
        has("wall") || has("latency") || has("wait"))
        return Direction::LowerBetter;
    return Direction::TwoSided;
}

const char *
toString(Direction d)
{
    switch (d) {
    case Direction::HigherBetter: return "higher-better";
    case Direction::LowerBetter: return "lower-better";
    default: return "two-sided";
    }
}

struct MetricDiff
{
    std::string path;
    double baseline = 0.0;
    double current = 0.0;
    double deltaPct = 0.0; //!< signed change relative to baseline
    Direction direction = Direction::TwoSided;
    bool regression = false;
    bool improvement = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: espnuca-report --baseline OLD.json --new NEW.json\n"
        "                      [--threshold PCT] [--only PREFIX]\n"
        "                      [--json] [--check]\n");
    std::exit(code);
}

bool
loadJson(const std::string &path, JsonValue &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "espnuca-report: cannot read %s\n",
                     path.c_str());
        return false;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string err;
    if (!espnuca::jsonParse(text, out, &err)) {
        std::fprintf(stderr, "espnuca-report: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselinePath;
    std::string newPath;
    std::string only;
    double threshold = 15.0;
    bool json = false;
    bool check = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (a == "--baseline")
            baselinePath = next();
        else if (a == "--new")
            newPath = next();
        else if (a == "--threshold")
            threshold = espnuca::parseOrExit(
                [&] { return espnuca::parseReal(next(), a); });
        else if (a == "--only")
            only = next();
        else if (a == "--json")
            json = true;
        else if (a == "--check")
            check = true;
        else if (a == "--help" || a == "-h")
            usage(0);
        else
            usage(2);
    }
    if (baselinePath.empty() || newPath.empty())
        usage(2);

    JsonValue baseDoc;
    JsonValue newDoc;
    if (!loadJson(baselinePath, baseDoc) || !loadJson(newPath, newDoc))
        return 3;

    std::map<std::string, double> base;
    std::map<std::string, double> fresh;
    espnuca::jsonFlattenNumbers(baseDoc, "", base);
    espnuca::jsonFlattenNumbers(newDoc, "", fresh);

    auto selected = [&only](const std::string &path) {
        return only.empty() || path.compare(0, only.size(), only) == 0;
    };

    std::vector<MetricDiff> diffs;
    std::vector<std::string> missing; //!< in baseline, gone in new
    std::vector<std::string> added;   //!< new metrics (informational)
    for (const auto &[path, oldV] : base) {
        if (!selected(path))
            continue;
        const auto it = fresh.find(path);
        if (it == fresh.end()) {
            missing.push_back(path);
            continue;
        }
        MetricDiff d;
        d.path = path;
        d.baseline = oldV;
        d.current = it->second;
        d.direction = directionOf(path);
        d.deltaPct = oldV != 0.0
            ? 100.0 * (d.current - oldV) / std::fabs(oldV)
            : (d.current == 0.0 ? 0.0 : 100.0);
        const bool beyond = std::fabs(d.deltaPct) > threshold;
        if (beyond) {
            const bool worse =
                d.direction == Direction::TwoSided ||
                (d.direction == Direction::HigherBetter &&
                 d.deltaPct < 0.0) ||
                (d.direction == Direction::LowerBetter &&
                 d.deltaPct > 0.0);
            d.regression = worse;
            d.improvement = !worse;
        }
        diffs.push_back(d);
    }
    // A guard over nothing is no guard: a --check whose selection holds
    // no baseline metric (say, a mistyped --only) must not pass.
    if (check && diffs.empty() && missing.empty()) {
        std::fprintf(stderr,
                     "espnuca-report: --check selects no metric of %s "
                     "(--only '%s')\n",
                     baselinePath.c_str(), only.c_str());
        return 2;
    }
    for (const auto &[path, v] : fresh) {
        (void)v;
        if (selected(path) && base.find(path) == base.end())
            added.push_back(path);
    }

    std::size_t regressions = 0;
    std::size_t improvements = 0;
    for (const MetricDiff &d : diffs) {
        regressions += d.regression ? 1 : 0;
        improvements += d.improvement ? 1 : 0;
    }
    // A metric that vanished is a regression too: a guard that can be
    // silenced by deleting the metric it guards is no guard.
    regressions += missing.size();

    if (json) {
        espnuca::JsonWriter w;
        w.beginObject();
        w.field("schema", "espnuca-report-v1");
        w.field("baseline", baselinePath);
        w.field("new", newPath);
        w.field("threshold_pct", threshold);
        w.field("regressions", static_cast<std::uint64_t>(regressions));
        w.field("improvements",
                static_cast<std::uint64_t>(improvements));
        w.key("metrics").beginArray();
        for (const MetricDiff &d : diffs) {
            w.beginObject();
            w.field("path", d.path);
            w.field("baseline", d.baseline);
            w.field("new", d.current);
            w.field("delta_pct", d.deltaPct);
            w.field("direction", toString(d.direction));
            w.field("regression", d.regression);
            w.field("improvement", d.improvement);
            w.endObject();
        }
        w.endArray();
        w.key("missing").beginArray();
        for (const std::string &m : missing)
            w.value(m);
        w.endArray();
        w.key("added").beginArray();
        for (const std::string &m : added)
            w.value(m);
        w.endArray();
        w.endObject();
        std::printf("%s\n", w.str().c_str());
    } else {
        std::printf("%-44s %14s %14s %9s\n", "metric", "baseline", "new",
                    "delta");
        for (const MetricDiff &d : diffs) {
            const char *mark = d.regression ? " REGRESSION"
                : d.improvement              ? " improvement"
                                             : "";
            std::printf("%-44s %14.4g %14.4g %+8.1f%%%s\n",
                        d.path.c_str(), d.baseline, d.current,
                        d.deltaPct, mark);
        }
        for (const std::string &m : missing)
            std::printf("%-44s %14s %14s %9s MISSING\n", m.c_str(), "-",
                        "-", "-");
        for (const std::string &m : added)
            std::printf("%-44s %14s %14s %9s added\n", m.c_str(), "-",
                        "-", "-");
        std::printf("%zu metric(s), %zu regression(s), "
                    "%zu improvement(s), threshold %.1f%%\n",
                    diffs.size(), regressions, improvements, threshold);
    }

    return check && regressions > 0 ? 1 : 0;
}
