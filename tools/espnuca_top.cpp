/**
 * @file
 * espnuca-top: live (and post-mortem) swarm telemetry over a sweep
 * results directory (DESIGN.md 5.13).
 *
 * Aggregates the three observability surfaces a swarm leaves behind —
 * per-worker heartbeat files (`hb-<shard>.json`), per-writer ledgers
 * (`events-*.jsonl`) and the quarantine blacklist — into one status
 * view: per shard, points done/total, throughput, retry and
 * quarantine counts, last-heartbeat age; swarm-wide, progress and an
 * ETA. Reads are best-effort and read-only: a torn heartbeat or a
 * mid-append ledger line is skipped, never fatal, so espnuca-top can
 * run against a directory a live swarm is writing.
 *
 * Usage:
 *   espnuca-top --results-dir DIR [--json]
 *               [--follow] [--interval-ms N] [--iterations N]
 *               [--perfetto FILE]
 *
 * `--json` prints one espnuca-top-v1 document and exits; the human
 * view prints a table (and with --follow, redraws every interval).
 * `--perfetto` exports the swarm timeline as Chrome trace_event JSON:
 * one track per worker, one slice per completed point (start/finish
 * wall clock from the ledger), supervisor interventions (chaos kills,
 * stall kills, quarantines) as instants on the supervisor track —
 * load imbalance and restart storms become visible at a glance.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parse_num.hpp"
#include "harness/json.hpp"
#include "harness/ledger.hpp"
#include "harness/supervisor.hpp"
#include "harness/sweep.hpp"
#include "obs/trace_export.hpp"

namespace {

using namespace espnuca;

struct ShardStatus
{
    std::uint32_t shard = 0;
    bool haveHeartbeat = false;
    Heartbeat hb;
    std::uint64_t finishes = 0;      //!< point-finish ledger events
    std::uint64_t skips = 0;         //!< point-skip (already valid)
    std::uint64_t redos = 0;         //!< point-redo (recompute forced)
    std::uint64_t quarantineSkips = 0;
    std::uint64_t busyMs = 0;        //!< sum of point-finish durations
    std::uint64_t ledgerLines = 0;
    std::uint64_t ledgerBad = 0; //!< CRC-failed / torn lines skipped
    std::set<std::uint64_t> terminal; //!< hashes with a terminal event
};

struct SwarmStatus
{
    std::string runId;
    std::vector<ShardStatus> shards;
    std::vector<QuarantineRecord> quarantined;
    std::uint64_t supervisorEvents = 0;
    std::uint64_t workerSpawns = 0;
    std::uint64_t workerExits = 0;
    std::uint64_t chaosKills = 0;
    std::uint64_t stallKills = 0;
    std::uint64_t heartbeatGaps = 0;
    std::uint64_t firstWallMs = 0;
    std::uint64_t lastWallMs = 0;
    bool runFinished = false;
    int runExit = 0;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::string();
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
span(SwarmStatus &s, std::uint64_t wallMs)
{
    if (wallMs == 0)
        return;
    if (s.firstWallMs == 0 || wallMs < s.firstWallMs)
        s.firstWallMs = wallMs;
    if (wallMs > s.lastWallMs)
        s.lastWallMs = wallMs;
}

void
readShardLedger(SwarmStatus &swarm, ShardStatus &s,
                const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++s.ledgerLines;
        LedgerEvent e;
        if (!parseLedgerEvent(line, e)) {
            ++s.ledgerBad;
            continue;
        }
        if (swarm.runId.empty())
            swarm.runId = e.run;
        span(swarm, e.wallMs);
        if (e.event == "point-finish") {
            ++s.finishes;
            s.busyMs += e.value;
            s.terminal.insert(e.pointHash);
        } else if (e.event == "point-skip") {
            ++s.skips;
            s.terminal.insert(e.pointHash);
        } else if (e.event == "point-redo") {
            ++s.redos;
        } else if (e.event == "point-quarantine-skip") {
            ++s.quarantineSkips;
            s.terminal.insert(e.pointHash);
        }
    }
}

void
readSupervisorLedger(SwarmStatus &swarm, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        LedgerEvent e;
        if (!parseLedgerEvent(line, e))
            continue;
        ++swarm.supervisorEvents;
        if (swarm.runId.empty())
            swarm.runId = e.run;
        span(swarm, e.wallMs);
        if (e.event == "worker-spawn")
            ++swarm.workerSpawns;
        else if (e.event == "worker-exit")
            ++swarm.workerExits;
        else if (e.event == "chaos-kill")
            ++swarm.chaosKills;
        else if (e.event == "worker-stall-kill")
            ++swarm.stallKills;
        else if (e.event == "heartbeat-gap")
            ++swarm.heartbeatGaps;
        else if (e.event == "run-finish") {
            swarm.runFinished = true;
            swarm.runExit = static_cast<int>(e.value);
        }
    }
}

SwarmStatus
collect(const std::string &dir)
{
    SwarmStatus swarm;

    // Shard population: whatever left a heartbeat or a ledger behind.
    std::set<std::uint32_t> shards;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        unsigned idx = 0;
        if (std::sscanf(name.c_str(), "hb-%u.json", &idx) == 1 ||
            std::sscanf(name.c_str(), "events-shard-%u.jsonl", &idx) ==
                1)
            shards.insert(idx);
    }

    for (const std::uint32_t idx : shards) {
        ShardStatus s;
        s.shard = idx;
        Heartbeat hb;
        if (parseHeartbeat(slurp(heartbeatPathFor(dir, idx)), hb)) {
            s.haveHeartbeat = true;
            s.hb = hb;
            span(swarm, hb.wallMs);
        }
        readShardLedger(swarm, s,
                        ledgerPathFor(dir, /*supervisor=*/false, idx));
        swarm.shards.push_back(std::move(s));
    }
    readSupervisorLedger(swarm, ledgerPathFor(dir, /*supervisor=*/true));
    try {
        swarm.quarantined = readQuarantine(dir);
    } catch (const std::exception &) {
        // A torn blacklist mid-rewrite: report zero, next refresh wins.
    }
    return swarm;
}

double
throughput(const SwarmStatus &swarm, std::uint64_t finishes)
{
    const std::uint64_t wall = swarm.lastWallMs - swarm.firstWallMs;
    if (swarm.firstWallMs == 0 || wall == 0)
        return 0.0;
    return static_cast<double>(finishes) /
           (static_cast<double>(wall) / 1000.0);
}

void
writeJson(const SwarmStatus &swarm, std::string *out)
{
    const std::uint64_t now = ledgerWallMs();
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    std::uint64_t finishes = 0;
    std::uint64_t redos = 0;
    std::set<std::uint64_t> terminal;

    JsonWriter w;
    w.beginObject();
    w.field("schema", "espnuca-top-v1");
    w.field("run", swarm.runId);
    w.key("shards").beginArray();
    for (const ShardStatus &s : swarm.shards) {
        done += s.hb.done;
        total += s.hb.total;
        finishes += s.finishes;
        redos += s.redos;
        terminal.insert(s.terminal.begin(), s.terminal.end());
        w.beginObject();
        w.field("shard", static_cast<std::uint64_t>(s.shard));
        w.field("state", s.haveHeartbeat ? s.hb.state : "unknown");
        w.field("done", s.hb.done);
        w.field("total", s.hb.total);
        w.field("points_finished", s.finishes);
        w.field("points_skipped", s.skips);
        w.field("retries", s.redos);
        w.field("quarantine_skips", s.quarantineSkips);
        w.field("busy_ms", s.busyMs);
        w.field("heartbeat_age_ms",
                s.haveHeartbeat && s.hb.wallMs != 0 &&
                        now >= s.hb.wallMs
                    ? now - s.hb.wallMs
                    : 0);
        if (s.haveHeartbeat && s.hb.pointHash != 0) {
            w.field("point_hash", digestHex(s.hb.pointHash));
            w.field("arch", s.hb.arch);
            w.field("workload", s.hb.workload);
        }
        w.field("ledger_lines", s.ledgerLines);
        w.field("ledger_bad_lines", s.ledgerBad);
        w.endObject();
    }
    w.endArray();

    const double rate = throughput(swarm, finishes);
    const std::uint64_t remaining = total > done ? total - done : 0;
    w.key("totals").beginObject();
    w.field("done", done);
    w.field("total", total);
    w.field("points_terminal",
            static_cast<std::uint64_t>(terminal.size()));
    w.field("points_finished", finishes);
    w.field("retries", redos);
    w.field("quarantined",
            static_cast<std::uint64_t>(swarm.quarantined.size()));
    w.field("throughput_points_per_sec", rate);
    w.field("eta_sec",
            rate > 0.0 ? static_cast<double>(remaining) / rate : 0.0);
    w.endObject();

    w.key("supervisor").beginObject();
    w.field("events", swarm.supervisorEvents);
    w.field("worker_spawns", swarm.workerSpawns);
    w.field("worker_exits", swarm.workerExits);
    w.field("chaos_kills", swarm.chaosKills);
    w.field("stall_kills", swarm.stallKills);
    w.field("heartbeat_gaps", swarm.heartbeatGaps);
    w.field("run_finished", swarm.runFinished);
    w.field("run_exit", static_cast<std::int64_t>(swarm.runExit));
    w.endObject();
    w.endObject();
    *out = w.str();
}

void
printHuman(const SwarmStatus &swarm)
{
    const std::uint64_t now = ledgerWallMs();
    std::printf("swarm %s  (%zu shard(s), %zu quarantined, %s)\n",
                swarm.runId.empty() ? "<no ledger>"
                                    : swarm.runId.c_str(),
                swarm.shards.size(), swarm.quarantined.size(),
                swarm.runFinished ? "finished" : "running");
    std::printf("%5s %-12s %9s %8s %7s %7s %9s  %s\n", "shard", "state",
                "done", "finished", "retry", "quar", "hb-age", "point");
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    std::uint64_t finishes = 0;
    for (const ShardStatus &s : swarm.shards) {
        done += s.hb.done;
        total += s.hb.total;
        finishes += s.finishes;
        char prog[32];
        std::snprintf(prog, sizeof prog, "%llu/%llu",
                      static_cast<unsigned long long>(s.hb.done),
                      static_cast<unsigned long long>(s.hb.total));
        char age[32];
        if (s.haveHeartbeat && s.hb.wallMs != 0 && now >= s.hb.wallMs)
            std::snprintf(age, sizeof age, "%.1fs",
                          static_cast<double>(now - s.hb.wallMs) /
                              1000.0);
        else
            std::snprintf(age, sizeof age, "-");
        std::string point;
        if (s.haveHeartbeat && s.hb.pointHash != 0)
            point = s.hb.arch + "/" + s.hb.workload;
        std::printf("%5u %-12s %9s %8llu %7llu %7llu %9s  %s\n",
                    s.shard,
                    s.haveHeartbeat ? s.hb.state.c_str() : "unknown",
                    prog,
                    static_cast<unsigned long long>(s.finishes),
                    static_cast<unsigned long long>(s.redos),
                    static_cast<unsigned long long>(s.quarantineSkips),
                    age, point.c_str());
    }
    const double rate = throughput(swarm, finishes);
    const std::uint64_t remaining = total > done ? total - done : 0;
    if (rate > 0.0 && remaining > 0)
        std::printf("total %llu/%llu  %.2f points/s  eta %.0fs\n",
                    static_cast<unsigned long long>(done),
                    static_cast<unsigned long long>(total), rate,
                    static_cast<double>(remaining) / rate);
    else
        std::printf("total %llu/%llu\n",
                    static_cast<unsigned long long>(done),
                    static_cast<unsigned long long>(total));
    if (swarm.chaosKills + swarm.stallKills + swarm.heartbeatGaps > 0)
        std::printf("supervisor: %llu spawns, %llu chaos kills, "
                    "%llu stall kills, %llu heartbeat gaps\n",
                    static_cast<unsigned long long>(swarm.workerSpawns),
                    static_cast<unsigned long long>(swarm.chaosKills),
                    static_cast<unsigned long long>(swarm.stallKills),
                    static_cast<unsigned long long>(
                        swarm.heartbeatGaps));
}

/**
 * Swarm timeline as Chrome trace_event JSON: pid 1 is the supervisor
 * (instants for kills/quarantines), pid 2+i is worker shard i with one
 * "ph":"X" slice per completed point, named arch/workload, start and
 * duration from the ledger's point-start/point-finish wall clocks.
 */
bool
exportSwarmTrace(const std::string &dir, const SwarmStatus &swarm,
                 const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "espnuca-top: cannot write %s\n",
                     path.c_str());
        return false;
    }
    using obs::detail::writeArgsOpen;
    using obs::detail::writeEventCommon;
    const std::uint64_t base = swarm.firstWallMs;
    os << "{\"traceEvents\":[\n";
    bool first = true;
    // An instant on track `pid`; the caller writes the args and "}}".
    auto instant = [&os, &first](const std::string &name, const char *cat,
                                 std::uint64_t ts, int pid) {
        writeEventCommon(os, first, name.c_str(), cat, "i", ts, pid, 0);
        os << ",\"s\":\"t\"";
        writeArgsOpen(os);
    };
    obs::detail::writeProcessName(os, first, 1, "supervisor");
    for (const ShardStatus &s : swarm.shards)
        obs::detail::writeProcessName(
            os, first, 2 + static_cast<int>(s.shard),
            ("shard-" + std::to_string(s.shard)).c_str());

    for (const ShardStatus &s : swarm.shards) {
        std::ifstream in(
            ledgerPathFor(dir, /*supervisor=*/false, s.shard),
            std::ios::binary);
        if (!in)
            continue;
        const int pid = 2 + static_cast<int>(s.shard);
        std::map<std::uint64_t, LedgerEvent> open; //!< hash -> start
        std::string line;
        while (std::getline(in, line)) {
            LedgerEvent e;
            if (line.empty() || !parseLedgerEvent(line, e))
                continue;
            const std::uint64_t ts = e.wallMs - base;
            if (e.event == "point-start") {
                open[e.pointHash] = e;
            } else if (e.event == "point-finish") {
                const auto it = open.find(e.pointHash);
                const std::uint64_t start =
                    it != open.end() ? it->second.wallMs - base
                                     : (ts >= e.value ? ts - e.value
                                                      : 0);
                writeEventCommon(os, first,
                                 (e.arch + "/" + e.workload).c_str(),
                                 "point", "X", start * 1000, pid, 0);
                os << ",\"dur\":" << (ts - start) * 1000;
                writeArgsOpen(os);
                os << "\"point_hash\":\"" << digestHex(e.pointHash)
                   << "\",\"index\":" << e.index << "}}";
                open.erase(e.pointHash);
            } else if (e.event == "point-skip" ||
                       e.event == "point-quarantine-skip" ||
                       e.event == "point-redo") {
                instant(e.event, "point", ts * 1000, pid);
                os << "\"point_hash\":\"" << digestHex(e.pointHash)
                   << "\"}}";
            }
        }
        // A point still open when the capture ended (live swarm or a
        // kill): degrade to an instant so it is not silently dropped.
        for (const auto &[hash, e] : open) {
            instant(e.arch + "/" + e.workload + " (in flight)", "point",
                    (e.wallMs - base) * 1000, pid);
            os << "\"point_hash\":\"" << digestHex(hash) << "\"}}";
        }
    }

    // Supervisor interventions as instants on the supervisor track.
    {
        std::ifstream in(ledgerPathFor(dir, /*supervisor=*/true),
                         std::ios::binary);
        std::string line;
        while (in && std::getline(in, line)) {
            LedgerEvent e;
            if (line.empty() || !parseLedgerEvent(line, e))
                continue;
            if (e.event != "chaos-kill" &&
                e.event != "worker-stall-kill" &&
                e.event != "point-quarantine" &&
                e.event != "worker-spawn" && e.event != "worker-exit")
                continue;
            instant(e.event, "swarm", (e.wallMs - base) * 1000, 1);
            os << "\"value\":" << e.value << "}}";
        }
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
    return os.good();
}

[[noreturn]] void
usage(int code)
{
    std::fprintf(stderr,
                 "usage: espnuca-top --results-dir DIR [--json]\n"
                 "                   [--follow] [--interval-ms N]\n"
                 "                   [--iterations N] "
                 "[--perfetto FILE]\n");
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir;
    std::string perfetto;
    bool json = false;
    bool follow = false;
    std::uint64_t intervalMs = 1000;
    std::uint64_t iterations = 0; //!< 0 = until interrupted (--follow)

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (a == "--results-dir")
            dir = next();
        else if (a == "--json")
            json = true;
        else if (a == "--follow")
            follow = true;
        else if (a == "--interval-ms")
            intervalMs =
                parseOrExit([&] { return parseUnsigned(next(), a); });
        else if (a == "--iterations")
            iterations =
                parseOrExit([&] { return parseUnsigned(next(), a); });
        else if (a == "--perfetto")
            perfetto = next();
        else if (a == "--help" || a == "-h")
            usage(0);
        else
            usage(2);
    }
    if (dir.empty())
        usage(2);
    if (!std::filesystem::is_directory(dir)) {
        std::fprintf(stderr, "espnuca-top: no such directory: %s\n",
                     dir.c_str());
        return 3;
    }

    std::uint64_t shown = 0;
    while (true) {
        const SwarmStatus swarm = collect(dir);
        if (!perfetto.empty() && !exportSwarmTrace(dir, swarm, perfetto))
            return 3;
        if (json) {
            std::string doc;
            writeJson(swarm, &doc);
            std::printf("%s\n", doc.c_str());
        } else {
            if (follow && shown > 0)
                std::printf("\033[2J\033[H");
            printHuman(swarm);
        }
        ++shown;
        if (!follow || (iterations != 0 && shown >= iterations) ||
            (follow && swarm.runFinished))
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(intervalMs));
    }
    return 0;
}
