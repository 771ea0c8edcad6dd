/**
 * @file
 * Sharded, resumable sweep engine. A figure bench declares its full
 * point grid in an ExperimentMatrix and calls runSweep() before its
 * normal table path; when the invocation carries sweep flags the engine
 * takes over:
 *
 *   --list-points      print every point's stable hash, shard owner,
 *                      and identity — no simulation
 *   --shard i/N        simulate only the points whose hash lands in
 *                      shard i of N (stable, disjoint, complete)
 *   --results-dir DIR  write each completed point into its own JSON
 *                      file DIR/<hash>.json (atomic tmp+rename);
 *                      points whose file already exists and validates
 *                      are skipped, so a killed sweep resumes by
 *                      re-launching the same command
 *
 * tools/espnuca-merge reassembles the per-point files into a bench
 * document byte-identical to the unsharded `--json` output: point
 * files store the exact serialized spans (build, config, point) and
 * the merge re-frames them without re-serializing anything.
 */

#ifndef ESPNUCA_HARNESS_SWEEP_HPP_
#define ESPNUCA_HARNESS_SWEEP_HPP_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "harness/ledger.hpp"
#include "harness/report.hpp"

namespace espnuca {

/**
 * A per-point result file that cannot be trusted: unreadable, not a
 * point record at all, or failing its CRC32C content check. The sweep
 * resume pass recomputes such points; espnuca-merge refuses them with
 * a distinct exit code.
 */
class PointFileError : public std::runtime_error
{
  public:
    enum class Kind
    {
        OpenFailed,       //!< file absent or unreadable
        NotARecord,       //!< malformed / truncated / wrong schema
        ChecksumMismatch, //!< CRC32C disagrees with the content
    };

    PointFileError(const std::string &what, Kind kind)
        : std::runtime_error("point file: " + what), kind_(kind)
    {
    }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/** "i/N" shard designator: this process owns shard i of N. */
struct ShardSpec
{
    std::uint32_t index = 0;
    std::uint32_t count = 1;

    /** Parse "i/N" (0 <= i < N); throws std::invalid_argument. */
    static ShardSpec
    parse(const std::string &spec)
    {
        const std::size_t slash = spec.find('/');
        if (slash == std::string::npos || slash == 0 ||
            slash + 1 >= spec.size())
            throw std::invalid_argument("shard spec wants i/N: " + spec);
        for (std::size_t i = 0; i < spec.size(); ++i)
            if (i != slash && (spec[i] < '0' || spec[i] > '9'))
                throw std::invalid_argument("shard spec wants i/N: " +
                                            spec);
        ShardSpec s;
        try {
            s.index = static_cast<std::uint32_t>(
                std::stoul(spec.substr(0, slash), nullptr, 10));
            s.count = static_cast<std::uint32_t>(
                std::stoul(spec.substr(slash + 1), nullptr, 10));
        } catch (const std::exception &) {
            throw std::invalid_argument("shard spec wants i/N: " + spec);
        }
        if (s.count == 0 || s.index >= s.count)
            throw std::invalid_argument(
                "shard index out of range in: " + spec);
        return s;
    }
};

/**
 * Stable identity of one declared sweep point: bench name, point key,
 * (arch, workload), and the digest of the point's own experiment
 * configuration. Independent of declaration order, process, machine
 * and shard count — the same point always hashes the same, which is
 * what makes shards disjoint and resume files reusable.
 */
inline std::uint64_t
pointHash(const std::string &bench, const ExperimentMatrix::Entry &e)
{
    SnapshotWriter w;
    w.str(bench);
    w.str(e.key);
    w.str(e.arch);
    w.str(e.workload);
    w.u64(experimentConfigDigest(e.cfg));
    // FNV-1a's low bit is a pure XOR parity of the input bytes, and the
    // default key duplicates (arch, workload), which cancels their
    // parity — without a finalizer every point in a grid lands on the
    // same side of `hash % 2` and 2-way sharding degenerates.
    return splitmix64(fnv1a(w.bytes().data(), w.bytes().size()));
}

/**
 * One completed point as stored in the results directory. The build /
 * config / point members hold raw JSON value spans — exact bytes of
 * the corresponding sections of the unsharded bench document.
 */
struct PointRecord
{
    std::string bench;
    std::uint64_t hash = 0;
    std::uint64_t index = 0; //!< declaration index in the grid
    std::uint64_t total = 0; //!< grid size (same in every shard)
    std::string key;         //!< raw span (JSON string literal)
    std::string arch;        //!< raw span (JSON string literal)
    std::string workload;    //!< raw span (JSON string literal)
    std::string build;       //!< raw span (object)
    std::string config;      //!< raw span (object)
    std::string point;       //!< raw span (writePointJson object)
};

// v2: records end with a "crc32c" content-checksum field (see
// pointRecordJson). v1 files fail the schema check and are recomputed.
inline constexpr const char *kPointSchema = "espnuca-point-v2";

/**
 * Serialize a point record (one results-directory file, sans '\n').
 * The final field is a CRC32C over the exact serialization of every
 * preceding field (the record with the checksum field removed), so any
 * altered byte — flipped, truncated, appended — is detectable without
 * re-deriving a single result value.
 */
inline std::string
pointRecordJson(const PointRecord &p)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kPointSchema);
    w.field("bench", p.bench);
    w.field("point_hash", digestHex(p.hash));
    w.field("index", p.index);
    w.field("total", p.total);
    w.key("key").raw(p.key);
    w.key("arch").raw(p.arch);
    w.key("workload").raw(p.workload);
    w.key("build").raw(p.build);
    w.key("config").raw(p.config);
    w.key("point").raw(p.point);
    w.endObject();
    return jsonCrcAppend(w.str());
}

/**
 * Validate a record's checksum field against its content. Throws a
 * PointFileError naming `name` plus the expected/actual checksums; on
 * success returns the record body (everything the checksum covers).
 */
inline std::string
verifyPointChecksum(const std::string &doc, const std::string &name)
{
    std::string body;
    std::string stored;
    std::string actual;
    if (jsonCrcStrip(doc, body, &stored, &actual))
        return body;
    if (stored.empty())
        throw PointFileError(name + ": missing or misplaced checksum "
                                    "trailer",
                             PointFileError::Kind::NotARecord);
    throw PointFileError(name + ": checksum mismatch, expected " +
                             stored + ", actual " + actual,
                         PointFileError::Kind::ChecksumMismatch);
}

/** Parse a results-directory file. @return false on any malformation
 *  (wrong schema, missing or mistyped sections, malformed counters). */
inline bool
parsePointRecord(const std::string &doc, PointRecord &out)
{
    JsonValue v;
    std::string schema;
    PointRecord rec;
    if (!jsonParse(doc, v) || !jsonString(v.find("schema"), schema) ||
        schema != kPointSchema || !jsonString(v.find("bench"), rec.bench) ||
        !jsonHex64(v.find("point_hash"), rec.hash) ||
        !jsonU64(v.find("index"), rec.index) ||
        !jsonU64(v.find("total"), rec.total))
        return false;
    // The raw members keep their exact source bytes: espnuca-merge
    // re-frames them verbatim, never re-serialized.
    const auto raw = [&](const char *key, JsonValue::Kind kind,
                         std::string &span) {
        const JsonValue *m = v.find(key);
        if (m == nullptr || m->kind != kind)
            return false;
        span = m->span(doc);
        return true;
    };
    using K = JsonValue::Kind;
    if (!raw("key", K::String, rec.key) ||
        !raw("arch", K::String, rec.arch) ||
        !raw("workload", K::String, rec.workload) ||
        !raw("build", K::Object, rec.build) ||
        !raw("config", K::Object, rec.config) ||
        !raw("point", K::Object, rec.point))
        return false;
    out = std::move(rec);
    return true;
}

/** Results file of a point (hash-addressed; bench-agnostic name so a
 *  directory holds exactly one sweep's points). */
inline std::string
pointFilePath(const std::string &dir, std::uint64_t hash)
{
    return dir + "/" + digestHex(hash) + ".json";
}

/**
 * Load + verify one results-directory file: CRC32C first, then the
 * structural parse. Throws PointFileError (typed, naming the file) on
 * anything short of a fully valid record — the resume pass recomputes,
 * the merge refuses with a checksum-specific exit code.
 */
inline PointRecord
readPointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw PointFileError(path + ": cannot open",
                             PointFileError::Kind::OpenFailed);
    const std::string doc((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    const std::string body = verifyPointChecksum(doc, path);
    PointRecord rec;
    if (!parsePointRecord(body, rec))
        throw PointFileError(path + ": not a point record",
                             PointFileError::Kind::NotARecord);
    return rec;
}

/** Durable atomic write of one point record (trailing newline added). */
inline bool
writePointFile(const std::string &path, const PointRecord &rec,
               FileError *error = nullptr)
{
    return writeFileAtomicChecked(path, pointRecordJson(rec) + "\n",
                                  /*durable=*/true, error);
}

// ---------------------------------------------------------------------
// Poison-point quarantine: the supervisor blacklists a point whose
// worker died too often; the sweep engine skips blacklisted points and
// espnuca-merge folds them into the merged document's "failures" array
// instead of refusing the merge for an incomplete grid.
// ---------------------------------------------------------------------

inline constexpr const char *kQuarantineSchema = "espnuca-quarantine-v1";

/** One blacklisted point, as recorded in DIR/quarantine.json. */
struct QuarantineRecord
{
    std::uint64_t hash = 0;  //!< stable point hash (pointHash)
    std::uint64_t index = 0; //!< declaration index in the grid
    std::string arch;
    std::string workload;
    std::uint32_t deaths = 0; //!< organic worker deaths charged
    std::string error;        //!< last failure description
};

inline std::string
quarantinePath(const std::string &dir)
{
    return dir + "/quarantine.json";
}

inline std::string
quarantineJson(const std::vector<QuarantineRecord> &records)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kQuarantineSchema);
    w.key("points").beginArray();
    for (const QuarantineRecord &q : records) {
        w.beginObject();
        w.field("point_hash", digestHex(q.hash));
        w.field("index", q.index);
        w.field("arch", q.arch);
        w.field("workload", q.workload);
        w.field("deaths", static_cast<std::uint64_t>(q.deaths));
        w.field("error", q.error);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

/**
 * Read DIR/quarantine.json. Absent file = empty list (the common
 * case); a present but malformed file throws PointFileError — a
 * half-written blacklist must never silently unblacklist a poison
 * point.
 */
inline std::vector<QuarantineRecord>
readQuarantine(const std::string &dir)
{
    const std::string path = quarantinePath(dir);
    std::vector<QuarantineRecord> records;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return records;
    const std::string doc((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    JsonValue v;
    std::string schema;
    const bool parsed = jsonParse(doc, v) &&
                        jsonString(v.find("schema"), schema) &&
                        schema == kQuarantineSchema;
    const JsonValue *points = v.find("points");
    if (!parsed || (points != nullptr && !points->isArray()))
        throw PointFileError(path + ": not a quarantine file",
                             PointFileError::Kind::NotARecord);
    if (points == nullptr)
        return records;
    for (const JsonValue &item : points->items) {
        QuarantineRecord q;
        std::uint64_t deaths = 0;
        if (!jsonHex64(item.find("point_hash"), q.hash) ||
            !jsonU64(item.find("index"), q.index) ||
            !jsonOptional(item.find("arch"), q.arch, jsonString) ||
            !jsonOptional(item.find("workload"), q.workload, jsonString) ||
            !jsonOptional(item.find("deaths"), deaths, jsonU64) ||
            deaths > UINT32_MAX ||
            !jsonOptional(item.find("error"), q.error, jsonString))
            throw PointFileError(path + ": malformed quarantine entry",
                                 PointFileError::Kind::NotARecord);
        q.deaths = static_cast<std::uint32_t>(deaths);
        records.push_back(std::move(q));
    }
    return records;
}

/** Durable atomic rewrite of the blacklist (supervisor side). */
inline bool
writeQuarantine(const std::string &dir,
                const std::vector<QuarantineRecord> &records,
                FileError *error = nullptr)
{
    return writeFileAtomicChecked(quarantinePath(dir),
                                  quarantineJson(records) + "\n",
                                  /*durable=*/true, error);
}

// ---------------------------------------------------------------------
// Heartbeat protocol: a supervised worker rewrites one small JSON file
// around every unit of work. The supervisor derives two facts from it:
// liveness (the bytes changed recently) and attribution (which point
// was in flight when the process died). Best-effort writes — a lost
// heartbeat costs accuracy, never correctness.
// ---------------------------------------------------------------------

inline constexpr const char *kHeartbeatSchema = "espnuca-heartbeat-v1";

/** Last-written worker state, as read back by the supervisor. */
struct Heartbeat
{
    std::uint64_t pid = 0;
    std::uint64_t seq = 0;      //!< monotonically increasing per write
    std::string state;          //!< start | point-start | point-done |
                                //!< shard-done | run-start | run-done
    std::uint64_t pointHash = 0; //!< in-flight point (0 = none)
    std::uint64_t index = 0;     //!< its declaration index
    std::string arch;
    std::string workload;
    std::uint64_t done = 0;  //!< units completed so far
    std::uint64_t total = 0; //!< units owned by this worker
    std::uint64_t wallMs = 0; //!< wall clock at write (heartbeat age)
};

inline std::string
heartbeatJson(const Heartbeat &hb)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kHeartbeatSchema);
    w.field("pid", hb.pid);
    w.field("seq", hb.seq);
    w.field("state", hb.state);
    w.field("point_hash", digestHex(hb.pointHash));
    w.field("index", hb.index);
    w.field("arch", hb.arch);
    w.field("workload", hb.workload);
    w.field("done", hb.done);
    w.field("total", hb.total);
    // Additive (schema stays v1): readers that don't know wall_ms keep
    // parsing; espnuca-top uses it for heartbeat-age display.
    w.field("wall_ms", hb.wallMs);
    w.endObject();
    return w.str();
}

/** @return false on any malformation (torn writes are expected: the
 *  heartbeat writer deliberately skips fsync). */
inline bool
parseHeartbeat(const std::string &doc, Heartbeat &out)
{
    JsonValue v;
    std::string schema;
    Heartbeat hb;
    if (!jsonParse(doc, v) || !jsonString(v.find("schema"), schema) ||
        schema != kHeartbeatSchema ||
        !jsonHex64(v.find("point_hash"), hb.pointHash) ||
        !jsonU64(v.find("seq"), hb.seq) ||
        !jsonString(v.find("state"), hb.state) || hb.state.empty() ||
        !jsonOptional(v.find("pid"), hb.pid, jsonU64) ||
        !jsonOptional(v.find("index"), hb.index, jsonU64) ||
        !jsonOptional(v.find("arch"), hb.arch, jsonString) ||
        !jsonOptional(v.find("workload"), hb.workload, jsonString) ||
        !jsonOptional(v.find("done"), hb.done, jsonU64) ||
        !jsonOptional(v.find("total"), hb.total, jsonU64) ||
        !jsonOptional(v.find("wall_ms"), hb.wallMs, jsonU64))
        return false;
    out = std::move(hb);
    return true;
}

/** Atomic (tmp+rename, no fsync) heartbeat update; failures ignored —
 *  heartbeats are advisory, the work itself must not stop. */
inline void
writeHeartbeat(const std::string &path, Heartbeat &hb)
{
    if (path.empty())
        return;
    ++hb.seq;
    hb.pid = static_cast<std::uint64_t>(::getpid());
    hb.wallMs = ledgerWallMs();
    writeFileAtomicChecked(path, heartbeatJson(hb) + "\n",
                           /*durable=*/false, nullptr);
}

/**
 * espnuca-merge exit codes: stable and machine-readable so the
 * supervisor and CI can branch on the failure cause (a checksum
 * mismatch wants a recompute, a build mismatch wants a rebuild, an
 * incomplete grid wants the missing shards re-run).
 */
enum MergeExit : int
{
    kMergeOk = 0,
    kMergeUsage = 2,          //!< bad CLI invocation
    kMergeIoError = 3,        //!< unreadable dir / unwritable output
    kMergeBadRecord = 4,      //!< a file is not a valid point record
    kMergeChecksum = 5,       //!< a point file failed its CRC32C check
    kMergeBuildMismatch = 6,  //!< points from different binaries
    kMergeGridMismatch = 7,   //!< mixed benches/configs or duplicates
    kMergeIncomplete = 8,     //!< grid has unexcused missing points
};

/** Command-line surface of the sweep engine (shared by every bench). */
struct SweepCli
{
    bool listPoints = false;
    bool haveShard = false;
    ShardSpec shard;
    std::string resultsDir;
    std::string heartbeatPath; //!< supervised workers write liveness here

    static SweepCli
    fromArgs(int argc, char **argv)
    {
        SweepCli c;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--list-points") {
                c.listPoints = true;
            } else if (a == "--shard" && i + 1 < argc) {
                c.shard = ShardSpec::parse(argv[++i]);
                c.haveShard = true;
            } else if (a.rfind("--shard=", 0) == 0) {
                c.shard = ShardSpec::parse(a.substr(8));
                c.haveShard = true;
            } else if (a == "--results-dir" && i + 1 < argc) {
                c.resultsDir = argv[++i];
            } else if (a.rfind("--results-dir=", 0) == 0) {
                c.resultsDir = a.substr(14);
            } else if (a == "--heartbeat" && i + 1 < argc) {
                c.heartbeatPath = argv[++i];
            } else if (a.rfind("--heartbeat=", 0) == 0) {
                c.heartbeatPath = a.substr(12);
            }
        }
        return c;
    }

    /** Any sweep-engine mode requested? */
    bool
    engaged() const
    {
        return listPoints || haveShard || !resultsDir.empty();
    }
};

/**
 * Sweep-engine entry point. Call after declaring the full grid and
 * before ExperimentMatrix::run(); returns true when a sweep mode
 * handled the invocation (the bench should return 0 without running
 * its table path). Exits with status 2 on CLI misuse.
 *
 * A sharded run simulates only this shard's points (hash % N == i, so
 * N shards partition the grid disjointly and completely), one point at
 * a time with the point's seeded repetitions fanned across the worker
 * pool, and writes each finished point to its own results file.
 * Points whose file already exists with matching bench/hash/build/
 * config/index/total are skipped — resumption after a kill re-runs
 * only what is missing.
 */
inline bool
runSweep(ExperimentMatrix &m, const std::string &bench, int argc,
         char **argv)
{
    SweepCli cli;
    try {
        cli = SweepCli::fromArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
    if (!cli.engaged())
        return false;

    const auto &entries = m.entries();
    const std::uint32_t count = cli.haveShard ? cli.shard.count : 1;
    const std::uint32_t index = cli.haveShard ? cli.shard.index : 0;

    if (cli.listPoints) {
        std::printf("%-16s %5s %6s  %-12s %-16s %s\n", "hash", "shard",
                    "index", "arch", "workload", "config_digest");
        std::size_t mine = 0;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const auto &e = entries[i];
            const std::uint64_t h = pointHash(bench, e);
            const std::uint32_t owner =
                static_cast<std::uint32_t>(h % count);
            if (owner == index || !cli.haveShard)
                ++mine;
            std::printf("%s %5u %6zu  %-12s %-16s %s\n",
                        digestHex(h).c_str(), owner, i, e.arch.c_str(),
                        e.workload.c_str(),
                        digestHex(experimentConfigDigest(e.cfg))
                            .c_str());
        }
        std::printf("%zu point(s)", entries.size());
        if (cli.haveShard)
            std::printf(", %zu in shard %u/%u", mine, index, count);
        std::printf("; build %s\n", buildDescribe().c_str());
        return true;
    }

    if (cli.resultsDir.empty()) {
        std::fprintf(stderr,
                     "--shard needs --results-dir to put points in\n");
        std::exit(2);
    }
    std::error_code ec;
    std::filesystem::create_directories(cli.resultsDir, ec);

    // Points the supervisor has blacklisted are not ours to retry: a
    // deliberately-skipped point keeps a crashing worker from dying on
    // it forever while the rest of the shard completes.
    std::set<std::uint64_t> quarantined;
    for (const QuarantineRecord &q : readQuarantine(cli.resultsDir))
        quarantined.insert(q.hash);

    const std::string build = buildToJson(m.config());
    const std::string config = configToJson(m.config());
    const std::uint32_t jobs = m.config().resolveJobs();
    std::optional<ThreadPool> pool;
    if (jobs > 1)
        pool.emplace(jobs);

    Heartbeat hb;
    std::size_t mine = 0;
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (pointHash(bench, entries[i]) % count == index)
            ++mine;
    hb.total = mine;
    hb.state = "start";
    writeHeartbeat(cli.heartbeatPath, hb);

    // Worker-side ledger: one events file per shard under the results
    // directory, stamped with the supervisor's run id when supervised.
    RunLedger &ledger = RunLedger::process();
    {
        std::string run = inheritedRunId();
        if (run.empty())
            run = makeRunId();
        ledger.open(ledgerPathFor(cli.resultsDir, /*supervisor=*/false,
                                  index),
                    run, buildDescribe(), "worker", index);
    }
    ledger.event("shard-start", mine, bench);

    std::size_t done = 0;
    std::size_t skipped = 0;
    std::size_t poisoned = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        const std::uint64_t h = pointHash(bench, e);
        if (h % count != index)
            continue;
        if (quarantined.count(h) != 0) {
            std::printf("[sweep] skip  %s %s/%s (quarantined)\n",
                        digestHex(h).c_str(), e.arch.c_str(),
                        e.workload.c_str());
            ledger.pointEvent("point-quarantine-skip", h, i, e.arch,
                              e.workload);
            ++poisoned;
            ++hb.done;
            continue;
        }
        const std::string path = pointFilePath(cli.resultsDir, h);
        if (std::filesystem::exists(path)) {
            bool valid = false;
            std::string why = "stale result";
            try {
                const PointRecord rec = readPointFile(path);
                valid = rec.bench == bench && rec.hash == h &&
                        rec.index == i && rec.total == entries.size() &&
                        rec.build == build && rec.config == config;
            } catch (const PointFileError &err) {
                why = err.kind() ==
                              PointFileError::Kind::ChecksumMismatch
                          ? "checksum mismatch"
                          : "unreadable result";
            }
            if (valid) {
                std::printf("[sweep] skip  %s %s/%s (valid result)\n",
                            digestHex(h).c_str(), e.arch.c_str(),
                            e.workload.c_str());
                ledger.pointEvent("point-skip", h, i, e.arch,
                                  e.workload, 0, "valid result");
                ++skipped;
                ++hb.done;
                continue;
            }
            std::printf("[sweep] redo  %s %s/%s (%s)\n",
                        digestHex(h).c_str(), e.arch.c_str(),
                        e.workload.c_str(), why.c_str());
            ledger.pointEvent("point-redo", h, i, e.arch, e.workload, 0,
                              why);
        }
        hb.state = "point-start";
        hb.pointHash = h;
        hb.index = i;
        hb.arch = e.arch;
        hb.workload = e.workload;
        writeHeartbeat(cli.heartbeatPath, hb);
        const std::uint64_t started = ledgerWallMs();
        ledger.pointEvent("point-start", h, i, e.arch, e.workload);
        DataPoint p = runPointParallel(
            e.cfg, e.arch, e.workload, pool ? &*pool : nullptr);
        if (e.key != ExperimentMatrix::defaultKey(e.arch, e.workload))
            p.key = e.key;
        PointRecord rec;
        rec.bench = bench;
        rec.hash = h;
        rec.index = i;
        rec.total = entries.size();
        rec.key = jsonQuote(e.key);
        rec.arch = jsonQuote(e.arch);
        rec.workload = jsonQuote(e.workload);
        rec.build = build;
        rec.config = config;
        rec.point = pointToJson(p);
        FileError ferr;
        if (!writePointFile(path, rec, &ferr)) {
            std::fprintf(stderr, "[sweep] %s\n",
                         ferr.message().c_str());
            std::exit(1);
        }
        ++done;
        ++hb.done;
        hb.state = "point-done";
        writeHeartbeat(cli.heartbeatPath, hb);
        // value = wall milliseconds spent on the point (throughput/ETA
        // input for espnuca-top).
        ledger.pointEvent("point-finish", h, i, e.arch, e.workload,
                          ledgerWallMs() - started);
        std::printf("[sweep] done  %s %s/%s\n", digestHex(h).c_str(),
                    e.arch.c_str(), e.workload.c_str());
    }
    hb.state = "shard-done";
    hb.pointHash = 0;
    writeHeartbeat(cli.heartbeatPath, hb);
    ledger.event("shard-finish", done, bench);
    std::printf("[sweep] shard %u/%u: %zu computed, %zu resumed, "
                "%zu quarantined, %zu point(s) total in grid\n",
                index, count, done, skipped, poisoned, entries.size());
    return true;
}

} // namespace espnuca

#endif // ESPNUCA_HARNESS_SWEEP_HPP_
