/**
 * @file
 * Crash-safe structured run ledger (`espnuca-events-v1`, DESIGN.md
 * 5.13): the supervisor and every sweep worker append one JSONL record
 * per lifecycle event — run/shard/point start·finish·retry·quarantine,
 * heartbeat gaps, checkpoint save/load, watchdog fires — so a fleet
 * run leaves a queryable, machine-verifiable record of everything that
 * happened, however it died.
 *
 * Crash safety comes from three properties:
 *  - every writer owns its own file (`events-supervisor.jsonl`,
 *    `events-shard-<i>.jsonl`), so there is no cross-process
 *    interleaving to corrupt;
 *  - records are appended with a single O_APPEND write() each, so a
 *    SIGKILL can tear at most the final line;
 *  - every record carries the same CRC32C content trailer as point
 *    files (json.hpp framing), so a torn tail — or any flipped byte —
 *    is detected line-by-line, never silently consumed.
 *
 * Every record is stamped with a stable 16-hex run id (the supervisor
 * mints one and exports it to workers via ESPNUCA_RUN_ID; standalone
 * workers mint their own), a per-writer monotonic sequence number, a
 * wall-clock timestamp and the producing build — enough to correlate
 * ledgers across shards, restarts and machines.
 *
 * Emission is a process-global handle (RunLedger::process()) so deep
 * components (checkpoint save/load in simulatePhased, watchdog fires
 * and retries in attemptRun) can emit without plumbing a ledger
 * through every layer; the handle no-ops until opened.
 */

#ifndef ESPNUCA_HARNESS_LEDGER_HPP_
#define ESPNUCA_HARNESS_LEDGER_HPP_

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "harness/json.hpp"
#include "harness/json_parse.hpp"

namespace espnuca {

inline constexpr const char *kLedgerSchema = "espnuca-events-v1";

/** Env var a supervisor exports so its workers share one run id. */
inline constexpr const char *kRunIdEnv = "ESPNUCA_RUN_ID";

/**
 * One ledger record. Callers fill the event fields; the writer stamps
 * identity (run id, seq, wall clock, pid, role, shard, build) on emit.
 *
 * Event vocabulary (DESIGN.md 5.13):
 *  - supervisor: run-start, worker-spawn, worker-exit, heartbeat-gap,
 *    worker-stall-kill, chaos-kill, point-quarantine, shard-give-up,
 *    run-finish
 *  - worker:     shard-start, point-start, point-finish, point-skip,
 *                point-redo, point-quarantine-skip, shard-finish
 *  - deep paths: checkpoint-save, checkpoint-load, run-retry,
 *                watchdog-fire
 *
 * Terminal events for a started point: point-finish, point-skip,
 * point-quarantine-skip, or a supervisor point-quarantine — the ledger
 * validator checks every point-start eventually reaches one.
 */
struct LedgerEvent
{
    std::string event;
    std::uint64_t pointHash = 0; //!< point identity (0 = not point-scoped)
    std::uint64_t index = 0;
    std::string arch;
    std::string workload;
    std::uint64_t value = 0; //!< event-specific magnitude (counts, ms)
    std::string detail;      //!< human-readable context (describe(), why)

    // Stamped by RunLedger::emit (or by hand when re-serializing).
    std::string run;   //!< 16-hex run id
    std::uint64_t seq = 0;
    std::uint64_t wallMs = 0;
    std::uint64_t pid = 0;
    std::string role;          //!< "supervisor" | "worker"
    std::uint32_t shard = 0;
    std::string build;         //!< producing binary (git describe)
};

/** Milliseconds since the Unix epoch (record timestamps). */
inline std::uint64_t
ledgerWallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** Mint a run id: unique per invocation, stable for its duration. */
inline std::string
makeRunId()
{
    const std::uint64_t mixed =
        splitmix64(ledgerWallMs() ^
                   (static_cast<std::uint64_t>(::getpid()) << 40));
    return digestHex(mixed);
}

/** The run id exported by a supervising process, or "" when none. */
inline std::string
inheritedRunId()
{
    const char *env = std::getenv(kRunIdEnv);
    return env != nullptr ? std::string(env) : std::string();
}

/** Ledger file of one writer under the results directory. */
inline std::string
ledgerPathFor(const std::string &dir, bool supervisor,
              std::uint32_t shard = 0)
{
    return supervisor
        ? dir + "/events-supervisor.jsonl"
        : dir + "/events-shard-" + std::to_string(shard) + ".jsonl";
}

/** Serialize one record (sans '\n'), CRC trailer included. */
inline std::string
ledgerEventJson(const LedgerEvent &e)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kLedgerSchema);
    w.field("run", e.run);
    w.field("seq", e.seq);
    w.field("wall_ms", e.wallMs);
    w.field("pid", e.pid);
    w.field("role", e.role);
    w.field("shard", static_cast<std::uint64_t>(e.shard));
    w.field("event", e.event);
    if (e.pointHash != 0) {
        w.field("point_hash", digestHex(e.pointHash));
        w.field("index", e.index);
        w.field("arch", e.arch);
        w.field("workload", e.workload);
    }
    w.field("value", e.value);
    if (!e.detail.empty())
        w.field("detail", e.detail);
    w.field("build", e.build);
    w.endObject();
    return jsonCrcAppend(w.str());
}

/** Parse + CRC-verify one ledger line. @return false on a torn tail,
 *  flipped byte, or anything that is not a v1 record. */
inline bool
parseLedgerEvent(const std::string &line, LedgerEvent &out)
{
    std::string body;
    JsonValue v;
    std::string schema;
    LedgerEvent e;
    std::uint64_t shard = 0;
    if (!jsonCrcStrip(line, body) || !jsonParse(body, v) ||
        !jsonString(v.find("schema"), schema) || schema != kLedgerSchema ||
        !jsonU64(v.find("seq"), e.seq) ||
        !jsonString(v.find("event"), e.event) ||
        !jsonString(v.find("run"), e.run) || e.run.empty() ||
        !jsonString(v.find("role"), e.role) || e.role.empty() ||
        !jsonOptional(v.find("wall_ms"), e.wallMs, jsonU64) ||
        !jsonOptional(v.find("pid"), e.pid, jsonU64) ||
        !jsonOptional(v.find("shard"), shard, jsonU64) ||
        shard > UINT32_MAX ||
        !jsonOptional(v.find("point_hash"), e.pointHash, jsonHex64) ||
        !jsonOptional(v.find("index"), e.index, jsonU64) ||
        !jsonOptional(v.find("arch"), e.arch, jsonString) ||
        !jsonOptional(v.find("workload"), e.workload, jsonString) ||
        !jsonOptional(v.find("value"), e.value, jsonU64) ||
        !jsonOptional(v.find("detail"), e.detail, jsonString) ||
        !jsonOptional(v.find("build"), e.build, jsonString))
        return false;
    e.shard = static_cast<std::uint32_t>(shard);
    out = std::move(e);
    return true;
}

/**
 * Append-only ledger writer. One instance per process role; the
 * process-global handle lets deep components emit without plumbing.
 * Thread-safe: attemptRun emits from pool threads.
 */
class RunLedger
{
  public:
    /** The process-wide emission handle (no-op until open()ed). */
    static RunLedger &
    process()
    {
        static RunLedger ledger;
        return ledger;
    }

    RunLedger() = default;
    ~RunLedger() { close(); }
    RunLedger(const RunLedger &) = delete;
    RunLedger &operator=(const RunLedger &) = delete;

    /**
     * Open (append mode) and adopt the identity every subsequent emit
     * is stamped with. Best-effort: failure leaves the ledger closed
     * and the work unaffected.
     */
    bool
    open(const std::string &path, const std::string &run_id,
         const std::string &build, const std::string &role,
         std::uint32_t shard)
    {
        std::lock_guard<std::mutex> lock(mu_);
        closeLocked();
        fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd_ < 0)
            return false;
        run_ = run_id;
        build_ = build;
        role_ = role;
        shard_ = shard;
        seq_ = 0;
        return true;
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lock(mu_);
        closeLocked();
    }

    bool
    isOpen() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return fd_ >= 0;
    }

    const std::string &runId() const { return run_; }

    /**
     * Stamp identity onto `e` and append it as one line. A short or
     * failed write closes the ledger (a half-written tail is exactly
     * what the CRC trailer exists to catch); the sweep itself never
     * stops for a ledger problem.
     */
    void
    emit(LedgerEvent e)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ < 0)
            return;
        e.run = run_;
        e.seq = ++seq_;
        e.wallMs = ledgerWallMs();
        e.pid = static_cast<std::uint64_t>(::getpid());
        e.role = role_;
        e.shard = shard_;
        e.build = build_;
        const std::string line = ledgerEventJson(e) + "\n";
        std::size_t off = 0;
        while (off < line.size()) {
            const ::ssize_t n =
                ::write(fd_, line.data() + off, line.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                closeLocked();
                return;
            }
            off += static_cast<std::size_t>(n);
        }
    }

    /** Convenience: emit an event with just a type (+ value/detail). */
    void
    event(const std::string &type, std::uint64_t value = 0,
          const std::string &detail = "")
    {
        LedgerEvent e;
        e.event = type;
        e.value = value;
        e.detail = detail;
        emit(std::move(e));
    }

    /** Convenience: emit a point-scoped event. */
    void
    pointEvent(const std::string &type, std::uint64_t hash,
               std::uint64_t index, const std::string &arch,
               const std::string &workload, std::uint64_t value = 0,
               const std::string &detail = "")
    {
        LedgerEvent e;
        e.event = type;
        e.pointHash = hash;
        e.index = index;
        e.arch = arch;
        e.workload = workload;
        e.value = value;
        e.detail = detail;
        emit(std::move(e));
    }

  private:
    void
    closeLocked()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    mutable std::mutex mu_;
    int fd_ = -1;
    std::uint64_t seq_ = 0;
    std::string run_;
    std::string build_;
    std::string role_;
    std::uint32_t shard_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_HARNESS_LEDGER_HPP_
