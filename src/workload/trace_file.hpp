/**
 * @file
 * Trace record/replay: lets users capture the synthetic streams to disk
 * or bring their own traces (e.g. converted Pin/DynamoRIO/gem5 traces).
 *
 * Format: one line per reference, whitespace separated:
 *
 *     <gap> <type> <hex-address> <dep>
 *
 * where type is one of  L (load), S (store), I (ifetch)  and dep is 0/1
 * (address depends on the previous load). Lines starting with '#' are
 * comments. One file per core.
 *
 * The reader is strict: a line with another field count, a gap or an
 * address that is not a whole number (parse_num.hpp), or another type
 * or dep token throws a TraceFormatError naming the file and the line.
 */

#ifndef ESPNUCA_WORKLOAD_TRACE_FILE_HPP_
#define ESPNUCA_WORKLOAD_TRACE_FILE_HPP_

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/log.hpp"
#include "common/parse_num.hpp"
#include "cpu/trace_core.hpp"

namespace espnuca {

/** A trace line that is not `<gap> <L|S|I> <hex-address> <0|1>`;
 *  what() starts with `<file>:<line>: `. */
class TraceFormatError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parse line `line_no` of trace file `path` into `op`. Returns false
 * for a blank or comment line; throws TraceFormatError, prefixed with
 * `path:line_no`, for a malformed one.
 */
inline bool
parseTraceLine(const std::string &line, const std::string &path,
               std::uint64_t line_no, TraceOp &op)
{
    if (line.empty() || line[0] == '#')
        return false;
    const auto bad = [&](const std::string &what) {
        return TraceFormatError(path + ":" + std::to_string(line_no) +
                                ": " + what);
    };
    std::istringstream ls(line);
    std::string gap, type, addr, dep, extra;
    if (!(ls >> gap >> type >> addr >> dep) || ls >> extra)
        throw bad("expected <gap> <L|S|I> <hex-address> <0|1>, got '" +
                  line + "'");
    if (type != "L" && type != "S" && type != "I")
        throw bad("unknown access type '" + type + "'");
    op.type = type == "L"   ? AccessType::Load
              : type == "S" ? AccessType::Store
                            : AccessType::Ifetch;
    if (dep != "0" && dep != "1")
        throw bad("dep must be 0 or 1, got '" + dep + "'");
    try {
        op.gap = static_cast<std::uint32_t>(
            parseUnsigned(gap, "gap", kMaxU32));
        op.addr = parseUnsigned(addr, "address", ~Addr{0}, 16);
    } catch (const NumberError &e) {
        throw bad(e.what());
    }
    op.dependsOnPrev = dep == "1";
    return true;
}

/** TraceSource that replays a trace file. */
class FileTraceSource : public TraceSource
{
  public:
    explicit FileTraceSource(const std::string &path)
        : in_(path), path_(path)
    {
        if (!in_.is_open())
            ESP_FATAL("cannot open trace file: " + path);
    }

    bool
    next(TraceOp &op) override
    {
        std::string line;
        while (std::getline(in_, line)) {
            if (parseTraceLine(line, path_, ++line_, op))
                return true;
        }
        return false;
    }

  private:
    std::ifstream in_;
    std::string path_;
    std::uint64_t line_ = 0;
};

/** Writes TraceOps to a trace file in the replayable format. */
class TraceRecorder
{
  public:
    explicit TraceRecorder(const std::string &path) : out_(path)
    {
        if (!out_.is_open())
            ESP_FATAL("cannot create trace file: " + path);
        out_ << "# espnuca trace v1: <gap> <L|S|I> <hex-addr> <dep>\n";
    }

    void
    record(const TraceOp &op)
    {
        const char t = op.type == AccessType::Load    ? 'L'
                       : op.type == AccessType::Store ? 'S'
                                                      : 'I';
        out_ << op.gap << ' ' << t << ' ' << std::hex << op.addr
             << std::dec << ' ' << (op.dependsOnPrev ? 1 : 0) << '\n';
        ++recorded_;
    }

    std::uint64_t recorded() const { return recorded_; }

  private:
    std::ofstream out_;
    std::uint64_t recorded_ = 0;
};

/**
 * Pass-through source: replays an inner source while writing every op
 * to a recorder (capture mode of the CLI tool).
 */
class RecordingSource : public TraceSource
{
  public:
    RecordingSource(std::unique_ptr<TraceSource> inner,
                    const std::string &path)
        : inner_(std::move(inner)), rec_(path)
    {
    }

    bool
    next(TraceOp &op) override
    {
        if (!inner_->next(op))
            return false;
        rec_.record(op);
        return true;
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    TraceRecorder rec_;
};

} // namespace espnuca

#endif // ESPNUCA_WORKLOAD_TRACE_FILE_HPP_
