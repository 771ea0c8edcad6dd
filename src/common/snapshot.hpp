/**
 * @file
 * Versioned binary checkpoint format for System snapshot/restore.
 *
 * A snapshot captures the complete simulation state at a drained epoch
 * boundary (event queue empty, no transactions in flight) so a sweep
 * point can fast-forward past a warmup prefix shared with an earlier
 * run. The format is a flat little-endian byte stream with a fixed
 * header identifying the producing configuration; every stateful
 * component appends/extracts its fields in a fixed order via
 * save(SnapshotWriter&) / load(SnapshotReader&).
 *
 * Versioning rules (DESIGN.md 5.11):
 *  - kSnapshotVersion bumps on ANY layout change, however small; there
 *    is no in-place migration. A version mismatch is a SnapshotError
 *    and callers fall back to a cold run.
 *  - The header binds the snapshot to (arch, workload, seed, warmup
 *    ops, config digest, fault-plan digest): restoring under any other
 *    identity is refused, because the serialized state would silently
 *    diverge from what a cold run produces.
 *  - Readers check exact byte counts; a truncated or oversized file is
 *    an error, never a partial restore.
 *  - Snapshot FILES additionally carry a little-endian CRC32C trailer
 *    over everything before it (version 2). The trailer belongs to the
 *    file layer: writeFile appends it, fromFile verifies and strips it,
 *    in-memory reader/writer round trips never see it. Bit flips,
 *    truncation and trailing garbage are all caught before a single
 *    body byte is interpreted.
 */

#ifndef ESPNUCA_COMMON_SNAPSHOT_HPP_
#define ESPNUCA_COMMON_SNAPSHOT_HPP_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/crc32c.hpp"

namespace espnuca {

/** Any malformed / mismatched / truncated snapshot surfaces as this. */
class SnapshotError : public std::runtime_error
{
  public:
    /** What exactly is wrong — callers branch on this (a checksum
     *  mismatch is corruption; a version mismatch is a stale file). */
    enum class Kind
    {
        Other,            //!< semantic errors (identity, layout, ...)
        OpenFailed,       //!< file absent or unreadable
        BadMagic,         //!< not a snapshot file at all
        VersionMismatch,  //!< produced by another format revision
        Truncated,        //!< fewer bytes than the body demands
        TrailingBytes,    //!< more bytes than the body consumes
        ChecksumMismatch, //!< CRC32C trailer disagrees with content
    };

    explicit SnapshotError(const std::string &what, Kind kind = Kind::Other)
        : std::runtime_error("snapshot: " + what), kind_(kind)
    {
    }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

inline constexpr std::uint32_t kSnapshotMagic = 0x4E505345; // "ESPN"
// v2: files carry a CRC32C content trailer (see header comment).
// v3: body ends with a metrics-sampler section (presence flag +
//     captured warmup timeseries), so restored runs merge a complete
//     series across the fast-forward boundary.
// v4: the identity header carries the placement digest (mesh shape +
//     every core/bank/controller assignment), so a checkpoint can
//     never be restored under a different physical layout.
// v5: the mesh section drops its message-latency total (the mesh counts
//     messages per routed delivery and keeps no latency sum).
// v6: the sampler section stores StatsRegistry samples: per sample the
//     cycle, a name table when it differs from the previous sample's,
//     and one value per name (no fixed per-bank record).
// v7: a cache set is stored in its in-memory layout: u32 way count and
//     disabled mask, then per way the tag, the u8 recency rank and the
//     5-byte cold record (no masks, stamps or repeated addr/valid).
// v8: the nmax monitor stores one u32 register per EMA (the EMAs update
//     per access; no pending-sample bits or count).
inline constexpr std::uint32_t kSnapshotVersion = 8;

/** Identity a snapshot is bound to; all fields must match on restore. */
struct SnapshotIdentity
{
    std::string arch;
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t warmOps = 0;     //!< warmup references per core
    std::uint64_t configDigest = 0;
    std::uint64_t faultDigest = 0;
    std::uint64_t placeDigest = 0; //!< resolved PlacementMap digest

    bool
    operator==(const SnapshotIdentity &o) const
    {
        return arch == o.arch && workload == o.workload &&
               seed == o.seed && warmOps == o.warmOps &&
               configDigest == o.configDigest &&
               faultDigest == o.faultDigest &&
               placeDigest == o.placeDigest;
    }
};

/** FNV-1a: the stable digest primitive for configs and fault plans. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    return fnv1a(s.data(), s.size(), h);
}

/** Append-only little-endian byte stream builder. */
class SnapshotWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    const std::string &bytes() const { return buf_; }

    void
    header(const SnapshotIdentity &id)
    {
        u32(kSnapshotMagic);
        u32(kSnapshotVersion);
        str(id.arch);
        str(id.workload);
        u64(id.seed);
        u64(id.warmOps);
        u64(id.configDigest);
        u64(id.faultDigest);
        u64(id.placeDigest);
    }

    /**
     * Durable atomic write: CRC32C trailer appended, tmp file + fsync +
     * rename + directory fsync, every syscall checked — a killed or
     * out-of-space sweep never leaves a half-written checkpoint for the
     * resume pass to trip over, and a surviving file always verifies.
     * @return false (no throw) when the filesystem refuses; `*error`
     *         (when given) names the failing stage and errno.
     */
    bool
    writeFile(const std::string &path, FileError *error = nullptr) const
    {
        std::string out = buf_;
        const std::uint32_t crc = crc32c(out);
        for (int i = 0; i < 4; ++i)
            out.push_back(
                static_cast<char>((crc >> (8 * i)) & 0xFF));
        return writeFileAtomicChecked(path, out, /*durable=*/true,
                                      error);
    }

  private:
    std::string buf_;
};

/** Strict little-endian extractor over an in-memory snapshot image. */
class SnapshotReader
{
  public:
    explicit SnapshotReader(std::string data) : data_(std::move(data)) {}

    /**
     * Load a snapshot file whole and verify its CRC32C trailer; the
     * returned reader sees only the body. Throws SnapshotError naming
     * the file when it is absent, too short to carry a trailer, or the
     * stored and recomputed checksums disagree (bit flips, truncation,
     * trailing garbage — anything that alters a byte).
     */
    static SnapshotReader
    fromFile(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            throw SnapshotError("cannot open " + path,
                                SnapshotError::Kind::OpenFailed);
        std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (data.size() < 4)
            throw SnapshotError(path + ": too short for a checksum "
                                       "trailer",
                                SnapshotError::Kind::Truncated);
        std::uint32_t stored = 0;
        for (int i = 0; i < 4; ++i)
            stored |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                          data[data.size() - 4 + i]))
                      << (8 * i);
        data.resize(data.size() - 4);
        const std::uint32_t actual = crc32c(data);
        if (stored != actual)
            throw SnapshotError(
                path + ": checksum mismatch, expected " +
                    crc32cHex(stored) + ", actual " + crc32cHex(actual),
                SnapshotError::Kind::ChecksumMismatch);
        return SnapshotReader(std::move(data));
    }

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(data_[pos_++]))
                 << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data_[pos_++]))
                 << (8 * i);
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double f64() { return std::bit_cast<double>(u64()); }

    /**
     * Read an element count and refuse one the remaining bytes cannot
     * hold at `min_bytes` per element, so that a corrupt count fails
     * here instead of sizing an allocation.
     */
    std::uint64_t
    count(std::uint64_t min_bytes)
    {
        const std::uint64_t n = u64();
        if (n > remaining() / min_bytes)
            throw SnapshotError("element count beyond the snapshot",
                                SnapshotError::Kind::Truncated);
        return n;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s = data_.substr(pos_, n);
        pos_ += n;
        return s;
    }

    /**
     * Validate magic + version and return the stored identity; the
     * caller compares it against the identity it is about to run.
     */
    SnapshotIdentity
    header()
    {
        if (u32() != kSnapshotMagic)
            throw SnapshotError("bad magic (not a snapshot file)",
                                SnapshotError::Kind::BadMagic);
        const std::uint32_t v = u32();
        if (v != kSnapshotVersion) {
            throw SnapshotError("version mismatch: file " +
                                    std::to_string(v) + ", expected " +
                                    std::to_string(kSnapshotVersion),
                                SnapshotError::Kind::VersionMismatch);
        }
        SnapshotIdentity id;
        id.arch = str();
        id.workload = str();
        id.seed = u64();
        id.warmOps = u64();
        id.configDigest = u64();
        id.faultDigest = u64();
        id.placeDigest = u64();
        return id;
    }

    /** All bytes must be consumed: trailing garbage is corruption. */
    void
    finish() const
    {
        if (pos_ != data_.size())
            throw SnapshotError("trailing bytes after snapshot body",
                                SnapshotError::Kind::TrailingBytes);
    }

    std::size_t remaining() const { return data_.size() - pos_; }

  private:
    void
    need(std::uint64_t n) const
    {
        if (n > data_.size() - pos_)
            throw SnapshotError("truncated snapshot",
                                SnapshotError::Kind::Truncated);
    }

    std::string data_;
    std::size_t pos_ = 0;
};

} // namespace espnuca

#endif // ESPNUCA_COMMON_SNAPSHOT_HPP_
