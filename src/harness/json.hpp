/**
 * @file
 * Minimal JSON writer for machine-readable experiment output. Emits
 * deterministic, correctly escaped JSON without external dependencies,
 * plus the CRC32C content trailer that frames one-object records.
 * Reading goes through json_parse.hpp, the harness's one JSON reader.
 */

#ifndef ESPNUCA_HARNESS_JSON_HPP_
#define ESPNUCA_HARNESS_JSON_HPP_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32c.hpp"

namespace espnuca {

/** Streaming JSON builder with explicit begin/end nesting. */
class JsonWriter
{
  public:
    JsonWriter() = default;

    /** Serialized document (valid once all scopes are closed). */
    std::string str() const { return out_.str(); }

    JsonWriter &
    beginObject()
    {
        comma();
        out_ << "{";
        stack_.push_back(State::FirstInObject);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        pop();
        out_ << "}";
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        comma();
        out_ << "[";
        stack_.push_back(State::FirstInArray);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        pop();
        out_ << "]";
        return *this;
    }

    /** Emit a key (inside an object); follow with a value call. */
    JsonWriter &
    key(const std::string &k)
    {
        comma();
        writeString(k);
        out_ << ":";
        pendingValue_ = true;
        return *this;
    }

    JsonWriter &
    value(const std::string &v)
    {
        comma();
        writeString(v);
        return *this;
    }

    JsonWriter &
    value(const char *v)
    {
        return value(std::string(v));
    }

    JsonWriter &
    value(double v)
    {
        comma();
        if (std::isfinite(v)) {
            std::ostringstream tmp;
            tmp.precision(12);
            tmp << v;
            out_ << tmp.str();
        } else {
            out_ << "null";
        }
        return *this;
    }

    JsonWriter &
    value(std::uint64_t v)
    {
        comma();
        out_ << v;
        return *this;
    }

    JsonWriter &
    value(std::int64_t v)
    {
        comma();
        out_ << v;
        return *this;
    }

    JsonWriter &
    value(int v)
    {
        return value(static_cast<std::int64_t>(v));
    }

    JsonWriter &
    value(bool v)
    {
        comma();
        out_ << (v ? "true" : "false");
        return *this;
    }

    /** key + value in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }

    /**
     * Inject a pre-serialized JSON value verbatim (comma/first-element
     * logic still applies). The sweep engine assembles merged documents
     * from stored value spans through this, which is what makes sharded
     * and unsharded outputs byte-identical: the bytes are never
     * re-serialized, only re-framed.
     */
    JsonWriter &
    raw(const std::string &json)
    {
        comma();
        out_ << json;
        return *this;
    }

  private:
    enum class State { FirstInObject, InObject, FirstInArray, InArray };

    void
    comma()
    {
        if (pendingValue_) {
            pendingValue_ = false;
            return; // value directly follows its key
        }
        if (stack_.empty())
            return;
        State &s = stack_.back();
        if (s == State::InObject || s == State::InArray)
            out_ << ",";
        else
            s = s == State::FirstInObject ? State::InObject
                                          : State::InArray;
    }

    void
    pop()
    {
        if (!stack_.empty()) {
            // Entering a container consumed the "first" state; after
            // closing, the parent has one more element.
            stack_.pop_back();
            if (!stack_.empty() && stack_.back() == State::FirstInObject)
                stack_.back() = State::InObject;
            else if (!stack_.empty() &&
                     stack_.back() == State::FirstInArray)
                stack_.back() = State::InArray;
        }
    }

    void
    writeString(const std::string &s)
    {
        out_ << '"';
        for (char c : s) {
            switch (c) {
              case '"': out_ << "\\\""; break;
              case '\\': out_ << "\\\\"; break;
              case '\n': out_ << "\\n"; break;
              case '\r': out_ << "\\r"; break;
              case '\t': out_ << "\\t"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out_ << buf;
                } else {
                    out_ << c;
                }
            }
        }
        out_ << '"';
    }

    std::ostringstream out_;
    std::vector<State> stack_;
    bool pendingValue_ = false;
};

/** 16-hex-digit rendering of a digest (stable across platforms). */
inline std::string
digestHex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

/** A string as a JSON string literal (JsonWriter escaping). */
inline std::string
jsonQuote(const std::string &s)
{
    JsonWriter w;
    w.value(s);
    return w.str();
}

// ---------------------------------------------------------------------
// CRC32C content trailer for one-object JSON records: the serialized
// object's closing brace is replaced by ,"crc32c":"hhhhhhhh"} where the
// checksum covers the exact record with the trailer removed. Any
// altered byte — flipped, truncated, appended — is detectable without
// re-deriving a single value. Point files and ledger records share
// this framing.
// ---------------------------------------------------------------------

inline constexpr std::size_t kJsonCrcTagLen = 11;    // ,"crc32c":"
inline constexpr std::size_t kJsonCrcSuffixLen = 21; // tag + 8 hex + "}

/** Append the checksum trailer to a compact one-object record. */
inline std::string
jsonCrcAppend(const std::string &core)
{
    return core.substr(0, core.size() - 1) + ",\"crc32c\":\"" +
           crc32cHex(crc32c(core)) + "\"}";
}

/**
 * Verify a record's checksum trailer (trailing newline tolerated) and
 * return the covered body via `body`. `stored` / `actual`, when given,
 * receive the trailer's checksum and the one recomputed over `body`;
 * both stay untouched when there is no well-formed trailer. @return
 * false on a missing / misplaced trailer or a checksum mismatch.
 */
inline bool
jsonCrcStrip(const std::string &doc, std::string &body,
             std::string *stored = nullptr, std::string *actual = nullptr)
{
    std::string rec = doc;
    if (!rec.empty() && rec.back() == '\n')
        rec.pop_back();
    if (rec.size() < kJsonCrcSuffixLen ||
        rec.compare(rec.size() - kJsonCrcSuffixLen, kJsonCrcTagLen,
                    ",\"crc32c\":\"") != 0 ||
        rec.compare(rec.size() - 2, 2, "\"}") != 0)
        return false;
    const std::string have = rec.substr(rec.size() - 10, 8);
    body = rec.substr(0, rec.size() - kJsonCrcSuffixLen) + "}";
    const std::string want = crc32cHex(crc32c(body));
    if (stored != nullptr)
        *stored = have;
    if (actual != nullptr)
        *actual = want;
    return have == want;
}

} // namespace espnuca

#endif // ESPNUCA_HARNESS_JSON_HPP_
