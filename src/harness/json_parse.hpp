/**
 * @file
 * Minimal recursive-descent JSON parser: the harness's one JSON reader.
 *
 * It reads the compact artifacts this repo writes (point files,
 * quarantine lists, heartbeats, run-ledger lines) and the documents it
 * did not write (pretty-printed BENCH_core.json, hand-edited
 * baselines, google-benchmark output) alike: any RFC 8259 document
 * becomes an ordered value tree. It is not a performance path — the
 * simulator never reads JSON — and favours smallness over speed.
 *
 * Every value records the byte range it occupies in the source, so a
 * reader can slice a value's exact bytes back out (espnuca-merge
 * re-frames stored point spans verbatim through JsonWriter::raw).
 * Numbers also keep their source spelling, which the strict jsonU64
 * reader parses directly: counters above 2^53 never pass through the
 * double in `number`.
 */

#ifndef ESPNUCA_HARNESS_JSON_PARSE_HPP_
#define ESPNUCA_HARNESS_JSON_PARSE_HPP_

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

namespace espnuca {

/** One parsed JSON value. Object members keep document order. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text; //!< string payload, or a number's source spelling
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> items;
    std::size_t offset = 0; //!< first byte of the value in the source
    std::size_t length = 0; //!< its byte length in the source

    /** The value's exact bytes in `source` (the parsed document). */
    std::string
    span(const std::string &source) const
    {
        return source.substr(offset, length);
    }

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup (objects only). @return nullptr when absent. */
    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** `find` chained through nested objects; nullptr on any miss. */
    const JsonValue *
    path(const std::vector<std::string> &keys) const
    {
        const JsonValue *v = this;
        for (const std::string &k : keys) {
            if (v == nullptr || !v->isObject())
                return nullptr;
            v = v->find(k);
        }
        return v;
    }
};

namespace detail {

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : s_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing garbage after document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_ != nullptr && error_->empty())
            *error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    expect(char c)
    {
        if (pos_ >= s_.size() || s_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool
    literal(const char *word, JsonValue &out, JsonValue::Kind kind,
            bool b)
    {
        for (const char *p = word; *p != '\0'; ++p, ++pos_)
            if (pos_ >= s_.size() || s_[pos_] != *p)
                return fail("bad literal");
        out.kind = kind;
        out.boolean = b;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= s_.size())
                break;
            const char esc = s_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs in
                // harness documents do not occur; a lone surrogate
                // encodes as-is, which round-trips for our purposes).
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3F)));
                }
                break;
            }
            default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("bad number");
        out.kind = JsonValue::Kind::Number;
        out.text = s_.substr(start, pos_ - start);
        out.number = std::strtod(out.text.c_str(), nullptr);
        return true;
    }

    bool
    value(JsonValue &out)
    {
        // Bounded recursion: a torn or hostile artifact of nested
        // brackets must fail as malformed, not overflow the stack.
        if (depth_ == kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        out.offset = pos_;
        ++depth_;
        const bool ok = valueAt(out);
        --depth_;
        out.length = pos_ - out.offset;
        return ok;
    }

    bool
    valueAt(JsonValue &out)
    {
        if (pos_ >= s_.size())
            return fail("unexpected end of document");
        switch (s_[pos_]) {
        case '{': {
            ++pos_;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (!expect(':'))
                    return false;
                JsonValue v;
                if (!value(v))
                    return false;
                out.members.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return expect('}');
            }
        }
        case '[': {
            ++pos_;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue v;
                if (!value(v))
                    return false;
                out.items.push_back(std::move(v));
                skipWs();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return expect(']');
            }
        }
        case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.text);
        case 't':
            return literal("true", out, JsonValue::Kind::Bool, true);
        case 'f':
            return literal("false", out, JsonValue::Kind::Bool, false);
        case 'n':
            return literal("null", out, JsonValue::Kind::Null, false);
        default:
            return number(out);
        }
    }

    static constexpr int kMaxDepth = 256;

    const std::string &s_;
    std::string *error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace detail

/** Parse `text` into `out`. @return false (with a message in *error,
 *  when given) on malformed input. */
inline bool
jsonParse(const std::string &text, JsonValue &out, std::string *error = nullptr)
{
    out = JsonValue();
    return detail::JsonParser(text, error).parse(out);
}

/** A number member as an exact u64. Its source spelling must be plain
 *  decimal digits with no sign, fraction or exponent, and fit in 64
 *  bits. @return false when absent, mistyped or malformed. */
inline bool
jsonU64(const JsonValue *v, std::uint64_t &out)
{
    if (v == nullptr || !v->isNumber())
        return false;
    const char *end = v->text.data() + v->text.size();
    const auto [at, ec] = std::from_chars(v->text.data(), end, out);
    return ec == std::errc() && at == end;
}

/** A 16-hex-digit string member (digestHex spelling) as a u64.
 *  @return false when absent, mistyped or malformed. */
inline bool
jsonHex64(const JsonValue *v, std::uint64_t &out)
{
    if (v == nullptr || !v->isString() || v->text.size() != 16)
        return false;
    const char *end = v->text.data() + v->text.size();
    const auto [at, ec] = std::from_chars(v->text.data(), end, out, 16);
    return ec == std::errc() && at == end;
}

/** A string member's decoded text. @return false when absent or not
 *  a string. */
inline bool
jsonString(const JsonValue *v, std::string &out)
{
    if (v == nullptr || !v->isString())
        return false;
    out = v->text;
    return true;
}

/** `read(v, out)` for an optional member: absence succeeds and leaves
 *  `out` unchanged; a present member must read. */
template <typename T, typename Reader>
bool
jsonOptional(const JsonValue *v, T &out, Reader read)
{
    return v == nullptr || read(v, out);
}

/**
 * Flatten every numeric leaf into `out` as "a.b.c" → value (std::map,
 * so report output is key-sorted — what a diff wants). Array elements
 * join the path by index.
 */
inline void
jsonFlattenNumbers(const JsonValue &v, const std::string &prefix,
                   std::map<std::string, double> &out)
{
    switch (v.kind) {
    case JsonValue::Kind::Number:
        out[prefix] = v.number;
        break;
    case JsonValue::Kind::Object:
        for (const auto &[k, child] : v.members)
            jsonFlattenNumbers(
                child, prefix.empty() ? k : prefix + "." + k, out);
        break;
    case JsonValue::Kind::Array:
        for (std::size_t i = 0; i < v.items.size(); ++i)
            jsonFlattenNumbers(v.items[i],
                               prefix.empty()
                                   ? std::to_string(i)
                                   : prefix + "." + std::to_string(i),
                               out);
        break;
    default:
        break;
    }
}

} // namespace espnuca

#endif // ESPNUCA_HARNESS_JSON_PARSE_HPP_
