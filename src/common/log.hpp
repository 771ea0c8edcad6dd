/**
 * @file
 * Status/error helpers: panic() for internal invariant violations,
 * fatal() for user/configuration errors, and a leveled,
 * component-tagged logger (ESP_LOG) for everything else.
 *
 * Logging levels: Error > Warn > Info > Debug > Trace. The default
 * threshold is Info; the ESPNUCA_LOG environment variable raises or
 * lowers it globally or per component:
 *
 *   ESPNUCA_LOG=debug                 everything up to debug
 *   ESPNUCA_LOG=mesh:trace            mesh only, full detail
 *   ESPNUCA_LOG=warn,obs:debug        global warn, obs at debug
 *
 * Error/Warn/Info messages keep the historical untagged stderr format
 * ("warn: ...", "info: ...") so existing log greps stay valid; Debug
 * and Trace are tagged with their component ("debug[mesh]: ...").
 */

#ifndef ESPNUCA_COMMON_LOG_HPP_
#define ESPNUCA_COMMON_LOG_HPP_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace espnuca {

namespace detail {

[[noreturn]] inline void
die(const char *kind, const char *file, int line, const std::string &msg,
    bool core_dump)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", kind, msg.c_str(), file, line);
    if (core_dump)
        std::abort();
    std::exit(1);
}

} // namespace detail

/** Internal invariant violated: a simulator bug. Aborts. */
#define ESP_PANIC(msg) \
    ::espnuca::detail::die("panic", __FILE__, __LINE__, (msg), true)

/** Unrecoverable user/configuration error. Exits with status 1. */
#define ESP_FATAL(msg) \
    ::espnuca::detail::die("fatal", __FILE__, __LINE__, (msg), false)

/** Release-mode-checked invariant. */
#define ESP_ASSERT(cond, msg) \
    do { \
        if (!(cond)) \
            ESP_PANIC(std::string("assertion failed: ") + #cond + \
                      " -- " + (msg)); \
    } while (0)

/** Message severities, most severe first. */
enum class LogLevel : std::uint8_t
{
    Error = 0,
    Warn,
    Info,
    Debug,
    Trace,
};

namespace logdetail {

/** Parse a level word; false (and no write) on an unknown word. */
inline bool
parseLevel(const std::string &word, LogLevel &out)
{
    if (word == "error")
        out = LogLevel::Error;
    else if (word == "warn")
        out = LogLevel::Warn;
    else if (word == "info")
        out = LogLevel::Info;
    else if (word == "debug")
        out = LogLevel::Debug;
    else if (word == "trace")
        out = LogLevel::Trace;
    else
        return false;
    return true;
}

/**
 * The parsed ESPNUCA_LOG specification: a global threshold plus
 * per-component overrides. Unknown tokens are ignored rather than
 * fatal — a bad filter must never kill a simulation.
 */
struct LogFilter
{
    LogLevel global = LogLevel::Info;
    std::vector<std::pair<std::string, LogLevel>> comps;

    static LogFilter
    fromSpec(const char *spec)
    {
        LogFilter f;
        if (spec == nullptr)
            return f;
        const std::string s(spec);
        std::size_t pos = 0;
        while (pos <= s.size()) {
            std::size_t comma = s.find(',', pos);
            if (comma == std::string::npos)
                comma = s.size();
            const std::string tok = s.substr(pos, comma - pos);
            pos = comma + 1;
            if (tok.empty())
                continue;
            const std::size_t colon = tok.find(':');
            LogLevel lvl;
            if (colon == std::string::npos) {
                if (parseLevel(tok, lvl))
                    f.global = lvl;
            } else {
                const std::string comp = tok.substr(0, colon);
                if (parseLevel(tok.substr(colon + 1), lvl) &&
                    !comp.empty())
                    f.comps.emplace_back(comp, lvl);
            }
        }
        return f;
    }

    LogLevel
    thresholdFor(const char *comp) const
    {
        for (const auto &[c, lvl] : comps)
            if (c == comp)
                return lvl;
        return global;
    }
};

/** Process-wide filter, parsed once from the environment. */
inline const LogFilter &
filter()
{
    static const LogFilter f =
        LogFilter::fromSpec(std::getenv("ESPNUCA_LOG"));
    return f;
}

} // namespace logdetail

/** Would a message at `l` from `comp` be emitted? */
inline bool
logEnabled(LogLevel l, const char *comp)
{
    return static_cast<int>(l) <=
           static_cast<int>(logdetail::filter().thresholdFor(comp));
}

/** Emit one message (callers should gate on logEnabled / ESP_LOG). */
inline void
logMessage(LogLevel l, const char *comp, const std::string &msg)
{
    switch (l) {
    case LogLevel::Error:
        std::fprintf(stderr, "error: %s\n", msg.c_str());
        break;
    case LogLevel::Warn:
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
        break;
    case LogLevel::Info:
        std::fprintf(stderr, "info: %s\n", msg.c_str());
        break;
    case LogLevel::Debug:
        std::fprintf(stderr, "debug[%s]: %s\n", comp, msg.c_str());
        break;
    case LogLevel::Trace:
        std::fprintf(stderr, "trace[%s]: %s\n", comp, msg.c_str());
        break;
    }
}

/**
 * Leveled, component-tagged logging. `level` is the bare enumerator
 * (Warn, Debug, ...); the message expression is evaluated only when
 * the filter passes.
 */
#define ESP_LOG(level, comp, msg) \
    do { \
        if (::espnuca::logEnabled(::espnuca::LogLevel::level, (comp))) \
            ::espnuca::logMessage(::espnuca::LogLevel::level, (comp), \
                                  (msg)); \
    } while (0)

} // namespace espnuca

#endif // ESPNUCA_COMMON_LOG_HPP_
