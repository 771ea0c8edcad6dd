/**
 * @file
 * JSON serialization of a StatsRegistry: the "stats" section of run /
 * point documents. Split out of report.hpp so system.hpp (which
 * report.hpp includes transitively) can serialize a registry without an
 * include cycle.
 */

#ifndef ESPNUCA_HARNESS_STATS_JSON_HPP_
#define ESPNUCA_HARNESS_STATS_JSON_HPP_

#include <string>

#include "harness/json.hpp"
#include "stats/stats_registry.hpp"

namespace espnuca {

/**
 * A StatsRegistry as a JSON object, one sub-object per collection kind.
 * Names are the unified dotted paths (DESIGN.md 5.13); values carry the
 * same numbers the text dump prints, so the two exports never diverge.
 * The averages section appears only when non-empty, so
 * counter-only registries serialize to the minimal shape. The document
 * is compact.
 */
inline std::string
statsToJson(const StatsRegistry &reg)
{
    JsonWriter w;
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, c] : reg.counters())
        w.field(name, c.value());
    w.endObject();
    if (!reg.averages().empty()) {
        w.key("averages").beginObject();
        for (const auto &[name, a] : reg.averages()) {
            w.key(name).beginObject();
            w.field("mean", a.mean());
            w.field("n", a.count());
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    return w.str();
}

} // namespace espnuca

#endif // ESPNUCA_HARNESS_STATS_JSON_HPP_
