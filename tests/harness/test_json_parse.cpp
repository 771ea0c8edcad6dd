/**
 * @file
 * Recursive-descent JSON parser tests: the harness's one JSON reader
 * (espnuca-report, the sweep artifacts, the run ledger) — value tree,
 * byte-exact source spans, and the strict u64 / hex leaf readers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "harness/json_parse.hpp"

namespace espnuca {
namespace {

TEST(JsonParse, ScalarsAndNesting)
{
    JsonValue v;
    ASSERT_TRUE(jsonParse(
        R"({"a": 1.5, "b": "text", "c": true, "d": null,
            "e": {"f": [1, 2, {"g": -3e2}]}})",
        v));
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
    EXPECT_EQ(v.find("a")->text, "1.5"); // source spelling kept
    EXPECT_EQ(v.find("b")->text, "text");
    EXPECT_TRUE(v.find("c")->boolean);
    EXPECT_EQ(v.find("d")->kind, JsonValue::Kind::Null);
    const JsonValue *g = v.path({"e", "f"});
    ASSERT_NE(g, nullptr);
    ASSERT_TRUE(g->isArray());
    ASSERT_EQ(g->items.size(), 3u);
    EXPECT_DOUBLE_EQ(g->items[2].find("g")->number, -300.0);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(v.path({"e", "missing"}), nullptr);
}

TEST(JsonParse, PrettyPrintedDocument)
{
    // The shape BENCH_core.json is committed in: indented, multi-line.
    JsonValue v;
    ASSERT_TRUE(jsonParse("{\n  \"protocol\": {\n    \"esp_nuca\": {\n"
                          "      \"ns_per_transaction\": 2073.64\n"
                          "    }\n  }\n}\n",
                          v));
    const JsonValue *ns =
        v.path({"protocol", "esp_nuca", "ns_per_transaction"});
    ASSERT_NE(ns, nullptr);
    EXPECT_DOUBLE_EQ(ns->number, 2073.64);
}

TEST(JsonParse, StringEscapes)
{
    JsonValue v;
    ASSERT_TRUE(jsonParse(R"({"s": "a\"b\\c\ndA"})", v));
    EXPECT_EQ(v.find("s")->text, "a\"b\\c\ndA");
}

TEST(JsonParse, MalformedInputsRejected)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(jsonParse("", v, &err));
    EXPECT_FALSE(jsonParse("{", v));
    EXPECT_FALSE(jsonParse("{\"a\":}", v));
    EXPECT_FALSE(jsonParse("[1,]", v)); // the grammar has no trailing comma
    EXPECT_FALSE(jsonParse("{\"a\":1} garbage", v));
    EXPECT_FALSE(jsonParse("{\"a\" 1}", v));
    EXPECT_FALSE(jsonParse("nul", v));
    EXPECT_FALSE(err.empty());
}

TEST(JsonParse, EmptyContainers)
{
    JsonValue v;
    ASSERT_TRUE(jsonParse(R"({"o": {}, "a": []})", v));
    EXPECT_TRUE(v.find("o")->members.empty());
    EXPECT_TRUE(v.find("a")->items.empty());
}

TEST(JsonParse, FlattenNumbers)
{
    JsonValue v;
    ASSERT_TRUE(jsonParse(
        R"({"top": 1, "nest": {"x": 2, "deep": {"y": 3}},
            "arr": [10, {"z": 20}], "skip": "text"})",
        v));
    std::map<std::string, double> flat;
    jsonFlattenNumbers(v, "", flat);
    ASSERT_EQ(flat.size(), 5u);
    EXPECT_DOUBLE_EQ(flat["top"], 1.0);
    EXPECT_DOUBLE_EQ(flat["nest.x"], 2.0);
    EXPECT_DOUBLE_EQ(flat["nest.deep.y"], 3.0);
    EXPECT_DOUBLE_EQ(flat["arr.0"], 10.0);
    EXPECT_DOUBLE_EQ(flat["arr.1.z"], 20.0);
    EXPECT_EQ(flat.count("skip"), 0u);
}

TEST(JsonParse, MemberSpansAreByteExact)
{
    const std::string doc =
        "{\"a\":1,\"b\":\"x,\\\"}y\",\"c\":{\"a\":99,\"d\":[1,2]},"
        "\"e\":[{\"f\":3}],\"g\":true}";
    JsonValue v;
    ASSERT_TRUE(jsonParse(doc, v));
    EXPECT_EQ(v.span(doc), doc);
    EXPECT_EQ(v.find("a")->span(doc), "1");
    // An escaped quote and brace inside a string neither end the
    // string nor close the object.
    EXPECT_EQ(v.find("b")->span(doc), "\"x,\\\"}y\"");
    EXPECT_EQ(v.find("b")->text, "x,\"}y");
    EXPECT_EQ(v.find("c")->span(doc), "{\"a\":99,\"d\":[1,2]}");
    EXPECT_EQ(v.find("e")->span(doc), "[{\"f\":3}]");
    EXPECT_EQ(v.find("g")->span(doc), "true");
    EXPECT_EQ(v.find("missing"), nullptr);
    // "a" nested inside "c" must not shadow the top-level "a", and a
    // key that only exists nested must not be found at the top level.
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.0);
    EXPECT_EQ(v.find("d"), nullptr);
    EXPECT_EQ(v.find("f"), nullptr);
    EXPECT_EQ(v.path({"c", "d"})->span(doc), "[1,2]");

    // Spans exclude the whitespace around a value.
    const std::string pretty = " {\n  \"k\" :  [ 1 , {} ]\t}\n";
    ASSERT_TRUE(jsonParse(pretty, v));
    EXPECT_EQ(v.span(pretty), "{\n  \"k\" :  [ 1 , {} ]\t}");
    EXPECT_EQ(v.find("k")->span(pretty), "[ 1 , {} ]");
    EXPECT_EQ(v.find("k")->items[1].span(pretty), "{}");
}

TEST(JsonParse, ArrayItemSpansAreByteExact)
{
    const std::string doc = "[{\"a\":[1,2]},\"s,t\",3,{\"b\":\"}\"}]";
    JsonValue v;
    ASSERT_TRUE(jsonParse(doc, v));
    ASSERT_EQ(v.items.size(), 4u);
    EXPECT_EQ(v.items[0].span(doc), "{\"a\":[1,2]}");
    EXPECT_EQ(v.items[1].span(doc), "\"s,t\"");
    EXPECT_EQ(v.items[2].span(doc), "3");
    EXPECT_EQ(v.items[3].span(doc), "{\"b\":\"}\"}");
    ASSERT_TRUE(jsonParse("[]", v));
    EXPECT_TRUE(v.items.empty());
    EXPECT_FALSE(jsonParse("", v));
}

TEST(JsonParse, DeepNestingIsRejectedNotOverflowed)
{
    JsonValue v;
    EXPECT_TRUE(jsonParse(std::string(200, '[') + std::string(200, ']'),
                          v));
    EXPECT_FALSE(jsonParse(std::string(100000, '['), v));
}

/** The member "v" of `{"v":<json>}`, or nullptr when it does not parse. */
const JsonValue *
member(const std::string &json, JsonValue &doc)
{
    return jsonParse("{\"v\":" + json + "}", doc) ? doc.find("v") : nullptr;
}

TEST(JsonParse, StrictU64ReadsExactSourceDigits)
{
    JsonValue doc;
    std::uint64_t n = 0;
    EXPECT_TRUE(jsonU64(member("0", doc), n));
    EXPECT_EQ(n, 0u);
    // Above 2^53 a double would round; the source digits must not.
    EXPECT_TRUE(jsonU64(member("9007199254740993", doc), n));
    EXPECT_EQ(n, 9007199254740993ULL);
    EXPECT_TRUE(jsonU64(member("18446744073709551615", doc), n));
    EXPECT_EQ(n, UINT64_MAX);

    for (const char *bad : {"-1", "1e3", "1.0", "1-2", "\"7\"", "null",
                            "18446744073709551616"})
        EXPECT_FALSE(jsonU64(member(bad, doc), n)) << bad;
    EXPECT_FALSE(jsonU64(nullptr, n));
    // The parser never spells a number like this, but the reader must
    // not trust that: it consumes the whole text or fails.
    JsonValue junk;
    junk.kind = JsonValue::Kind::Number;
    junk.text = "12abc";
    EXPECT_FALSE(jsonU64(&junk, n));
}

TEST(JsonParse, StrictHex64ReadsSixteenDigits)
{
    JsonValue doc;
    std::uint64_t h = 0;
    EXPECT_TRUE(jsonHex64(member("\"0123456789abcdef\"", doc), h));
    EXPECT_EQ(h, 0x0123456789abcdefULL);
    EXPECT_TRUE(jsonHex64(member("\"ffffffffffffffff\"", doc), h));
    EXPECT_EQ(h, UINT64_MAX);

    for (const char *bad :
         {"\"0123456789abcde\"", "\"0123456789abcdef0\"",
          "\"0123456789abcdeg\"", "\"-123456789abcdef\"",
          "\"0x23456789abcdef\"", "123", "null"})
        EXPECT_FALSE(jsonHex64(member(bad, doc), h)) << bad;
    EXPECT_FALSE(jsonHex64(nullptr, h));
}

TEST(JsonParse, OptionalMemberReads)
{
    JsonValue doc;
    ASSERT_TRUE(jsonParse(R"({"s": "x", "n": 5, "bad": "5"})", doc));
    std::string s = "keep";
    std::uint64_t n = 9;
    EXPECT_TRUE(jsonOptional(doc.find("absent"), s, jsonString));
    EXPECT_EQ(s, "keep");
    EXPECT_TRUE(jsonOptional(doc.find("s"), s, jsonString));
    EXPECT_EQ(s, "x");
    EXPECT_TRUE(jsonOptional(doc.find("n"), n, jsonU64));
    EXPECT_EQ(n, 5u);
    // Present with the wrong type is a failure, not a default.
    EXPECT_FALSE(jsonOptional(doc.find("bad"), n, jsonU64));
    EXPECT_FALSE(jsonOptional(doc.find("n"), s, jsonString));
}

} // namespace
} // namespace espnuca
