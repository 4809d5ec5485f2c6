/**
 * @file
 * Unit tests for the observability layer: JSON writer escaping and
 * structure, counter registry, histogram, pass profiler, and the
 * Chrome trace_event sink.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>

#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/pass_profiler.h"
#include "obs/trace.h"

using namespace wmstream::obs;

namespace {

/**
 * Minimal recursive-descent JSON validator: enough grammar to check
 * that everything the writers emit round-trips as structurally valid
 * JSON (objects, arrays, strings with escapes, numbers, literals).
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool valid()
    {
        pos_ = 0;
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool parseValue()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
        case '{': return parseObject();
        case '[': return parseArray();
        case '"': return parseString();
        case 't': return parseLit("true");
        case 'f': return parseLit("false");
        case 'n': return parseLit("null");
        default: return parseNumber();
        }
    }

    bool parseObject()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseString())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool parseArray()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool parseString()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char: escaping failed
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i)
                        if (pos_ + i >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_ + i])))
                            return false;
                    pos_ += 4;
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool parseNumber()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool parseLit(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t'))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

TEST(JsonEscape, PlainStringUnchanged)
{
    EXPECT_EQ(jsonEscape("ieu.stall.data_fifo_empty"),
              "ieu.stall.data_fifo_empty");
}

TEST(JsonEscape, SpecialCharacters)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("a\x01z")), "a\\u0001z");
    EXPECT_EQ(jsonEscape("\b\f\r"), "\\b\\f\\r");
}

TEST(JsonWriter, ObjectStructure)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "dot \"product\"");
    w.field("cycles", static_cast<uint64_t>(852));
    w.field("rate", 0.5);
    w.field("ok", true);
    w.key("missing");
    w.valueNull();
    w.key("rows");
    w.beginArray();
    w.value(1);
    w.value(-2);
    w.beginObject();
    w.field("k", "v");
    w.endObject();
    w.endArray();
    w.endObject();
    const std::string &s = w.str();
    EXPECT_TRUE(JsonChecker(s).valid()) << s;
    EXPECT_NE(s.find("\"name\":\"dot \\\"product\\\"\""),
              std::string::npos);
    EXPECT_NE(s.find("\"cycles\":852"), std::string::npos);
    EXPECT_NE(s.find("\"missing\":null"), std::string::npos);
    EXPECT_NE(s.find("[1,-2,{\"k\":\"v\"}]"), std::string::npos);
}

TEST(JsonWriter, EmptyContainers)
{
    JsonWriter w;
    w.beginObject();
    w.key("a");
    w.beginArray();
    w.endArray();
    w.key("b");
    w.beginObject();
    w.endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"a\":[],\"b\":{}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(1.0 / 0.0);
    w.value(0.0 / 0.0);
    w.endArray();
    EXPECT_EQ(w.str(), "[null,null]");
}

TEST(CounterRegistry, InsertionOrderAndLookup)
{
    CounterRegistry reg;
    reg.set("cycles", 100);
    reg.add("ieu.stall.data_fifo_empty", 7);
    reg.add("ieu.stall.data_fifo_empty", 3);
    reg.set("ieu.stall.mem_port_contention", 5);
    ++reg.counter("feu.executed");

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg.get("cycles"), 100u);
    EXPECT_EQ(reg.get("ieu.stall.data_fifo_empty"), 10u);
    EXPECT_EQ(reg.get("feu.executed"), 1u);
    EXPECT_EQ(reg.get("nonexistent"), 0u);
    EXPECT_TRUE(reg.has("cycles"));
    EXPECT_FALSE(reg.has("nonexistent"));

    // Registration order is preserved for stable output.
    EXPECT_EQ(reg.entries()[0].first, "cycles");
    EXPECT_EQ(reg.entries()[1].first, "ieu.stall.data_fifo_empty");
    EXPECT_EQ(reg.entries()[3].first, "feu.executed");
}

TEST(CounterRegistry, SumPrefix)
{
    CounterRegistry reg;
    reg.set("ieu.stall.data_fifo_empty", 4);
    reg.set("ieu.stall.mem_port_contention", 6);
    reg.set("ieu.stall_cycles", 10);
    reg.set("ieu.executed", 99);

    // "ieu.stall" matches "ieu.stall.*" and exact "ieu.stall" only —
    // "ieu.stall_cycles" does not start with "ieu.stall.".
    EXPECT_EQ(reg.sumPrefix("ieu.stall"), 10u);
    EXPECT_EQ(reg.sumPrefix("ieu"), 119u);
    EXPECT_EQ(reg.sumPrefix("ieu.executed"), 99u);
    EXPECT_EQ(reg.sumPrefix("nope"), 0u);
}

TEST(CounterRegistry, JsonRoundTrip)
{
    CounterRegistry reg;
    reg.set("cycles", 42);
    reg.set("scu.startup_wait_cycles", 3);
    JsonWriter w;
    reg.writeJson(w);
    const std::string &s = w.str();
    EXPECT_TRUE(JsonChecker(s).valid()) << s;
    EXPECT_EQ(s, "{\"cycles\":42,\"scu.startup_wait_cycles\":3}");
}

TEST(Histogram, BucketsAndMoments)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0);

    h.add(0, 2);
    h.add(1);
    h.add(3);
    h.add(-5); // clamps to 0
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 3);
    EXPECT_EQ(h.at(0), 3u);
    EXPECT_EQ(h.at(1), 1u);
    EXPECT_EQ(h.at(2), 0u);
    EXPECT_EQ(h.at(3), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0 / 5.0);
    EXPECT_EQ(h.percentile(0.5), 0);
    EXPECT_EQ(h.percentile(0.8), 1);
    EXPECT_EQ(h.percentile(1.0), 3);

    JsonWriter w;
    h.writeJson(w);
    EXPECT_TRUE(JsonChecker(w.str()).valid()) << w.str();
    EXPECT_NE(w.str().find("\"buckets\":[3,1,0,1]"), std::string::npos)
        << w.str();
}

TEST(PassProfiler, DisabledRunsBodyOnly)
{
    PassProfiler prof(false);
    int bodyRuns = 0, countRuns = 0;
    prof.measure(
        "cleanup",
        [&] {
            ++countRuns;
            return int64_t{0};
        },
        [&] { ++bodyRuns; });
    EXPECT_EQ(bodyRuns, 1);
    EXPECT_EQ(countRuns, 0); // disabled: no instruction counting
    EXPECT_TRUE(prof.profiles().empty());
}

TEST(PassProfiler, MergesCallsByName)
{
    PassProfiler prof(true);
    int64_t insts = 10;
    auto count = [&] { return insts; };
    prof.measure("cleanup", count, [&] { insts = 8; });
    prof.measure("cleanup", count, [&] { insts = 5; });
    prof.measure("streaming", count, [&] { insts = 7; });
    prof.addCounter("streaming", "loops_streamed", 2);
    prof.addCounter("streaming", "loops_streamed", 1);

    ASSERT_EQ(prof.profiles().size(), 2u);
    const PassProfile &cleanup = prof.profiles()[0];
    EXPECT_EQ(cleanup.name, "cleanup");
    EXPECT_EQ(cleanup.calls, 2);
    EXPECT_EQ(cleanup.instsBefore, 10 + 8);
    EXPECT_EQ(cleanup.instsAfter, 8 + 5);
    EXPECT_EQ(cleanup.instsDelta(), -5);
    const PassProfile &streaming = prof.profiles()[1];
    EXPECT_EQ(streaming.calls, 1);
    EXPECT_EQ(streaming.instsDelta(), 2);
    ASSERT_EQ(streaming.counters.size(), 1u);
    EXPECT_EQ(streaming.counters[0].first, "loops_streamed");
    EXPECT_EQ(streaming.counters[0].second, 3);

    std::string table = prof.table();
    EXPECT_NE(table.find("cleanup"), std::string::npos);
    EXPECT_NE(table.find("loops_streamed=3"), std::string::npos);

    JsonWriter w;
    prof.writeJson(w);
    EXPECT_TRUE(JsonChecker(w.str()).valid()) << w.str();
}

TEST(TraceWriter, ValidTraceDocument)
{
    TraceWriter t;
    int scu = t.track("SCU 0");
    EXPECT_GE(scu, 1);
    t.counter("in_fifo.flt0", 0, 0);
    t.counter("in_fifo.flt0", 5, 3);
    t.complete(scu, "Sin flt.f0 n=100 stride=8", 2, 100);
    t.instant(scu, "drain", 102);

    EXPECT_EQ(t.eventCount(), 5u); // track meta + 2 counters + X + i
    std::string s = t.str();
    EXPECT_TRUE(JsonChecker(s).valid()) << s;
    EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(s.find("\"dur\":100"), std::string::npos);
}

TEST(JsonEscape, EveryControlCharacterEscapes)
{
    // All 32 C0 control characters must come out as an escape — either
    // a short one (\n, \t, ...) or \u00XX — never as a raw byte.
    for (int c = 0; c < 0x20; ++c) {
        std::string in(1, static_cast<char>(c));
        std::string out = jsonEscape(in);
        ASSERT_GE(out.size(), 2u) << "control char " << c;
        EXPECT_EQ(out[0], '\\') << "control char " << c;
        std::string doc = "\"" + out + "\"";
        EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    }
    // NUL in the middle of a string survives as  .
    std::string withNul = std::string("a") + '\0' + "b";
    EXPECT_EQ(jsonEscape(withNul), "a\\u0000b");
}

TEST(JsonEscape, NonAsciiBytesPassThrough)
{
    // UTF-8 multibyte sequences are passed through verbatim (JSON
    // strings are UTF-8; no escaping required).
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
    EXPECT_EQ(jsonEscape("\xe2\x86\x92"), "\xe2\x86\x92"); // U+2192
    // 0x7F (DEL) is not a C0 control and passes through too.
    EXPECT_EQ(jsonEscape("\x7f"), "\x7f");
}

TEST(JsonEscape, RoundTripsThroughParser)
{
    const std::string nasty =
        std::string("quote\" back\\slash \n\t\r\b\f ctrl") + '\x01' +
        " caf\xc3\xa9 end";
    std::string doc = "\"";
    doc += jsonEscape(nasty);
    doc += '"';
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(doc, v, err)) << err;
    EXPECT_EQ(v.kind, JsonValue::Kind::String);
    EXPECT_EQ(v.strVal, nasty);
}

TEST(Histogram, EmptyHistogram)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.0), 0);
    EXPECT_EQ(h.percentile(1.0), 0);
    EXPECT_EQ(h.at(0), 0u);
    EXPECT_TRUE(h.buckets().empty());

    JsonWriter w;
    h.writeJson(w);
    EXPECT_TRUE(JsonChecker(w.str()).valid()) << w.str();
    EXPECT_NE(w.str().find("\"buckets\":[]"), std::string::npos);
}

TEST(Histogram, SingleBucket)
{
    Histogram h;
    h.add(5, 10);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.min(), 5);
    EXPECT_EQ(h.max(), 5);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    // Every percentile of a one-valued distribution is that value.
    EXPECT_EQ(h.percentile(0.0), 5);
    EXPECT_EQ(h.percentile(0.5), 5);
    EXPECT_EQ(h.percentile(1.0), 5);
    // Leading buckets 0..4 exist but are empty.
    EXPECT_EQ(h.buckets().size(), 6u);
    EXPECT_EQ(h.at(4), 0u);
    EXPECT_EQ(h.at(5), 10u);
}

TEST(Histogram, OverflowBucketGrowsOnDemand)
{
    Histogram h;
    h.add(0);
    EXPECT_EQ(h.buckets().size(), 1u);
    // A value past the current range grows the bucket vector instead
    // of dropping the sample.
    h.add(40);
    EXPECT_EQ(h.buckets().size(), 41u);
    EXPECT_EQ(h.at(40), 1u);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), 40);
    // Out-of-range and negative queries answer zero, not UB.
    EXPECT_EQ(h.at(41), 0u);
    EXPECT_EQ(h.at(-1), 0u);
}

TEST(Histogram, ZeroCountAndClampedPercentiles)
{
    Histogram h;
    h.add(3, 0); // count 0: a no-op, not a bucket
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(h.buckets().empty());

    h.add(1);
    h.add(2);
    // Out-of-domain p clamps instead of reading out of bounds.
    EXPECT_EQ(h.percentile(-0.5), 1);
    EXPECT_EQ(h.percentile(2.0), 2);
}

TEST(JsonParse, ScalarsAndNesting)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a": 1, "b": -2.5, "c": "x", "d": [true, false, null],
            "e": {"nested": 9007199254740993}})",
        v, err))
        << err;
    EXPECT_TRUE(v.isObject());
    EXPECT_EQ(v.getInt("a"), 1);
    ASSERT_NE(v.get("a"), nullptr);
    EXPECT_TRUE(v.get("a")->isInt);
    EXPECT_DOUBLE_EQ(v.getNum("b"), -2.5);
    EXPECT_FALSE(v.get("b")->isInt);
    EXPECT_EQ(v.getStr("c"), "x");
    const JsonValue *d = v.get("d");
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->isArray());
    ASSERT_EQ(d->arr.size(), 3u);
    EXPECT_TRUE(d->arr[0].boolVal);
    EXPECT_FALSE(d->arr[1].boolVal);
    EXPECT_TRUE(d->arr[2].isNull());
    // Integers beyond double precision stay exact in intVal.
    EXPECT_EQ(v.get("e")->getInt("nested"), 9007199254740993LL);
    // Typed accessors fall back to defaults on absent keys.
    EXPECT_EQ(v.getInt("missing", -7), -7);
    EXPECT_EQ(v.getStr("missing", "dflt"), "dflt");
    EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(JsonParse, UnicodeEscapes)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(R"("Aé→😀")", v, err))
        << err;
    // A, é, →, 😀 (surrogate pair) as UTF-8.
    EXPECT_EQ(v.strVal, "A\xc3\xa9\xe2\x86\x92\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("", v, err));
    EXPECT_FALSE(parseJson("{", v, err));
    EXPECT_FALSE(parseJson("{\"a\":}", v, err));
    EXPECT_FALSE(parseJson("[1,]", v, err));
    EXPECT_FALSE(parseJson("\"unterminated", v, err));
    EXPECT_FALSE(parseJson("tru", v, err));
    EXPECT_FALSE(parseJson("{} trailing", v, err));
    EXPECT_FALSE(parseJson("nan", v, err)); // no lenient extensions
    // Errors carry an offset for debugging.
    ASSERT_FALSE(parseJson("[1, x]", v, err));
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", int64_t{1});
    w.field("name", "weird \"name\"\n");
    w.key("hist");
    Histogram h;
    h.add(0, 2);
    h.add(3);
    h.writeJson(w);
    w.endObject();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(w.str(), v, err)) << err;
    EXPECT_EQ(v.getInt("schema_version"), 1);
    EXPECT_EQ(v.getStr("name"), "weird \"name\"\n");
    const JsonValue *hist = v.get("hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->getInt("count"), 3);
    ASSERT_TRUE(hist->get("buckets")->isArray());
    EXPECT_EQ(hist->get("buckets")->arr.size(), 4u);
}

} // namespace
