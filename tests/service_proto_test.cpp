// Wire-protocol tests for the certification service (service/proto.h),
// plus the util/json parse edge cases the protocol's correctness leans
// on: the cache replays *stored dump strings*, so parse(dump(x)) must be
// a byte-exact round trip across everything a result can contain
// (integer boundaries, odd strings, nested containers), and the framing
// layer must survive arbitrary byte splits and reject malformed input
// with an error response rather than a crash.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "service/proto.h"
#include "util/check.h"
#include "util/json.h"

namespace shlcp::svc {
namespace {

// ---------------------------------------------------------------------
// util/json parse edge cases.

TEST(JsonEdgeCases, TruncatedDocumentsThrow) {
  EXPECT_THROW(Json::parse(""), CheckError);
  EXPECT_THROW(Json::parse("{"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\": 1"), CheckError);
  EXPECT_THROW(Json::parse("[1, 2"), CheckError);
  EXPECT_THROW(Json::parse("\"abc"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\""), CheckError);
  EXPECT_THROW(Json::parse("tru"), CheckError);
  EXPECT_THROW(Json::parse("\"\\u00"), CheckError);
}

TEST(JsonEdgeCases, TrailingCharactersThrow) {
  EXPECT_THROW(Json::parse("1 2"), CheckError);
  EXPECT_THROW(Json::parse("{} x"), CheckError);
  EXPECT_THROW(Json::parse("[] []"), CheckError);
}

// The parser is last-wins on duplicate keys (the object keeps the first
// occurrence's position). Pinned because canonical_dump -- and therefore
// cache keying -- depends on it being deterministic.
TEST(JsonEdgeCases, DuplicateKeysLastWins) {
  const Json j = Json::parse(R"({"a": 1, "b": 2, "a": 3})");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at("a").as_int(), 3);
  EXPECT_EQ(j.at("b").as_int(), 2);
  EXPECT_EQ(j.dump(), R"({"a":3,"b":2})");
}

// Lone surrogates are decoded like any other BMP code point (WTF-8
// style, no pairing): \ud800 becomes the bytes ED A0 80. The parser is
// byte-transparent, not a Unicode validator.
TEST(JsonEdgeCases, LoneSurrogateDecodesToWtf8Bytes) {
  const Json j = Json::parse("\"\\ud800\"");
  EXPECT_EQ(j.as_string(), "\xED\xA0\x80");
}

TEST(JsonEdgeCases, InvalidUtf8BytesAreTransparent) {
  // 0xFF 0xFE is not valid UTF-8; the string layer must still carry it
  // byte-exactly through dump + parse.
  const std::string raw = std::string("ok\xFF\xFE\x80moar");
  const Json j(raw);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), raw);
}

TEST(JsonEdgeCases, ControlCharactersEscapeAndRoundTrip) {
  const std::string raw = std::string("a\x01b\x1F\n\t\"\\");
  const Json j(raw);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), raw);
  EXPECT_EQ(Json(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(JsonEdgeCases, Int64BoundariesRoundTrip) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Json::parse(Json(lo).dump()).as_int(), lo);
  EXPECT_EQ(Json::parse(Json(hi).dump()).as_int(), hi);
  EXPECT_EQ(Json(lo).dump(), "-9223372036854775808");
  EXPECT_EQ(Json(hi).dump(), "9223372036854775807");
}

TEST(JsonEdgeCases, Uint64BoundaryRoundTrips) {
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Json::parse(Json(top).dump()).as_uint(), top);
  EXPECT_EQ(Json(top).dump(), "18446744073709551615");
}

TEST(JsonEdgeCases, IntegerOverflowThrows) {
  EXPECT_THROW(Json::parse("18446744073709551616"), CheckError);
  EXPECT_THROW(Json::parse("-9223372036854775809"), CheckError);
}

// The parser (and everything downstream of it: canonical_dump, dump,
// the Json destructor) recurses per container level, so nesting depth
// must be capped -- otherwise one frame of a few MiB of '[' (well under
// the 4 MiB frame cap) overflows the stack and kills the daemon.
TEST(JsonEdgeCases, NestingDepthCapped) {
  const auto nested_array = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(Json::parse(nested_array(256)));
  EXPECT_THROW(Json::parse(nested_array(257)), CheckError);

  std::string deep_object = "1";
  for (int i = 0; i < 300; ++i) {
    deep_object = "{\"a\":" + deep_object + "}";
  }
  EXPECT_THROW(Json::parse(deep_object), CheckError);

  // The actual attack shape: ~2M open brackets, no closers needed --
  // the cap must trip long before the input is exhausted.
  EXPECT_THROW(Json::parse(std::string(2u << 20, '[')), CheckError);
}

// ---------------------------------------------------------------------
// Framing.

TEST(Framing, EncodeFrameShape) {
  EXPECT_EQ(encode_frame("{}"), "2\n{}\n");
  EXPECT_EQ(encode_frame(""), "0\n\n");
}

TEST(Framing, RoundTrip) {
  FrameReader reader;
  reader.feed(encode_frame(R"({"id":1})"));
  std::string frame;
  std::string error;
  ASSERT_EQ(reader.next(&frame, &error), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, R"({"id":1})");
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

// The reader must accept any split of the byte stream, including one
// byte at a time across frame boundaries.
TEST(Framing, ByteByByteSplits) {
  const std::string stream =
      encode_frame(R"({"op":"info"})") + encode_frame("[1,2,3]") +
      encode_frame("");
  FrameReader reader;
  std::vector<std::string> frames;
  std::string frame;
  std::string error;
  for (const char c : stream) {
    reader.feed(std::string_view(&c, 1));
    while (reader.next(&frame, &error) == FrameReader::Next::kFrame) {
      frames.push_back(frame);
    }
    ASSERT_FALSE(reader.failed()) << error;
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], R"({"op":"info"})");
  EXPECT_EQ(frames[1], "[1,2,3]");
  EXPECT_EQ(frames[2], "");
}

TEST(Framing, MultipleFramesInOneFeed) {
  FrameReader reader;
  reader.feed(encode_frame("a") + encode_frame("bb") + encode_frame("ccc"));
  std::string frame;
  std::string error;
  for (const char* expected : {"a", "bb", "ccc"}) {
    ASSERT_EQ(reader.next(&frame, &error), FrameReader::Next::kFrame);
    EXPECT_EQ(frame, expected);
  }
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kNeedMore);
}

TEST(Framing, OversizedFrameRejectedNotBuffered) {
  FrameReader reader(/*max_frame_bytes=*/16);
  reader.feed("100\n");  // claims a 100-byte body; cap is 16
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
}

// Regression: the byte cap must trigger even when the length prefix
// dribbles in one byte per poll wakeup (next() called between feeds,
// exactly as the server's read loop does), the error must name the
// declared length, and the failure must stay sticky for the rest of
// the connection.
TEST(Framing, ByteCapRejectionWithSplitHeader) {
  FrameReader reader(/*max_frame_bytes=*/16);
  std::string frame;
  std::string error;
  for (const char c : {'1', '0', '0'}) {
    reader.feed(std::string_view(&c, 1));
    ASSERT_EQ(reader.next(&frame, &error), FrameReader::Next::kNeedMore);
    ASSERT_FALSE(reader.failed());
  }
  const char nl = '\n';
  reader.feed(std::string_view(&nl, 1));
  ASSERT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_NE(error.find("100"), std::string::npos) << error;
  EXPECT_NE(error.find("16"), std::string::npos) << error;
  // Sticky: well-formed frames after the oversize claim stay rejected.
  reader.feed(encode_frame("{}"));
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_TRUE(reader.failed());
}

TEST(Framing, GarbageHeaderRejected) {
  FrameReader reader;
  reader.feed("xyz\n{}\n");
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_TRUE(reader.failed());
}

TEST(Framing, RunawayHeaderRejected) {
  // No newline within the maximum header width: the reader must fail
  // instead of buffering a boundless "header".
  FrameReader reader;
  reader.feed(std::string(64, '1'));
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
}

TEST(Framing, UnterminatedBodyRejected) {
  FrameReader reader;
  reader.feed("2\n{}X");  // body must be followed by '\n'
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_NE(error.find("newline"), std::string::npos) << error;
}

// Framing loss is unrecoverable: after one error the reader stays
// failed even if well-formed bytes arrive later.
TEST(Framing, FailureIsSticky) {
  FrameReader reader;
  reader.feed("?\n");
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  reader.feed(encode_frame("{}"));
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_TRUE(reader.failed());
}

// ---------------------------------------------------------------------
// Canonicalization (cache keying).

TEST(Canonical, KeyOrderInvariant) {
  const Json a = Json::parse(R"({"z": 1, "a": {"y": 2, "b": 3}})");
  const Json b = Json::parse(R"({"a": {"b": 3, "y": 2}, "z": 1})");
  EXPECT_NE(a.dump(), b.dump());  // insertion order differs...
  EXPECT_EQ(canonical_dump(a), canonical_dump(b));  // ...canonically equal
  EXPECT_EQ(canonical_dump(a), R"({"a":{"b":3,"y":2},"z":1})");
}

TEST(Canonical, ArrayOrderIsSemantic) {
  const Json a = Json::parse("[1,2]");
  const Json b = Json::parse("[2,1]");
  EXPECT_NE(canonical_dump(a), canonical_dump(b));
}

TEST(Canonical, KeysSortedInsideArrays) {
  const Json a = Json::parse(R"([{"b": 1, "a": 2}])");
  EXPECT_EQ(canonical_dump(a), R"([{"a":2,"b":1}])");
}

/// The tree-copying canonicalizer canonical_dump replaced, kept as
/// the reference: copy the tree with every object's members stably
/// sorted by key, then dump the copy.
Json reference_canonical(const Json& j) {
  switch (j.type()) {
    case Json::Type::kArray: {
      Json out = Json::array();
      for (const Json& item : j.items()) {
        out.push_back(reference_canonical(item));
      }
      return out;
    }
    case Json::Type::kObject: {
      std::vector<std::pair<std::string, Json>> members = j.members();
      std::stable_sort(members.begin(), members.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      Json out = Json::object();
      for (auto& [key, value] : members) {
        out[key] = reference_canonical(value);
      }
      return out;
    }
    default:
      return j;
  }
}

/// A random JSON document as text: nested objects and arrays, keys
/// drawn from a small pool (so duplicates are common) that includes
/// escapes, control bytes and non-ASCII, and every scalar type.
std::string random_json_text(std::mt19937_64& rng, int depth) {
  // As JSON source text: escapes are spelled out.
  static const char* kKeys[] = {"a",        "b", "B",         "ab",
                                "",         "z", "k\\\"q",    "tab\\t",
                                "\\u0001x", "a\\\\b", "\xC3\xA9"};
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  const std::uint64_t kind = depth >= 4 ? pick(6) : pick(8);
  switch (kind) {
    case 0:
      return "null";
    case 1:
      return pick(2) ? "true" : "false";
    case 2:
      return std::to_string(static_cast<std::int64_t>(rng()));
    case 3:
      return std::to_string(rng());
    case 4:
      return std::to_string(static_cast<int>(pick(2000)) - 1000) + ".25";
    case 5:
      return std::string("\"") + kKeys[pick(std::size(kKeys))] + "\"";
    case 6: {
      std::string out = "[";
      const std::uint64_t n = pick(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        out += (i ? "," : "") + random_json_text(rng, depth + 1);
      }
      return out + "]";
    }
    default: {
      std::string out = "{";
      const std::uint64_t n = pick(6);
      for (std::uint64_t i = 0; i < n; ++i) {
        out += std::string(i ? "," : "") + "\"" +
               kKeys[pick(std::size(kKeys))] +
               "\":" + random_json_text(rng, depth + 1);
      }
      return out + "}";
    }
  }
}

TEST(Canonical, MatchesTheTreeCopyingReference) {
  std::mt19937_64 rng(0x5EED);
  for (int i = 0; i < 2000; ++i) {
    const std::string text = random_json_text(rng, 0);
    const Json j = Json::parse(text);
    EXPECT_EQ(canonical_dump(j), reference_canonical(j).dump()) << text;
  }
}

TEST(Canonical, AppendsAfterExistingBytes) {
  std::string out = "prefix\n";
  canonical_dump_to(out, Json::parse(R"({"b":[{"d":1,"c":2}],"a":"\n"})"));
  EXPECT_EQ(out, "prefix\n" R"({"a":"\n","b":[{"c":2,"d":1}]})");
}

// ---------------------------------------------------------------------
// Value codecs.

TEST(Codec, GraphRoundTrip) {
  for (const Graph& g :
       {make_path(1), make_cycle(5), make_grid(2, 3), make_complete(4)}) {
    const Json j = graph_to_json(g);
    const Graph back = graph_from_json(j);
    EXPECT_EQ(graph_to_json(back).dump(), j.dump());
    EXPECT_EQ(back.num_nodes(), g.num_nodes());
    EXPECT_EQ(back.num_edges(), g.num_edges());
  }
}

TEST(Codec, LabelingRoundTrip) {
  std::vector<Certificate> certs(3);
  certs[0] = Certificate{{1, 2}, 5};
  certs[1] = Certificate{{}, 0};
  certs[2] = Certificate{{7}, 3};
  const Labeling labels(certs);
  const Json j = labeling_to_json(labels);
  EXPECT_EQ(labeling_from_json(j, 3), labels);
}

TEST(Codec, InstanceRoundTrip) {
  Instance inst = Instance::canonical(make_cycle(4));
  inst.labels.at(0) = Certificate{{1}, 1};
  inst.labels.at(2) = Certificate{{0}, 1};
  const Json j = instance_to_json(inst);
  const Instance back = instance_from_json(j);
  EXPECT_EQ(instance_to_json(back).dump(), j.dump());
  EXPECT_EQ(back.labels, inst.labels);
  EXPECT_EQ(back.g.num_nodes(), inst.g.num_nodes());
}

// ---------------------------------------------------------------------
// Request envelope validation.

TEST(RequestEnvelope, ParsesMinimalAndFullRequests) {
  const Request minimal = parse_request(Json::parse(R"({"op": "info"})"));
  EXPECT_EQ(minimal.op, "info");
  EXPECT_TRUE(minimal.id.is_null());
  EXPECT_TRUE(minimal.params.is_object());
  EXPECT_EQ(minimal.params.size(), 0u);
  EXPECT_EQ(minimal.deadline_ms, 0u);

  const Request full = parse_request(Json::parse(
      R"({"id": 7, "op": "check_coloring", "params": {"k": 2},
          "deadline_ms": 1500, "check": "fnv:00000000deadbeef"})"));
  EXPECT_EQ(full.id.as_int(), 7);
  EXPECT_EQ(full.op, "check_coloring");
  EXPECT_EQ(full.params.at("k").as_int(), 2);
  EXPECT_EQ(full.deadline_ms, 1500u);
  EXPECT_EQ(full.check, "fnv:00000000deadbeef");
  EXPECT_EQ(minimal.check, "");  // absent = unchecked
}

// Unknown members are rejected loudly: a client typo ("dedline_ms")
// must not silently strip the deadline.
TEST(RequestEnvelope, UnknownMembersRejected) {
  EXPECT_THROW(
      parse_request(Json::parse(R"({"op": "info", "dedline_ms": 10})")),
      CheckError);
}

TEST(RequestEnvelope, MalformedEnvelopesRejected) {
  EXPECT_THROW(parse_request(Json::parse("[]")), CheckError);
  EXPECT_THROW(parse_request(Json::parse("{}")), CheckError);  // no op
  EXPECT_THROW(parse_request(Json::parse(R"({"op": 3})")), CheckError);
  EXPECT_THROW(parse_request(Json::parse(R"({"op": ""})")), CheckError);
  EXPECT_THROW(
      parse_request(Json::parse(R"({"op": "info", "params": []})")),
      CheckError);
  EXPECT_THROW(
      parse_request(Json::parse(R"({"op": "info", "deadline_ms": -1})")),
      CheckError);
  EXPECT_THROW(
      parse_request(Json::parse(R"({"op": "info", "check": 5})")),
      CheckError);
}

TEST(RequestEnvelope, ResponseBuilders) {
  const Json ok = ok_response(Json(std::int64_t{3}), Json::parse("{}"),
                              /*cached=*/true);
  EXPECT_EQ(ok.at("schema").as_string(), kWireSchema);
  EXPECT_EQ(ok.at("id").as_int(), 3);
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_TRUE(ok.at("cached").as_bool());

  const Json err = error_response(Json(), "invalid_params", "boom", "REPRO x");
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_TRUE(err.at("id").is_null());
  EXPECT_EQ(err.at("error").at("code").as_string(), "invalid_params");
  EXPECT_EQ(err.at("error").at("message").as_string(), "boom");
  EXPECT_EQ(err.at("error").at("repro").as_string(), "REPRO x");
}

// The resilience members are strictly additive: omitted by default (so
// pre-resilience captures stay byte-stable), present exactly when the
// builder is given one.
TEST(RequestEnvelope, ResilienceMembersAreAdditive) {
  const Json bare = ok_response(Json(std::int64_t{1}), Json::parse("{}"),
                                /*cached=*/false);
  EXPECT_FALSE(bare.contains("digest"));
  const Json digested =
      ok_response(Json(std::int64_t{1}), Json::parse("{}"),
                  /*cached=*/false, "fnv:1234567812345678");
  EXPECT_EQ(digested.at("digest").as_string(), "fnv:1234567812345678");

  const Json plain = error_response(Json(), "overloaded", "queue full");
  EXPECT_FALSE(plain.at("error").contains("retry_after_ms"));
  const Json hinted = error_response(Json(), "overloaded", "queue full", "",
                                     /*retry_after_ms=*/25);
  EXPECT_EQ(hinted.at("error").at("retry_after_ms").as_int(), 25);
}

// The splicing writer and the tree builder are two spellings of one
// response: pinned to the same bytes for every id shape, both cached
// flags, with and without a digest.
TEST(RequestEnvelope, SplicedOkResponseEqualsTheTreeBuilder) {
  const std::vector<Json> ids = {
      Json(), Json("c12"), Json(std::int64_t{-7}),
      Json(std::numeric_limits<std::uint64_t>::max()), Json(2.5),
      Json::parse(R"({"z":[1,{"q":"\u0001"}],"a":true})")};
  const std::vector<std::string> results = {
      "{}", "[]", "null", R"({"k":3,"mode":"verify","violation":[0,1]})",
      R"({"s":"a\"b\\c\n","n":-9223372036854775808,"e":[[],{}]})"};
  for (const Json& id : ids) {
    for (const std::string& result : results) {
      for (const bool cached : {false, true}) {
        for (const std::string_view digest :
             {std::string_view(), std::string_view("fnv:00000000deadbeef")}) {
          EXPECT_EQ(ok_response_text(id, result, cached, digest),
                    ok_response(id, Json::parse(result), cached, digest)
                        .dump())
              << id.dump() << " " << result;
        }
      }
    }
  }
}

// parse_request takes the document by value: an lvalue is copied and
// left intact, an rvalue has its id and params moved out.
TEST(RequestEnvelope, ParseRequestMovesOutOfAnRvalue) {
  const Json doc = Json::parse(
      R"({"id":{"n":1},"op":"check_coloring","params":{"k":2,"graph":{}}})");
  const Request copied = parse_request(doc);
  EXPECT_EQ(doc.at("params").dump(), R"({"k":2,"graph":{}})");
  Json moved_from = doc;
  const Request moved = parse_request(std::move(moved_from));
  EXPECT_EQ(moved.id.dump(), copied.id.dump());
  EXPECT_EQ(moved.params.dump(), copied.params.dump());
  EXPECT_EQ(moved.params.dump(), R"({"k":2,"graph":{}})");
}

}  // namespace
}  // namespace shlcp::svc
