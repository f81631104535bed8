// Query parsing and the typed-error taxonomy: every schema violation must
// surface as a ServeError with the documented machine-readable code and the
// offending field, and cache_key must identify queries up to their id.
#include "netpp/serve/query.h"

#include <string>

#include <gtest/gtest.h>

#include "netpp/serve/json.h"
#include "netpp/serve/protocol.h"

namespace netpp::serve {
namespace {

Query parse(const std::string& text) { return parse_query(parse_json(text)); }

/// Asserts `text` is rejected with `code` on `field`.
void expect_rejected(const std::string& text, ErrorCode code,
                     const std::string& field) {
  try {
    (void)parse(text);
    FAIL() << "accepted: " << text;
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), code) << text << " -> " << e.what();
    EXPECT_EQ(e.field(), field) << text << " -> " << e.what();
  }
}

TEST(ParseQuery, MinimalQueryGetsCliDefaults) {
  const Query q = parse(R"({"command":"faults"})");
  EXPECT_EQ(q.kind, QueryKind::kFaults);
  EXPECT_EQ(q.output, QueryOutput::kCsv);
  EXPECT_TRUE(q.id.is_null());
  // The ScenarioOptions defaults are the CLI defaults.
  EXPECT_DOUBLE_EQ(q.opt.mtbf_s, 10.0);
  EXPECT_DOUBLE_EQ(q.opt.mttr_s, 0.5);
  EXPECT_EQ(q.opt.fault_seed, 1u);
}

TEST(ParseQuery, OverridesAndIdEcho) {
  const Query q = parse(
      R"({"command":"mech","stack":"dynamic","iters":2,"ocs":8,)"
      R"("output":"table","id":7})");
  EXPECT_EQ(q.kind, QueryKind::kMech);
  EXPECT_EQ(q.output, QueryOutput::kTable);
  EXPECT_DOUBLE_EQ(q.id.as_number(), 7.0);
  EXPECT_EQ(q.opt.stack, "dynamic");
  EXPECT_EQ(q.opt.mech_iterations, 2);
  EXPECT_EQ(q.opt.mech_ocs_devices, 8);
}

TEST(ParseQuery, RequestLevelErrors) {
  expect_rejected("[1,2]", ErrorCode::kBadRequest, "");
  expect_rejected(R"({"output":"csv"})", ErrorCode::kBadRequest, "command");
  expect_rejected(R"({"command":"warp"})", ErrorCode::kUnknownCommand,
                  "command");
  expect_rejected(R"({"command":3})", ErrorCode::kBadValue, "command");
}

TEST(ParseQuery, FieldLevelErrors) {
  // A field outside the command's schema.
  expect_rejected(R"({"command":"mech","frobnicate":1})",
                  ErrorCode::kUnknownField, "frobnicate");
  // A faults-only knob on a mech query is just as unknown.
  expect_rejected(R"({"command":"mech","mtbf_s":3})", ErrorCode::kUnknownField,
                  "mtbf_s");
  // Wrong JSON type / unknown enum string.
  expect_rejected(R"({"command":"faults","seed":"7"})", ErrorCode::kBadValue,
                  "seed");
  expect_rejected(R"({"command":"mech","stack":"everything"})",
                  ErrorCode::kBadValue, "stack");
  expect_rejected(R"({"command":"cluster","output":"hologram"})",
                  ErrorCode::kBadValue, "output");
  // metrics output needs a simulated command.
  expect_rejected(R"({"command":"cluster","output":"metrics"})",
                  ErrorCode::kBadValue, "output");
  // An id must be a scalar to echo cleanly.
  expect_rejected(R"({"command":"cluster","id":[1]})", ErrorCode::kBadValue,
                  "id");
}

TEST(ParseQuery, RangeAndBackendErrors) {
  expect_rejected(R"({"command":"faults","mttr_s":0})", ErrorCode::kOutOfRange,
                  "mttr_s");
  expect_rejected(R"({"command":"mech","iters":0})", ErrorCode::kOutOfRange,
                  "iters");
  expect_rejected(R"({"command":"faults","backend":"banana"})",
                  ErrorCode::kBadValue, "backend");
  expect_rejected(R"({"command":"faults","backend":"single","shards":4})",
                  ErrorCode::kBackendMismatch, "shards");
  expect_rejected(R"({"command":"mech","backend":"sharded","shards":0})",
                  ErrorCode::kOutOfRange, "shards");
  // Model preconditions, on the offending field: 416 Gb/s gives an odd
  // switch radix (123); the fat-tree model needs >= 1 host and <= 64 tiers;
  // the canned fabrics have kCannedFatTreeK pods to shard.
  expect_rejected(R"({"command":"cluster","gbps":416})",
                  ErrorCode::kOutOfRange, "gbps");
  expect_rejected(R"({"command":"savings","gbps":1e300})",
                  ErrorCode::kOutOfRange, "gbps");
  expect_rejected(R"({"command":"cluster","gbps":1e-300})",
                  ErrorCode::kOutOfRange, "gbps");
  expect_rejected(R"({"command":"cluster","gpus":0.5})",
                  ErrorCode::kOutOfRange, "gpus");
  expect_rejected(R"({"command":"savings","gpus":1e300})",
                  ErrorCode::kOutOfRange, "gpus");
  // An unusable radix is gbps's error even when gpus is fine on its own.
  expect_rejected(R"({"command":"cluster","gpus":1e300,"gbps":416})",
                  ErrorCode::kOutOfRange, "gbps");
  expect_rejected(R"({"command":"faults","backend":"sharded","shards":64})",
                  ErrorCode::kOutOfRange, "shards");
  EXPECT_EQ(parse(R"({"command":"mech","backend":"sharded","shards":4})")
                .opt.backend.num_shards,
            static_cast<std::size_t>(kCannedFatTreeK));
  // Integer knobs are bounded by the int field they set.
  expect_rejected(R"({"command":"mech","ocs":3000000000})",
                  ErrorCode::kOutOfRange, "ocs");
  expect_rejected(R"({"command":"mech","iters":3000000000})",
                  ErrorCode::kOutOfRange, "iters");
  EXPECT_EQ(parse(R"({"command":"mech","ocs":2147483647})")
                .opt.mech_ocs_devices,
            2147483647);
  expect_rejected(R"({"command":"faults","seed":7.5})", ErrorCode::kBadValue,
                  "seed");
}

TEST(CacheKey, IdentifiesQueriesUpToId) {
  const Query a = parse(R"({"command":"faults","seed":7,"id":1})");
  const Query b = parse(R"({"command":"faults","seed":7,"id":"other"})");
  const Query c = parse(R"({"command":"faults","seed":8,"id":1})");
  EXPECT_EQ(cache_key(a), cache_key(b));
  EXPECT_NE(cache_key(a), cache_key(c));
  // Output format is part of the rendered answer, so part of the key.
  const Query d = parse(R"({"command":"faults","seed":7,"output":"table"})");
  EXPECT_NE(cache_key(a), cache_key(d));
}

TEST(ErrorEnvelope, CarriesTheWireContract) {
  const JsonValue env = make_error_response(
      JsonValue::make_number(4), ErrorCode::kOutOfRange, "mttr_s",
      "mttr_s must be > 0");
  EXPECT_EQ(
      env.dump(),
      R"({"ok":false,"id":4,"error":{"code":"out_of_range",)"
      R"("field":"mttr_s","message":"mttr_s must be > 0"}})");
  // Every code has a stable string form.
  EXPECT_STREQ(to_string(ErrorCode::kBadFrame), "bad_frame");
  EXPECT_STREQ(to_string(ErrorCode::kBadJson), "bad_json");
  EXPECT_STREQ(to_string(ErrorCode::kCorruptBaseline), "corrupt_baseline");
  EXPECT_STREQ(to_string(ErrorCode::kInternal), "internal");
}

TEST(Framing, EncodeFrameIsLittleEndianLengthPlusBytes) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), 3u);
  EXPECT_EQ(static_cast<unsigned char>(frame[1]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(frame[2]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 0u);
  EXPECT_EQ(frame.substr(4), "abc");
}

}  // namespace
}  // namespace netpp::serve
