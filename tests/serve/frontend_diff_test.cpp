// Differential test of the two front ends. Seeded draws of a command and
// knob assignments, taken from the knob table itself (valid values,
// out-of-range values, non-integral integers, wrong JSON types, knobs of
// other commands), are rendered both as a JSON query (netpp_serve) and as
// netpp_cli flag text (cli_query). Both must parse to the same
// ScenarioOptions, or be rejected with the same code on the same field.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "netpp/serve/json.h"
#include "netpp/serve/protocol.h"
#include "netpp/serve/query.h"
#include "netpp/sim/random.h"

namespace netpp::serve {
namespace {

constexpr QueryKind kKinds[] = {QueryKind::kCluster, QueryKind::kSavings,
                                QueryKind::kFaults, QueryKind::kMech};

/// One knob assignment: the JSON member value and the text a CLI user
/// types for the same value.
struct Assignment {
  const Knob* knob;
  JsonValue json;
  std::string text;
};

Assignment number(const Knob& knob, double v) {
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", v);
  return {&knob, JsonValue::make_number(v), text};
}

Assignment string(const Knob& knob, const std::string& s) {
  return {&knob, JsonValue::make_string(s), s};
}

/// A value inside the knob's own type and range (model checks aside).
Assignment valid(const Knob& knob, Rng& rng) {
  if (knob.type == KnobType::kEnum) {
    const auto i = rng.uniform_int(0, std::ssize(knob.choices) - 1);
    return string(knob, knob.choices[static_cast<std::size_t>(i)]);
  }
  const double lo = knob.bounds.min;
  const double hi = std::isinf(knob.bounds.max) ? lo + 1e4 : knob.bounds.max;
  double v = rng.uniform(lo, hi);
  if (knob.type == KnobType::kInteger) v = std::ceil(v);
  if (knob.bounds.min_open && v <= lo) v = hi;
  return number(knob, v);
}

/// A value of the knob's type outside its range.
Assignment out_of_range(const Knob& knob, Rng& rng) {
  if (knob.type == KnobType::kEnum) return string(knob, "warp");
  const double step = knob.type == KnobType::kInteger
                          ? std::ceil(rng.uniform(0.0, 1e3))
                          : rng.uniform(1e-3, 1e3);
  if (!std::isinf(knob.bounds.max) && rng.uniform() < 0.5) {
    return number(knob, knob.bounds.max + step);
  }
  if (knob.bounds.min_open && rng.uniform() < 0.5) {
    return number(knob, knob.bounds.min);
  }
  return number(knob, knob.bounds.min - step);
}

/// A JSON value of the wrong type, with the text that spells it on a
/// command line. Numeric-looking strings are avoided on purpose: the CLI
/// cannot tell "5" from 5.
Assignment wrong_type(const Knob& knob, Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: return {&knob, JsonValue::make_bool(true), "true"};
    case 1: return {&knob, JsonValue{}, "null"};
    case 2: {
      JsonValue array = JsonValue::make_array();
      array.push_back(JsonValue::make_number(1));
      return {&knob, array, "[1]"};
    }
    case 3:
      if (knob.type == KnobType::kEnum) return number(knob, 3);
      return string(knob, "inf");
    default: return string(knob, knob.type == KnobType::kEnum ? "" : "abc");
  }
}

struct Draw {
  QueryKind kind;
  std::vector<Assignment> assignments;
};

Draw draw(Rng& rng) {
  const std::span<const Knob> table = knobs();
  Draw d{kKinds[rng.uniform_int(0, 3)], {}};
  std::set<const Knob*> used;
  const auto count = rng.uniform_int(0, 4);
  for (std::int64_t n = 0; n < count; ++n) {
    const Knob& knob =
        table[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(table) - 1))];
    if (!used.insert(&knob).second) continue;
    const double u = rng.uniform();
    if (!knob.takes(d.kind) || u < 0.70) {
      d.assignments.push_back(valid(knob, rng));
    } else if (u < 0.80) {
      d.assignments.push_back(out_of_range(knob, rng));
    } else if (u < 0.90 && knob.type == KnobType::kInteger) {
      Assignment a = valid(knob, rng);
      d.assignments.push_back(number(knob, a.json.as_number() - 0.5));
    } else {
      d.assignments.push_back(wrong_type(knob, rng));
    }
  }
  return d;
}

/// The netpp_serve path: the JSON text of the query, parsed.
Query via_json(const Draw& d) {
  JsonValue request = JsonValue::make_object();
  request.set("command", JsonValue::make_string(to_string(d.kind)));
  for (const Assignment& a : d.assignments) request.set(a.knob->name, a.json);
  return parse_query(parse_json(request.dump()));
}

/// The netpp_cli path: flag text through cli_query, looked up by flag the
/// way the CLI does.
Query via_cli(const Draw& d) {
  std::vector<std::pair<const Knob*, std::string>> args;
  for (const Assignment& a : d.assignments) {
    const Knob* knob = find_cli_flag(a.knob->flag);
    EXPECT_EQ(knob, a.knob);
    args.emplace_back(knob, a.text);
  }
  return parse_query(cli_query(d.kind, args));
}

using Outcome = std::variant<ScenarioOptions, std::pair<ErrorCode, std::string>>;

Outcome outcome(Query (*path)(const Draw&), const Draw& d) {
  try {
    return path(d).opt;
  } catch (const ServeError& e) {
    return std::pair{e.code(), e.field()};
  }
}

/// Field-by-field, independent of the knob table under test.
void expect_same(const ScenarioOptions& a, const ScenarioOptions& b,
                 const std::string& context) {
  EXPECT_EQ(a.cluster.num_gpus, b.cluster.num_gpus) << context;
  EXPECT_EQ(a.cluster.bandwidth_per_gpu.value(),
            b.cluster.bandwidth_per_gpu.value())
      << context;
  EXPECT_EQ(a.cluster.communication_ratio, b.cluster.communication_ratio)
      << context;
  EXPECT_EQ(a.prop, b.prop) << context;
  EXPECT_EQ(a.mtbf_s, b.mtbf_s) << context;
  EXPECT_EQ(a.mttr_s, b.mttr_s) << context;
  EXPECT_EQ(a.headroom, b.headroom) << context;
  EXPECT_EQ(a.fault_seed, b.fault_seed) << context;
  EXPECT_EQ(a.policy, b.policy) << context;
  EXPECT_EQ(a.sample_period_s, b.sample_period_s) << context;
  EXPECT_EQ(a.stack, b.stack) << context;
  EXPECT_EQ(a.mech_iterations, b.mech_iterations) << context;
  EXPECT_EQ(a.mech_volume_gbit, b.mech_volume_gbit) << context;
  EXPECT_EQ(a.mech_horizon_s, b.mech_horizon_s) << context;
  EXPECT_EQ(a.mech_ocs_devices, b.mech_ocs_devices) << context;
  EXPECT_EQ(a.pod_budget_w, b.pod_budget_w) << context;
  EXPECT_EQ(a.core_budget_w, b.core_budget_w) << context;
  EXPECT_EQ(a.backend.kind, b.backend.kind) << context;
  EXPECT_EQ(a.backend.num_shards, b.backend.num_shards) << context;
}

std::string describe(const Draw& d) {
  std::string out = to_string(d.kind);
  for (const Assignment& a : d.assignments) {
    out += std::string{" "} + a.knob->flag + " '" + a.text + "'";
  }
  return out;
}

TEST(FrontendDiff, JsonAndCliAgreeOnEverySeededDraw) {
  Rng rng{20251017};
  int accepted = 0;
  std::set<ErrorCode> codes;
  for (int i = 0; i < 4000; ++i) {
    const Draw d = draw(rng);
    const Outcome json = outcome(via_json, d);
    const Outcome cli = outcome(via_cli, d);
    const std::string context = describe(d);
    ASSERT_EQ(json.index(), cli.index()) << context;
    if (const auto* opt = std::get_if<ScenarioOptions>(&json)) {
      expect_same(*opt, std::get<ScenarioOptions>(cli), context);
      ++accepted;
    } else {
      const auto& [code, field] = std::get<1>(json);
      EXPECT_EQ(code, std::get<1>(cli).first) << context;
      EXPECT_EQ(field, std::get<1>(cli).second) << context;
      codes.insert(code);
    }
  }
  // The draws must exercise both outcomes and every knob-level error.
  EXPECT_GT(accepted, 1000);
  for (const ErrorCode code :
       {ErrorCode::kUnknownField, ErrorCode::kBadValue,
        ErrorCode::kOutOfRange, ErrorCode::kBackendMismatch}) {
    EXPECT_EQ(codes.count(code), 1u) << to_string(code);
  }
}

TEST(FrontendDiff, EveryKnobChangesTheCacheKeyAndIdDoesNot) {
  Rng rng{7};
  for (const Knob& knob : knobs()) {
    for (const QueryKind kind : kKinds) {
      if (!knob.takes(kind)) continue;
      // On the sharded backend, so that shards may leave its default too.
      Draw d{kind, {}};
      const Knob* backend = find_cli_flag("--backend");
      if (backend->takes(kind) && backend != &knob) {
        d.assignments.push_back(string(*backend, "sharded"));
      }
      const Query base = via_json(d);
      // Draw until the value parses (model checks included) and differs
      // from the default.
      d.assignments.push_back(valid(knob, rng));
      std::optional<Query> changed;
      for (int attempt = 0; attempt < 100 && !changed; ++attempt) {
        d.assignments.back() = valid(knob, rng);
        try {
          Query q = via_json(d);
          if (knob.field.get(q.opt) != knob.field.get(base.opt)) changed = q;
        } catch (const ServeError&) {
        }
      }
      ASSERT_TRUE(changed.has_value()) << knob.name << " " << to_string(kind);
      EXPECT_NE(cache_key(*changed), cache_key(base))
          << knob.name << " " << to_string(kind);
    }
  }
  Query a = via_json(Draw{QueryKind::kMech, {}});
  Query b = a;
  a.id = JsonValue::make_number(1);
  b.id = JsonValue::make_string("other");
  EXPECT_EQ(cache_key(a), cache_key(b));
}

TEST(FrontendDiff, EveryFlagAndFieldIsDefinedOnce) {
  std::set<std::string> names;
  std::set<std::string> flags;
  for (const Knob& knob : knobs()) {
    EXPECT_TRUE(names.insert(knob.name).second) << knob.name;
    EXPECT_TRUE(flags.insert(knob.flag).second) << knob.flag;
    EXPECT_EQ(find_cli_flag(knob.flag), &knob);
  }
  EXPECT_EQ(find_cli_flag("--csv"), nullptr);
}

/// docs/SERVING.md's query-schema table lists every knob exactly as the
/// table defines it.
TEST(FrontendDiff, ServingDocMatchesTheKnobTable) {
  std::ifstream in{NETPP_SOURCE_DIR "/docs/SERVING.md"};
  ASSERT_TRUE(in) << "docs/SERVING.md not found";
  const std::string doc{std::istreambuf_iterator<char>{in}, {}};
  for (const Knob& knob : knobs()) {
    std::string commands;
    for (const QueryKind kind : kKinds) {
      if (!knob.takes(kind)) continue;
      commands += (commands.empty() ? "" : ", ") + std::string{to_string(kind)};
    }
    const char* type = knob.type == KnobType::kNumber    ? "number"
                       : knob.type == KnobType::kInteger ? "integer"
                                                         : "enum";
    std::string range;
    for (const char c : knob.range()) range += c == '|' ? "\\|" : std::string(1, c);
    const std::string row = std::string{"| `"} + knob.name + "` | `" +
                            knob.flag + "` | " + commands + " | " + type +
                            " | " + range + " |";
    EXPECT_NE(doc.find(row), std::string::npos) << "missing row: " << row;
  }
}

}  // namespace
}  // namespace netpp::serve
