// Query parsing: strict JSON-object → typed Query, field-precise errors.
//
// A query is a JSON object selecting one canned analysis and overriding its
// knobs, mirroring the netpp_cli flag surface one-to-one:
//
//   {"command":"mech","stack":"dynamic","ocs":8,"output":"csv","id":3}
//
// Commands: "cluster", "savings", "faults", "mech". Every command accepts
// "id" (echoed in the response) and "output" ("csv" | "table" | "metrics");
// the rest of the schema is the knob table below, which netpp_cli parses its
// flags through too. Parsing is strict: a field the command does not define
// is rejected with unknown_field, a wrong JSON type, non-integral integer or
// unknown enum string with bad_value, a number outside the knob's range (or
// refused by the model's preconditions) with out_of_range, and an
// inconsistent backend/shard combination with backend_mismatch — all as
// ServeError, rendered into the typed error envelope by the engine.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netpp/serve/json.h"
#include "netpp/serve/protocol.h"
#include "netpp/serve/scenarios.h"

namespace netpp::serve {

enum class QueryKind : std::uint8_t { kCluster, kSavings, kFaults, kMech };
enum class QueryOutput : std::uint8_t { kCsv, kTable, kMetrics };

/// "cluster" / "savings" / "faults" / "mech".
[[nodiscard]] const char* to_string(QueryKind kind);
/// "csv" / "table" / "metrics".
[[nodiscard]] const char* to_string(QueryOutput output);

enum class KnobType : std::uint8_t { kNumber, kInteger, kEnum };

/// One scenario knob: the single definition of its query member, CLI flag,
/// commands, type, range and ScenarioOptions field.
struct Knob {
  /// Accepted numbers: [min, max], or (min, max] when min_open.
  struct Bounds {
    double min = 0.0;
    double max = 0.0;
    bool min_open = false;
  };
  /// Reads/writes the ScenarioOptions field (kEnum: as the choice index).
  struct Field {
    double (*get)(const ScenarioOptions&);
    void (*set)(ScenarioOptions&, double);
  };

  const char* name;   ///< query member, e.g. "mttr_s"
  const char* flag;   ///< netpp_cli flag, e.g. "--mttr"
  unsigned commands;  ///< bit (1 << QueryKind) per command taking the knob
  KnobType type;
  Bounds bounds;
  Field field;
  std::span<const char* const> choices = {};  ///< kEnum: the values
  /// Cross-field or model precondition run after parsing; may be null.
  void (*check)(const Knob&, const ScenarioOptions&) = nullptr;

  [[nodiscard]] bool takes(QueryKind kind) const {
    return ((commands >> static_cast<unsigned>(kind)) & 1u) != 0;
  }
  /// The accepted values as documented: "> 0", "in [0, 1]", "none|wake-all".
  [[nodiscard]] std::string range() const;
};

/// Every scenario knob, in cache-key order.
[[nodiscard]] std::span<const Knob> knobs();

/// The knob behind a netpp_cli flag ("--mttr"), or null.
[[nodiscard]] const Knob* find_cli_flag(std::string_view flag);

/// The query of a netpp_cli run: `kind` plus one member per (knob, flag
/// text) pair. A numeric knob's text becomes a number if it parses as a
/// finite one, else it stays a string for parse_query to reject.
[[nodiscard]] JsonValue cli_query(
    QueryKind kind,
    const std::vector<std::pair<const Knob*, std::string>>& args);

struct Query {
  QueryKind kind = QueryKind::kCluster;
  QueryOutput output = QueryOutput::kCsv;
  /// The query's "id" member, echoed verbatim in the response envelope
  /// (JSON null when the query carried none).
  JsonValue id;
  /// The scenario knobs after applying the query's overrides to the CLI
  /// defaults.
  ScenarioOptions opt;
};

/// Parses one query object. Throws ServeError on any schema violation.
[[nodiscard]] Query parse_query(const JsonValue& request);

/// Canonical result-cache key: two queries with equal keys are answered
/// with byte-identical payloads (the echoed id is not part of the key).
[[nodiscard]] std::string cache_key(const Query& query);

}  // namespace netpp::serve
