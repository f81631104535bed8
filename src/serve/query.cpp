#include "netpp/serve/query.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "netpp/power/catalog.h"
#include "netpp/topomodel/fattree.h"

namespace netpp::serve {

namespace {

constexpr const char* kCommands[] = {"cluster", "savings", "faults", "mech"};
constexpr const char* kOutputs[] = {"csv", "table", "metrics"};

[[noreturn]] void reject(ErrorCode code, const std::string& field,
                         const std::string& why) {
  throw ServeError{code, field, "\"" + field + "\" " + why};
}

std::string join(std::span<const char* const> choices) {
  std::string out;
  for (const char* choice : choices) {
    out += out.empty() ? "" : "|";
    out += choice;
  }
  return out;
}

/// The index of string `value` in `choices`; anything else is a `code`
/// error on `field`.
std::size_t choose(const JsonValue& value, const std::string& field,
                   std::span<const char* const> choices,
                   ErrorCode code = ErrorCode::kBadValue) {
  if (value.kind() != JsonKind::kString) {
    reject(ErrorCode::kBadValue, field,
           std::string{"must be a string, got "} + to_string(value.kind()));
  }
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (value.as_string() == choices[i]) return i;
  }
  throw ServeError{code, field,
                   "unknown " + field + " \"" + value.as_string() +
                       "\" (expected " + join(choices) + ")"};
}

/// The cluster model's fat-tree sizing preconditions as out_of_range on
/// `knob`: the per-GPU bandwidth must give a usable switch radix and, with
/// `SizeHosts`, the GPU count must fit a fat tree of that radix.
template <bool SizeHosts>
void check_cluster_model(const Knob& knob, const ScenarioOptions& o) {
  const DeviceCatalog& catalog = o.cluster.catalog != nullptr
                                     ? *o.cluster.catalog
                                     : DeviceCatalog::paper_baseline();
  try {
    const FatTreeModel tree{catalog.switch_radix(o.cluster.bandwidth_per_gpu)};
    if constexpr (SizeHosts) (void)tree.tiers_for_hosts(o.cluster.num_gpus);
  } catch (const std::invalid_argument& e) {
    reject(ErrorCode::kOutOfRange, knob.name,
           std::string{"is refused by the cluster model: "} + e.what());
  }
}

void check_backend(const Knob& knob, const ScenarioOptions& o) {
  if (o.backend.kind == BackendKind::kSingle && o.backend.num_shards > 1) {
    reject(ErrorCode::kBackendMismatch, knob.name,
           std::to_string(o.backend.num_shards) +
               " requires backend \"sharded\"");
  }
}

constexpr unsigned bit(QueryKind kind) {
  return 1u << static_cast<unsigned>(kind);
}
constexpr unsigned kAnalytic = bit(QueryKind::kCluster) |
                               bit(QueryKind::kSavings);
constexpr unsigned kSavings = bit(QueryKind::kSavings);
constexpr unsigned kFaults = bit(QueryKind::kFaults);
constexpr unsigned kMech = bit(QueryKind::kMech);
constexpr unsigned kSimulated = kFaults | kMech;

constexpr KnobType kNumber = KnobType::kNumber;
constexpr KnobType kInteger = KnobType::kInteger;
constexpr KnobType kEnum = KnobType::kEnum;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Knob::Bounds kPositive{0.0, kInf, true};
constexpr Knob::Bounds kNonNegative{0.0, kInf, false};
constexpr Knob::Bounds kUnit{0.0, 1.0, false};

using S = ScenarioOptions;

template <class T>
constexpr double max_of(T S::*) {
  return static_cast<double>(std::numeric_limits<T>::max());
}

/// The field at member path `o.*path...` (arithmetic or enum type).
template <auto... Path>
constexpr Knob::Field kField{
    [](const S& o) { return static_cast<double>((o .* ... .* Path)); },
    [](S& o, double v) {
      auto& field = (o .* ... .* Path);
      field = static_cast<std::remove_reference_t<decltype(field)>>(v);
    }};

constexpr Knob::Field kGbpsField{
    [](const S& o) { return o.cluster.bandwidth_per_gpu.value(); },
    [](S& o, double v) { o.cluster.bandwidth_per_gpu = Gbps{v}; }};

// The enum values, in the enum orders of DegradedPolicy and BackendKind.
constexpr const char* kPolicies[] = {"none", "wake-all", "re-tailor"};
constexpr const char* kStacks[] = {"all", "dynamic", "tailor", "park",
                                   "rate"};
constexpr const char* kBackends[] = {"single", "sharded"};

constexpr Knob::Field kStackField{
    [](const S& o) {
      return static_cast<double>(
          std::find(std::begin(kStacks), std::end(kStacks), o.stack) -
          std::begin(kStacks));
    },
    [](S& o, double v) { o.stack = kStacks[static_cast<int>(v)]; }};

// gbps precedes gpus so that its check runs first: an unusable switch radix
// is gbps's error, not the GPU count's.
const Knob kKnobs[] = {
    {"gbps", "--gbps", kAnalytic, kNumber, kPositive, kGbpsField, {},
     check_cluster_model<false>},
    {"gpus", "--gpus", kAnalytic, kNumber, kPositive,
     kField<&S::cluster, &ClusterConfig::num_gpus>, {},
     check_cluster_model<true>},
    {"ratio", "--ratio", kAnalytic, kNumber, kUnit,
     kField<&S::cluster, &ClusterConfig::communication_ratio>},
    {"prop", "--prop", kSavings, kNumber, kUnit, kField<&S::prop>},
    {"mtbf_s", "--mtbf", kFaults, kNumber, kNonNegative, kField<&S::mtbf_s>},
    {"mttr_s", "--mttr", kFaults, kNumber, kPositive, kField<&S::mttr_s>},
    {"headroom", "--headroom", kFaults, kNumber, kNonNegative,
     kField<&S::headroom>},
    {"seed", "--seed", kFaults, kInteger, kNonNegative,
     kField<&S::fault_seed>},
    {"policy", "--policy", kFaults, kEnum, {}, kField<&S::policy>, kPolicies},
    {"sample_period_s", "--sample-period", kFaults, kNumber, kNonNegative,
     kField<&S::sample_period_s>},
    {"stack", "--stack", kMech, kEnum, {}, kStackField, kStacks},
    {"iters", "--iters", kMech, kInteger,
     {0.0, max_of(&S::mech_iterations), true}, kField<&S::mech_iterations>},
    {"volume_gbit", "--volume", kMech, kNumber, kPositive,
     kField<&S::mech_volume_gbit>},
    {"horizon_s", "--horizon", kMech, kNumber, kPositive,
     kField<&S::mech_horizon_s>},
    {"ocs", "--ocs", kMech, kInteger,
     {0.0, max_of(&S::mech_ocs_devices)}, kField<&S::mech_ocs_devices>},
    {"pod_budget_w", "--pod-budget", kMech, kNumber, kNonNegative,
     kField<&S::pod_budget_w>},
    {"core_budget_w", "--core-budget", kMech, kNumber, kNonNegative,
     kField<&S::core_budget_w>},
    {"backend", "--backend", kSimulated, kEnum, {},
     kField<&S::backend, &BackendConfig::kind>, kBackends},
    {"shards", "--shards", kSimulated, kInteger, {1.0, kCannedFatTreeK},
     kField<&S::backend, &BackendConfig::num_shards>, {}, check_backend},
};

const Knob* find_knob(std::string_view key, const char* Knob::*by) {
  for (const Knob& knob : kKnobs) {
    if (key == knob.*by) return &knob;
  }
  return nullptr;
}

/// Reads `value` as `knob` types and bounds it (kEnum: the choice index).
double read_knob(const Knob& knob, const JsonValue& value) {
  const std::string field = knob.name;
  if (knob.type == KnobType::kEnum) {
    return static_cast<double>(choose(value, field, knob.choices));
  }
  if (value.kind() != JsonKind::kNumber) {
    reject(ErrorCode::kBadValue, field,
           std::string{"must be a number, got "} + to_string(value.kind()));
  }
  const double v = value.as_number();
  if (knob.type == KnobType::kInteger &&
      (v != std::floor(v) || std::fabs(v) > 9.007199254740992e15)) {
    reject(ErrorCode::kBadValue, field, "must be an integer");
  }
  if (!(knob.bounds.min_open ? v > knob.bounds.min : v >= knob.bounds.min) ||
      v > knob.bounds.max) {
    reject(ErrorCode::kOutOfRange, field, "must be " + knob.range());
  }
  return v;
}

}  // namespace

const char* to_string(QueryKind kind) {
  return kCommands[static_cast<int>(kind)];
}

const char* to_string(QueryOutput output) {
  return kOutputs[static_cast<int>(output)];
}

std::string Knob::range() const {
  if (type == KnobType::kEnum) return join(choices);
  char buf[64];
  if (std::isinf(bounds.max)) {
    std::snprintf(buf, sizeof buf, "%s %.17g", bounds.min_open ? ">" : ">=",
                  bounds.min);
  } else {
    std::snprintf(buf, sizeof buf, "in %c%.17g, %.17g]",
                  bounds.min_open ? '(' : '[', bounds.min, bounds.max);
  }
  return buf;
}

std::span<const Knob> knobs() { return kKnobs; }

const Knob* find_cli_flag(std::string_view flag) {
  return find_knob(flag, &Knob::flag);
}

JsonValue cli_query(
    QueryKind kind,
    const std::vector<std::pair<const Knob*, std::string>>& args) {
  JsonValue query = JsonValue::make_object();
  query.set("command", JsonValue::make_string(to_string(kind)));
  for (const auto& [knob, text] : args) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    const bool number = knob->type != KnobType::kEnum &&
                        end != text.c_str() && *end == '\0' &&
                        std::isfinite(v);
    query.set(knob->name, number ? JsonValue::make_number(v)
                                 : JsonValue::make_string(text));
  }
  return query;
}

Query parse_query(const JsonValue& request) {
  if (request.kind() != JsonKind::kObject) {
    throw ServeError{ErrorCode::kBadRequest, "",
                     std::string{"a query must be a JSON object, got "} +
                         to_string(request.kind())};
  }
  Query query;
  const JsonValue* command = request.find("command");
  if (command == nullptr) {
    throw ServeError{ErrorCode::kBadRequest, "command",
                     "query needs a \"command\" member"};
  }
  query.kind = static_cast<QueryKind>(
      choose(*command, "command", kCommands, ErrorCode::kUnknownCommand));

  for (const auto& [key, value] : request.as_object()) {
    if (key == "command") continue;
    if (key == "id") {
      if (value.kind() == JsonKind::kArray ||
          value.kind() == JsonKind::kObject) {
        reject(ErrorCode::kBadValue, key,
               std::string{"must be a scalar, got "} + to_string(value.kind()));
      }
      query.id = value;
      continue;
    }
    if (key == "output") {
      query.output = static_cast<QueryOutput>(choose(value, key, kOutputs));
      if (query.output == QueryOutput::kMetrics &&
          (bit(query.kind) & kSimulated) == 0) {
        reject(ErrorCode::kBadValue, key,
               "\"metrics\" is only available for faults and mech queries");
      }
      continue;
    }
    const Knob* knob = find_knob(key, &Knob::name);
    if (knob == nullptr || !knob->takes(query.kind)) {
      throw ServeError{ErrorCode::kUnknownField, key,
                       std::string{"\""} + to_string(query.kind) +
                           "\" queries have no field \"" + key + "\""};
    }
    knob->field.set(query.opt, read_knob(*knob, value));
  }
  for (const Knob& knob : kKnobs) {
    if (knob.check != nullptr && knob.takes(query.kind)) {
      knob.check(knob, query.opt);
    }
  }
  return query;
}

std::string cache_key(const Query& query) {
  std::string key = std::string{to_string(query.kind)} + "|" +
                    to_string(query.output);
  char buf[32];  // the shortest round-trip form identifies each value
  for (const Knob& knob : kKnobs) {
    key += '|';
    key += knob.name;
    key += '=';
    const double value = knob.field.get(query.opt);
    key.append(buf, std::to_chars(buf, std::end(buf), value).ptr);
  }
  return key;
}

}  // namespace netpp::serve
