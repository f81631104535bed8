// whatif_serve: a closed loop of distinct what-if queries through
// QueryEngine::handle_text. One client sends a query and waits for its
// answer before sending the next. (With two clients, throughput swung by
// more than 2x between runs on a shared 4-CPU VM, with the host's load.)
//
// Why this workload: it is the serve path with the result cache bypassed.
// No cache_key repeats, so every answer is computed: JSON and query
// parsing, baseline forks, CompositeCache reuse, run_mechanism and
// rendering. It drives netsim through many small fabrics rather than one
// large one.
//
// A run is a sequence of sessions. Each session builds a fresh engine
// (warming the default fault baseline, as a server does at start-up) and
// answers a fixed-size block of generated queries, so the engine's warm
// state, and with it memory, is the same in every session and every run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "netpp/mech/composite.h"
#include "netpp/serve/engine.h"
#include "netpp/serve/json.h"
#include "netpp/serve/protocol.h"
#include "netpp/serve/query.h"
#include "netpp/serve/scenarios.h"
#include "netpp/sim/random.h"
#include "netpp/sim/thread_budget.h"

namespace perfbench {
namespace {

using netpp::serve::JsonValue;

constexpr std::size_t kBlocksPerSession = 4;

/// What a generated query exercises; the per-layer answer times are split
/// by it.
enum class Kind {
  kCluster,
  kSavings,
  kFaults,         // single backend, new or forked baseline
  kMech,           // single backend, new or reused CompositeCache
  kFaultsSharded,  // sharded backend, 2 shards
  kMechSharded,
  kMetrics,        // "output":"metrics" (faults or mech, single backend)
  kInvalid,
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCluster: return "cluster";
    case Kind::kSavings: return "savings";
    case Kind::kFaults: return "faults";
    case Kind::kMech: return "mech";
    case Kind::kFaultsSharded: return "faults_sharded";
    case Kind::kMechSharded: return "mech_sharded";
    case Kind::kMetrics: return "metrics";
    case Kind::kInvalid: return "invalid";
  }
  return "?";
}

/// One block's query plan: 40 slots in fixed shares (shuffled per block),
/// so every block, session and seed has the same mix. `reuse` slots land
/// on a scenario an earlier query of the session opened, or open one when
/// none is open yet.
struct Slot {
  Kind kind;
  bool reuse;
};
const std::vector<Slot>& block_plan() {
  static const std::vector<Slot> plan = [] {
    std::vector<Slot> p;
    const auto add = [&](Kind k, bool reuse, int n) {
      for (int i = 0; i < n; ++i) p.push_back({k, reuse});
    };
    add(Kind::kCluster, false, 5);
    add(Kind::kSavings, false, 3);
    add(Kind::kFaults, false, 4);
    add(Kind::kFaults, true, 7);
    add(Kind::kMech, false, 3);
    add(Kind::kMech, true, 9);
    // One in eight queries runs on the sharded backend.
    add(Kind::kFaultsSharded, true, 1);
    add(Kind::kMechSharded, false, 1);
    add(Kind::kMechSharded, true, 3);
    add(Kind::kMetrics, false, 1);  // faults, telemetered baseline
    add(Kind::kMetrics, true, 1);   // mech, on an open scenario
    add(Kind::kInvalid, false, 2);
    return p;
  }();
  return plan;
}

struct GenQuery {
  std::string text;
  Kind kind = Kind::kCluster;
  /// Lands on a scenario an earlier query of the session opened.
  bool reuse = false;
  /// The valid query's command ("" for invalid queries).
  std::string command;
  /// Expected error code for invalid queries ("" when valid).
  std::string expect_error;
};

/// Seeded generator of distinct queries over the cluster/savings/faults/
/// mech schema. Every query draws continuous parameters, so cache keys do
/// not repeat within a session (checked) or, in practice, across them.
class QueryGenerator {
 public:
  explicit QueryGenerator(std::uint64_t seed) : rng_(seed) {}

  /// The next session's queries. Open-scenario bookkeeping restarts with
  /// each session, because each session has a fresh engine.
  std::vector<GenQuery> session() {
    faults_open_[0] = {default_faults()};
    faults_open_[1].clear();
    mech_open_[0].clear();
    mech_open_[1].clear();
    std::vector<GenQuery> out;
    for (std::size_t b = 0; b < kBlocksPerSession; ++b) {
      std::vector<Slot> plan = block_plan();
      for (std::size_t i = plan.size(); i > 1; --i) {
        std::swap(plan[i - 1],
                  plan[static_cast<std::size_t>(rng_.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
      for (const Slot& slot : plan) out.push_back(make(slot));
    }
    return out;
  }

 private:
  struct FaultsTuple {
    double mtbf = 10.0;
    double mttr = 0.5;
    long long seed = 1;
    const char* policy = "re-tailor";
    double headroom = 0.0;
  };
  struct MechTuple {
    int iters = 4;
    double volume = 2.0;
  };

  static FaultsTuple default_faults() { return FaultsTuple{}; }

  double pick(double lo, double hi) { return rng_.uniform(lo, hi); }
  template <typename T>
  const T& pick_from(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

  FaultsTuple new_faults() {
    static const char* const kPolicies[] = {"none", "wake-all", "re-tailor"};
    FaultsTuple t;
    t.mtbf = pick(6.0, 20.0);
    t.mttr = pick(0.2, 1.0);
    t.seed = rng_.uniform_int(0, 1'000'000);
    t.policy = kPolicies[rng_.uniform_int(0, 2)];
    t.headroom = rng_.uniform_int(0, 1) == 0 ? 0.0 : pick(0.0, 0.3);
    return t;
  }
  MechTuple new_mech() {
    MechTuple t;
    t.iters = static_cast<int>(rng_.uniform_int(2, 4));
    t.volume = pick(1.0, 3.0);
    return t;
  }

  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::string faults_body(const FaultsTuple& t) {
    return ",\"mtbf_s\":" + num(t.mtbf) + ",\"mttr_s\":" + num(t.mttr) +
           ",\"seed\":" + std::to_string(t.seed) + ",\"policy\":\"" +
           t.policy + "\",\"headroom\":" + num(t.headroom);
  }
  std::string mech_whatif() {
    static const char* const kStacks[] = {"all", "dynamic", "tailor", "park",
                                          "rate"};
    std::string s = ",\"stack\":\"";
    s += kStacks[rng_.uniform_int(0, 4)];
    s += "\",\"ocs\":" + std::to_string(rng_.uniform_int(2, 8)) +
         ",\"horizon_s\":" + num(pick(3.0, 4.0));
    if (rng_.uniform_int(0, 3) == 0) {
      s += ",\"pod_budget_w\":" + num(pick(2000.0, 8000.0));
    }
    return s;
  }
  static std::string sharded(bool on) {
    return on ? ",\"backend\":\"sharded\",\"shards\":2" : "";
  }

  // Standard NIC port speeds. The cluster model derives the switch radix
  // from the port speed and rejects speeds that give an odd radix.
  static constexpr double kNicGbps[] = {100.0, 200.0, 400.0, 800.0};

  GenQuery make(const Slot& slot) {
    GenQuery q;
    q.kind = slot.kind;
    const std::string id = ",\"id\":" + std::to_string(next_id_++);
    const char* output = rng_.uniform_int(0, 7) == 0 ? "table" : "csv";
    const std::string out = std::string{",\"output\":\""} + output + "\"";
    switch (slot.kind) {
      case Kind::kCluster:
      case Kind::kSavings: {
        const bool savings = slot.kind == Kind::kSavings;
        q.command = savings ? "savings" : "cluster";
        q.text = "{\"command\":\"" + q.command + "\"" + id +
                 ",\"gpus\":" + num(std::floor(pick(256.0, 65536.0))) +
                 ",\"gbps\":" + num(kNicGbps[rng_.uniform_int(0, 3)]) +
                 ",\"ratio\":" + num(pick(0.05, 0.6)) +
                 (savings ? ",\"prop\":" + num(pick(0.0, 1.0)) : "") + out +
                 "}";
        break;
      }
      case Kind::kFaults:
      case Kind::kFaultsSharded: {
        const int sh = slot.kind == Kind::kFaultsSharded ? 1 : 0;
        const FaultsTuple t = faults_tuple(sh, slot.reuse, q.reuse);
        q.command = "faults";
        // Forks of one baseline differ only in rendering and sampling
        // cadence, which the baseline key ignores for untelemetered runs.
        q.text = "{\"command\":\"faults\"" + id + sharded(sh != 0) +
                 faults_body(t) + ",\"sample_period_s\":" +
                 num(pick(0.01, 0.05)) + out + "}";
        break;
      }
      case Kind::kMech:
      case Kind::kMechSharded: {
        const int sh = slot.kind == Kind::kMechSharded ? 1 : 0;
        const MechTuple t = mech_tuple(sh, slot.reuse, q.reuse);
        q.command = "mech";
        q.text = "{\"command\":\"mech\"" + id + sharded(sh != 0) +
                 ",\"iters\":" + std::to_string(t.iters) +
                 ",\"volume_gbit\":" + num(t.volume) + mech_whatif() + out +
                 "}";
        break;
      }
      case Kind::kMetrics: {
        const std::string metrics = ",\"output\":\"metrics\"";
        if (slot.reuse) {
          const MechTuple t = mech_tuple(0, true, q.reuse);
          q.command = "mech";
          q.text = "{\"command\":\"mech\"" + id + ",\"iters\":" +
                   std::to_string(t.iters) + ",\"volume_gbit\":" +
                   num(t.volume) + mech_whatif() + metrics + "}";
        } else {
          q.command = "faults";
          q.text = "{\"command\":\"faults\"" + id + faults_body(new_faults()) +
                   ",\"sample_period_s\":" + num(pick(0.01, 0.05)) + metrics +
                   "}";
        }
        break;
      }
      case Kind::kInvalid:
        make_invalid(q, id);
        break;
    }
    return q;
  }

  /// A scenario tuple: an open one for reuse slots (opening one when none
  /// is open yet), a fresh one otherwise. `reused` reports which.
  FaultsTuple faults_tuple(int sh, bool reuse, bool& reused) {
    auto& open = faults_open_[sh];
    reused = reuse && !open.empty();
    if (reused) return pick_from(open);
    open.push_back(new_faults());
    return open.back();
  }
  MechTuple mech_tuple(int sh, bool reuse, bool& reused) {
    auto& open = mech_open_[sh];
    reused = reuse && !open.empty();
    if (reused) return pick_from(open);
    open.push_back(new_mech());
    return open.back();
  }

  void make_invalid(GenQuery& q, const std::string& id) {
    const std::string v = num(pick(1.0, 100.0));
    switch (invalid_next_++ % 7) {
      case 0:
        q.text = "{\"command\":\"cluster\"" + id + ",\"gpus\":" + v;
        q.expect_error = "bad_json";
        break;
      case 1:
        q.text = "{\"gpus\":" + v + id + "}";
        q.expect_error = "bad_request";
        break;
      case 2:
        q.text = "{\"command\":\"teleport\"" + id + ",\"x\":" + v + "}";
        q.expect_error = "unknown_command";
        break;
      case 3:
        q.text = "{\"command\":\"cluster\"" + id + ",\"mtbf_s\":" + v + "}";
        q.expect_error = "unknown_field";
        break;
      case 4:
        q.text = "{\"command\":\"mech\"" + id + ",\"stack\":\"warp\"" +
                 ",\"horizon_s\":" + v + "}";
        q.expect_error = "bad_value";
        break;
      case 5:
        q.text = "{\"command\":\"faults\"" + id + ",\"mttr_s\":-" + v + "}";
        q.expect_error = "out_of_range";
        break;
      default:
        q.text = "{\"command\":\"mech\"" + id +
                 ",\"backend\":\"single\",\"shards\":2,\"horizon_s\":" + v +
                 "}";
        q.expect_error = "backend_mismatch";
        break;
    }
  }

  netpp::Rng rng_;
  std::uint64_t next_id_ = 0;
  std::uint64_t invalid_next_ = 0;
  std::vector<FaultsTuple> faults_open_[2];
  std::vector<MechTuple> mech_open_[2];
};

/// Checks a session's stream: every valid query's cache_key is new to its
/// engine (throws otherwise, so the result cache can never hit).
void check_unique_keys(const std::vector<GenQuery>& queries) {
  std::unordered_set<std::uint64_t> keys;
  for (const GenQuery& q : queries) {
    if (!q.expect_error.empty()) continue;
    const std::string key = netpp::serve::cache_key(
        netpp::serve::parse_query(netpp::serve::parse_json(q.text)));
    if (!keys.insert(fnv1a(key)).second) {
      throw std::logic_error("whatif_serve generator repeated cache_key " +
                             key);
    }
  }
}

/// Checks one answer against its query: an ok envelope for a valid query,
/// the expected typed code for an invalid one. Returns "" when it holds.
std::string check_answer(const GenQuery& q, const std::string& response) {
  JsonValue r;
  try {
    r = netpp::serve::parse_json(response);
  } catch (const std::exception& e) {
    return std::string{"unparseable response: "} + e.what();
  }
  const JsonValue* ok = r.find("ok");
  if (ok == nullptr || ok->kind() != netpp::serve::JsonKind::kBool) {
    return "response has no ok member";
  }
  if (q.expect_error.empty()) {
    if (!ok->as_bool()) return "valid query rejected: " + response;
    return "";
  }
  const JsonValue* err = r.find("error");
  const JsonValue* code = err != nullptr ? err->find("code") : nullptr;
  if (ok->as_bool() || code == nullptr ||
      code->kind() != netpp::serve::JsonKind::kString ||
      code->as_string() != q.expect_error) {
    return "expected error " + q.expect_error + ", got " + response;
  }
  return "";
}

struct Session {
  std::vector<GenQuery> queries;
  std::unique_ptr<netpp::serve::QueryEngine> engine;
  double setup_s = 0.0;
  double generate_ms = 0.0;
};

Session set_up(QueryGenerator& gen) {
  Session s;
  const auto t0 = Clock::now();
  s.queries = gen.session();
  const auto t1 = Clock::now();
  s.engine = std::make_unique<netpp::serve::QueryEngine>();
  s.engine->warm_default_baseline();
  const auto t2 = Clock::now();
  s.generate_ms = ms_between(t0, t1);
  s.setup_s = ms_between(t0, t2) / 1e3;
  check_unique_keys(s.queries);  // off the clock
  return s;
}

/// Answers every query of `s` in a closed loop: one client sends a query,
/// waits for its answer, then sends the next. Returns the session's wall
/// time in seconds; per-query latencies and responses land in the output
/// vectors (indexed like s.queries).
double serve_session(Session& s, std::vector<double>& latency_ms,
                     std::vector<std::string>& responses) {
  latency_ms.assign(s.queries.size(), 0.0);
  responses.assign(s.queries.size(), std::string{});
  const auto start = Clock::now();
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    const auto t0 = Clock::now();
    responses[i] = s.engine->handle_text(s.queries[i].text);
    latency_ms[i] = ms_between(t0, Clock::now());
  }
  return ms_between(start, Clock::now()) / 1e3;
}

/// The traced single-client pass: handle_text split into its public
/// pieces (parse_json, parse_query, answer, dump), each under a span. The
/// response bytes are the same as handle_text's.
struct TracedTimes {
  std::vector<double> parse_json_us, parse_query_us, dump_us;
  std::map<std::string, std::vector<double>> answer_ms;
  double total_ms = 0.0;
};

void traced_session(Session& s, Trace& trace, std::uint64_t first_id,
                    TracedTimes& times, std::vector<std::string>& responses) {
  namespace sv = netpp::serve;
  responses.assign(s.queries.size(), std::string{});
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    const GenQuery& q = s.queries[i];
    const std::uint64_t id = first_id + i;
    const auto t0 = Clock::now();
    const int root = trace.begin("query", id);
    int span = trace.begin("serve.parse_json", id, root);
    JsonValue request;
    bool parsed = true;
    try {
      request = sv::parse_json(q.text);
    } catch (const std::invalid_argument& e) {
      parsed = false;
      responses[i] = sv::make_error_response(JsonValue{},
                                             sv::ErrorCode::kBadJson, "",
                                             e.what())
                         .dump();
    }
    times.parse_json_us.push_back(trace.end(span) * 1e3);
    if (!parsed) {
      trace.end(root);
      times.total_ms += ms_between(t0, Clock::now());
      continue;
    }
    JsonValue response;
    span = trace.begin("serve.parse_query", id, root);
    try {
      const sv::Query query = sv::parse_query(request);
      times.parse_query_us.push_back(trace.end(span) * 1e3);
      span = trace.begin("serve.answer", id, root);
      response = s.engine->answer(query);
      times.answer_ms[kind_name(q.kind)].push_back(trace.end(span));
    } catch (const sv::ServeError& e) {
      trace.end(span);
      const JsonValue* echo = request.find("id");
      response = sv::make_error_response(echo ? *echo : JsonValue{}, e.code(),
                                         e.field(), e.what());
    }
    span = trace.begin("serve.dump", id, root);
    responses[i] = response.dump();
    times.dump_us.push_back(trace.end(span) * 1e3);
    trace.end(root);
    times.total_ms += ms_between(t0, Clock::now());
  }
}

}  // namespace

Result run_whatif_serve(const Options& opt, Trace& trace) {
  Result res;
  // Sharded answers run their shards inline on the client's thread
  // instead of spawning workers every barrier window. standing_sharded
  // measures the worker path; here the spawns would cost most of a sharded
  // answer and make its time swing with the machine's load. The traced run
  // times the worker path too (serve.answer_ms.faults_sharded_2w).
  netpp::thread_budget::set_pool_size(1);
  QueryGenerator gen{mix_seed(opt.seed, 0)};

  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::vector<double> latency_all;
  double answered = 0.0;
  double session_seconds = 0.0;
  std::size_t sessions = 0;
  std::size_t reuse = 0, sharded = 0, invalid = 0, total = 0;
  std::vector<GenQuery> sample_queries;  // off-clock recompute sample
  std::vector<GenQuery> sharded_faults;  // the first session's
  std::vector<std::string> sample_answers;

  TracedTimes traced;
  double untraced_total_ms = 0.0;
  netpp::serve::EngineStats first_stats{};
  std::size_t first_faults = 0, first_mech = 0;

  const auto check_session = [&](const Session& s,
                                 const std::vector<std::string>& responses) {
    for (std::size_t i = 0; i < s.queries.size(); ++i) {
      ++res.attempted;
      const std::string why = check_answer(s.queries[i], responses[i]);
      if (!why.empty()) res.fail("query " + s.queries[i].text + ": " + why);
    }
  };

  const auto start = Clock::now();
  while (sessions == 0 ||
         ms_between(start, Clock::now()) < opt.seconds * 1e3) {
    Session s = set_up(gen);
    setup_s.push_back(s.setup_s);
    gen_ms.push_back(s.generate_ms);
    for (const GenQuery& q : s.queries) {
      ++total;
      reuse += q.reuse ? 1 : 0;
      sharded += (q.kind == Kind::kFaultsSharded ||
                  q.kind == Kind::kMechSharded) ? 1 : 0;
      invalid += q.expect_error.empty() ? 0 : 1;
    }
    std::vector<std::string> responses;
    if (!trace.enabled()) {
      std::vector<double> latency;
      session_seconds += serve_session(s, latency, responses);
      latency_all.insert(latency_all.end(), latency.begin(), latency.end());
      answered += static_cast<double>(s.queries.size());
    } else {
      // Same queries, one untraced and one traced single-client pass, each
      // on its own fresh engine; they alternate which runs first.
      Session t;
      t.queries = s.queries;
      t.engine = std::make_unique<netpp::serve::QueryEngine>();
      t.engine->warm_default_baseline();
      std::vector<std::string> traced_responses;
      const bool traced_before = sessions % 2 == 1;
      if (traced_before) {
        traced_session(t, trace, sessions * 1'000'000, traced,
                       traced_responses);
      }
      std::vector<double> latency;
      untraced_total_ms += serve_session(s, latency, responses) * 1e3;
      if (!traced_before) {
        traced_session(t, trace, sessions * 1'000'000, traced,
                       traced_responses);
      }
      check_session(t, traced_responses);
      if (sessions == 0) {
        first_stats = t.engine->stats();
        for (const GenQuery& q : t.queries) {
          first_faults += q.command == "faults" ? 1 : 0;
          first_mech += q.command == "mech" ? 1 : 0;
        }
      }
    }
    check_session(s, responses);
    if (sessions == 0) {
      for (std::size_t i = 0; i < s.queries.size(); i += 8) {
        sample_queries.push_back(s.queries[i]);
        sample_answers.push_back(responses[i]);
      }
      for (const GenQuery& q : s.queries) {
        if (q.kind == Kind::kFaultsSharded) sharded_faults.push_back(q);
      }
    }
    ++sessions;
  }

  // Off the clock: recompute the sample on a fresh engine, byte for byte.
  {
    netpp::serve::QueryEngine fresh;
    for (std::size_t i = 0; i < sample_queries.size(); ++i) {
      ++res.attempted;
      const std::string again = fresh.handle_text(sample_queries[i].text);
      if (again != sample_answers[i]) {
        res.fail("recomputed answer differs for " + sample_queries[i].text);
      }
    }
  }

  const double n = static_cast<double>(total);
  char shares[160];
  std::snprintf(shares, sizeof shares,
                "  queries=%zu sessions=%zu reuse_share=%.4f "
                "sharded_share=%.4f invalid_share=%.4f",
                total, sessions, static_cast<double>(reuse) / n,
                static_cast<double>(sharded) / n,
                static_cast<double>(invalid) / n);
  res.note(shares);
  res.info["queries"] = std::to_string(total);
  res.info["reuse_share"] = std::to_string(static_cast<double>(reuse) / n);

  if (!trace.enabled()) {
    const double p50 = percentile(latency_all, 50.0);
    const double p90 = percentile(latency_all, 90.0);
    const double p99 = percentile(latency_all, 99.0);
    const double qps = answered / session_seconds;
    res.note(metric_line("query_ms_p50", p50, "ms"));
    res.note(metric_line("query_ms_p90", p90, "ms"));
    res.note(metric_line("query_ms_p99", p99, "ms"));
    res.note(metric_line("queries_per_s", qps, "1/s"));
    res.info["query_ms_p99"] = std::to_string(p99);
    res.set("setup_s", median(setup_s), "s");
    res.set("op_ms_p50", p50, "ms");
    res.set("op_ms_p90", p90, "ms");
    res.set("work_per_s", qps, "1/s");
    return res;
  }

  res.set("traffic.generate_ms", median(gen_ms), "ms");
  res.set("serve.parse_json_us", median(traced.parse_json_us), "us");
  res.set("serve.parse_query_us", median(traced.parse_query_us), "us");
  res.set("serve.dump_us", median(traced.dump_us), "us");
  for (const char* k : {"cluster", "savings", "faults", "mech",
                        "faults_sharded", "mech_sharded", "metrics"}) {
    res.set(std::string{"serve.answer_ms."} + k, median(traced.answer_ms[k]),
            "ms");
  }
  res.set("serve.result_reuses",
          static_cast<double>(first_stats.result_reuses), "count");
  res.set("faults.baselines_built",
          static_cast<double>(first_stats.baselines_built), "count");
  res.set("state.baseline_forks",
          static_cast<double>(first_stats.baseline_forks), "count");
  res.set("state.fork_ratio",
          static_cast<double>(first_stats.baseline_forks) /
              static_cast<double>(first_faults),
          "ratio");
  res.set("mech.sim_reuses", static_cast<double>(first_stats.sim_reuses),
          "count");
  res.set("mech.stage_reuses", static_cast<double>(first_stats.stage_reuses),
          "count");
  res.set("mech.sim_reuse_ratio",
          static_cast<double>(first_stats.sim_reuses) /
              static_cast<double>(first_mech),
          "ratio");
  res.set("bench.trace_overhead_pct",
          (traced.total_ms / untraced_total_ms - 1.0) * 100.0, "%");

  // run_composite on the canned mech scenario, cold and then warm.
  {
    std::vector<double> cold, warm;
    for (int r = 0; r < 3; ++r) {
      const netpp::serve::CannedMechScenario sc =
          netpp::serve::make_canned_mech_scenario(
              netpp::serve::ScenarioOptions{});
      auto t0 = Clock::now();
      (void)netpp::run_composite(sc.topo, sc.workload, sc.demands,
                                 sc.horizon, sc.config);
      cold.push_back(ms_between(t0, Clock::now()));
      netpp::CompositeCache cache;
      netpp::CompositeConfig cfg = sc.config;
      cfg.cache = &cache;
      (void)netpp::run_composite(sc.topo, sc.workload, sc.demands,
                                 sc.horizon, cfg);
      t0 = Clock::now();
      (void)netpp::run_composite(sc.topo, sc.workload, sc.demands,
                                 sc.horizon, cfg);
      warm.push_back(ms_between(t0, Clock::now()));
    }
    res.set("mech.composite_cold_ms", median(cold), "ms");
    res.set("mech.composite_warm_ms", median(warm), "ms");
  }
  // Sharded faults answers with the default thread budget, which gives
  // each query a worker per shard, spawned every barrier window.
  {
    netpp::thread_budget::set_pool_size(0);
    netpp::serve::QueryEngine fresh;
    std::vector<double> answer_ms;
    for (const GenQuery& q : sharded_faults) {
      const netpp::serve::Query query =
          netpp::serve::parse_query(netpp::serve::parse_json(q.text));
      const auto t0 = Clock::now();
      (void)fresh.answer(query);
      answer_ms.push_back(ms_between(t0, Clock::now()));
    }
    netpp::thread_budget::set_pool_size(1);
    res.set("serve.answer_ms.faults_sharded_2w", median(answer_ms), "ms");
  }
  // The default baseline image, saved through the engine.
  {
    std::vector<double> save_ms;
    const std::string path = opt.out_dir + "/whatif-baseline.img";
    for (int r = 0; r < 3; ++r) {
      netpp::serve::QueryEngine fresh;
      const auto t0 = Clock::now();
      fresh.save_baseline(path);
      save_ms.push_back(ms_between(t0, Clock::now()));
    }
    res.set("state.save_baseline_ms", median(save_ms), "ms");
    res.set("state.image_bytes",
            static_cast<double>(std::filesystem::file_size(path)), "bytes");
    std::filesystem::remove(path);
  }
  return res;
}

}  // namespace perfbench
