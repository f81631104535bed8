// netpp_perfbench: the measuring half of the repo benchmark. perfbench/run.py
// builds it and calls
//
//   netpp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --out-dir <dir>
//
// It prints human-readable lines, then one JSON object as its last line:
// the run's correctness counts, metrics, and machine/build context. Exit
// codes: 0 all checks held, 1 a correctness check failed, 2 bad usage or a
// build it refuses to record from.
#include <cpuid.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "netpp/netsim/soa.h"
#include "netpp/serve/json.h"

namespace {

using netpp::serve::JsonValue;

// Worker threads for the sharded workload: one per shard, at most nproc.
constexpr std::size_t kMaxWorkers = 4;

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string s{text};
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "netpp_perfbench: %s\nusage: netpp_perfbench --workload "
               "poisson_fabric|standing_sharded|whatif_serve --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n",
               why);
  std::exit(2);
}

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--out-dir") {
        opt.out_dir = value;
      } else {
        usage(("unknown flag " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be > 0");
  opt.workers = std::min(kMaxWorkers, nproc());
  return opt;
}

JsonValue str(const std::string& s) { return JsonValue::make_string(s); }
JsonValue num(double v) { return JsonValue::make_number(v); }

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse_args(argc, argv);

  // Timings from an unoptimized or assert-enabled build are not a
  // baseline anyone can compare against: refuse to record them.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (build_type != "Release" || !ndebug) {
    std::fprintf(stderr,
                 "netpp_perfbench: refusing to record from a %s build "
                 "(NDEBUG %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.empty() ? "(empty)" : build_type.c_str(),
                 ndebug ? "on" : "off");
    return 2;
  }

  perfbench::Trace trace{opt.trace};
  perfbench::Result res;
  try {
    if (opt.workload == "poisson_fabric") {
      res = perfbench::run_poisson_fabric(opt, trace);
    } else if (opt.workload == "standing_sharded") {
      res = perfbench::run_standing_sharded(opt, trace);
    } else if (opt.workload == "whatif_serve") {
      res = perfbench::run_whatif_serve(opt, trace);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netpp_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  if (res.attempted == 0) {
    std::fprintf(stderr, "netpp_perfbench: %s attempted nothing\n",
                 opt.workload.c_str());
    return 1;
  }
  const double rss = perfbench::peak_rss_mib();
  if (!opt.trace) res.set("peak_rss_mb", rss, "MiB");

  std::string spans_path;
  if (opt.trace) {
    spans_path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + ".json";
    trace.write(spans_path);
  }

  std::printf("%s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& line : res.notes) std::printf("%s\n", line.c_str());
  const double error_rate =
      static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  std::printf(
      "%s\n",
      perfbench::metric_line("error_rate", error_rate, "ratio").c_str());
  std::printf("%s\n",
              perfbench::metric_line("peak_rss_mb", rss, "MiB").c_str());
  for (const auto& e : res.errors) std::printf("  FAILED: %s\n", e.c_str());

  JsonValue metrics = JsonValue::make_object();
  for (const auto& [name, vu] : res.metrics) {
    JsonValue m = JsonValue::make_object();
    m.set("value", num(vu.first));
    m.set("unit", str(vu.second));
    metrics.set(name, std::move(m));
  }
  JsonValue context = JsonValue::make_object();
  context.set("nproc", num(static_cast<double>(nproc())));
  context.set("cpu_model", str(cpu_model()));
  context.set("compiler", str(PERFBENCH_COMPILER));
  context.set("cmake_build_type", str(build_type));
  context.set("netpp_simd", str(PERFBENCH_NETPP_SIMD));
  context.set("active_simd_level",
              str(netpp::soa::to_string(netpp::soa::active_simd_level())));
  context.set("workers", num(1));  // timed loops run on one thread
  context.set("clients", num(1));  // every closed loop has one client
  JsonValue info = JsonValue::make_object();
  for (const auto& [k, v] : res.info) info.set(k, str(v));
  if (!spans_path.empty()) {
    info.set("spans_file", str(spans_path));
    info.set("spans", num(static_cast<double>(trace.size())));
  }
  info.set("error_rate", num(error_rate));

  JsonValue out = JsonValue::make_object();
  out.set("correct", JsonValue::make_bool(res.failed == 0));
  out.set("attempted", num(static_cast<double>(res.attempted)));
  out.set("failed", num(static_cast<double>(res.failed)));
  out.set("metrics", std::move(metrics));
  out.set("context", std::move(context));
  out.set("info", std::move(info));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}
