// journey — the receiver-journey benchmark runner.
//
//   journey --workload release|catchup|serve --seed N --seconds S --trace 0|1
//           [--trace-out PATH] [--git-sha SHA] [--src-digest HEX]
//
// Boots tred on loopback in this process, runs one workload on
// BLS12-381, checks every output, prints a run header, the workload's
// metrics by name with their units, and — as the last line — one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones
// of the traced run. journeybench/run.py builds this binary and calls it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

struct Workload {
  const char* name;
  jb::Outcome (*run)(const jb::Options&);
  const char* load;  ///< generator threads and connections, for the header
};

const Workload kWorkloads[] = {
    {"release", jb::run_release,
     "12 rounds of 3 sender threads, then 3 receiver threads x 1 connection each; + tred loop"},
    {"catchup", jb::run_catchup,
     "3 receiver threads x 1 connection each (batch verify fans out on the work pool); "
     "+ tred loop"},
    {"serve", jb::run_serve,
     "2 client threads x 1 connection + 1 publisher thread; + tred loop thread"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "journey: %s\nusage: journey --workload release|catchup|serve --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--git-sha SHA] "
               "[--src-digest HEX]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  jb::Options opt;
  std::string git_sha = "unknown", src_digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else if (a == "--src-digest") {
      src_digest = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (opt.workload == k.name) w = &k;
  }
  if (w == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  // Run header.
  const char* pool_env = std::getenv("TRE_POOL_THREADS");
  std::printf("# journeybench — receiver-journey benchmark over loopback tred\n");
  std::printf("# git_sha %s  src_digest %s\n", git_sha.c_str(), src_digest.c_str());
  std::printf("# nproc %u  work pool %s  compiler %s %s  build %s  TRE_METRICS %s"
              "  TRE_SELFTEST %s\n",
              std::thread::hardware_concurrency(), pool_env ? pool_env : "= nproc",
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, JB_BUILD_TYPE, JB_TRE_METRICS, JB_TRE_SELFTEST);
  std::printf("# curve bls12-381  workload %s  seed %llu  seconds %g  trace %d\n", w->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("# load: %s\n", w->load);
  std::printf("# cache state: every receiver journey / catch-up pass on a fresh scheme "
              "(cold tag, comb, key-check caches); process-wide Bls12Ctx warmed in set-up\n");

  const std::uint64_t t0 = jb::now_ns();
  (void)tre::bls12::Bls12Ctx::get();
  std::printf("# bls12 context build %.3f s (once per process, before set-up)\n",
              jb::seconds_since(t0));
  std::fflush(stdout);

  jb::Outcome out;
  try {
    out = w->run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "journey: %s failed: %s\n", w->name, e.what());
    return 1;
  }

  for (const jb::Metric& m : out.named) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.trace) {
    std::printf("# traced run\n");
    for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
    for (const jb::Metric& m : out.layer) {
      std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("attempted %llu  failed %llu  correct %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), out.correct ? "yes" : "NO");
  for (const std::string& p : out.problems) std::printf("  failure: %s\n", p.c_str());

  const std::vector<jb::Metric>& metrics = opt.trace ? out.layer : out.e2e;
  std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
