// htqo_perfbench: one run of one workload in a fresh process.
//
//   htqo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--setup-only] [--spawn-ns <monotonic ns>]
//                  [--work-dir <dir>]
//   htqo_perfbench --self-check --seed <n>
//
// Prints one JSON object on its last stdout line; perfbench/run.py is the
// user-facing wrapper that builds this binary, repeats set-up and prints
// the benchmark's result line (README.md).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "server/client.h"
#include "util/rng.h"

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define PERFBENCH_REFUSED_BUILD 1
#else
#define PERFBENCH_REFUSED_BUILD 0
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#undef PERFBENCH_REFUSED_BUILD
#define PERFBENCH_REFUSED_BUILD 1
#endif
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool setup_only = false;
  bool self_check = false;
  int64_t spawn_ns = -1;
  std::string work_dir = ".";
};

int64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// VmHWM from /proc/self/status, in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Regularized incomplete beta function I_x(a, b), by its continued
// fraction (Numerical Recipes, 2nd ed., 6.4).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1;
  double d = 1 - (a + b) * x / (a + 1);
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1 / d;
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1) * (a + m2));
    d = 1 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1 / d;
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1));
    d = 1 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1 / d;
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1) < 1e-13) break;
  }
  return h;
}

double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

// Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean of
// all order statistics. On the TPC-H workloads' few hundred samples it is
// far steadier than the nearest rank (p99 there would be the 2nd-largest
// latency); on large samples the two agree.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p / 100.0 * (n + 1);
  const double b = (1 - p / 100.0) * (n + 1);
  double estimate = 0;
  double prev = 0;
  for (std::size_t i = 1; i <= v.size(); ++i) {
    const double cur = IncompleteBeta(a, b, static_cast<double>(i) / n);
    estimate += (cur - prev) * v[i - 1];
    prev = cur;
  }
  return estimate;
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t slo_ok = 0;
  std::vector<double> latency_ms;  // OK queries only
  double elapsed_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double check_s = 0;  // result-check phase, after the measurement
  std::string first_error;
  bool correct = true;
  std::string why;
};

void Fail(Outcome* out, const std::string& why) {
  if (out->correct) out->why = why;
  out->correct = false;
}

// --- in-process timed phase + check -------------------------------------

// Reference plans for the result check: a second optimizer mode, without
// the plan cache or spilling. cyclic_plan checks against FROM-order nested
// loops (~2 ms a shape), which share no decomposition or hashing code with
// q-HD; DP needs ~200 ms on 16 atoms and the tree-decomposition pipeline
// materializes cross products that exhaust memory.
htqo::RunOptions ReferenceOptions(const Setup& setup) {
  htqo::RunOptions o;
  o.mode = setup.workload == "cyclic_plan" ? htqo::OptimizerMode::kNaive
                                           : htqo::OptimizerMode::kDpStatistics;
  return o;
}

void TimedInProcess(const Setup& setup, const WorkloadSpec& spec,
                    double seconds, Outcome* out) {
  const bool distinct = setup.workload == "cyclic_plan";
  const std::size_t n = setup.timed.size();
  AnswerLog answers(n);
  htqo::HybridOptimizer optimizer(&setup.catalog, &setup.stats);
  out->latency_ms.reserve(8192);
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    if (distinct && i == n) break;  // every timed shape used once
    const std::size_t k = i % n;
    const auto t0 = Clock::now();
    auto run = optimizer.Run(setup.timed[k].sql, setup.options);
    const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
    ++out->attempted;
    if (!run.ok()) {
      if (out->first_error.empty()) out->first_error = run.status().message();
      continue;
    }
    ++out->ok;
    out->latency_ms.push_back(ms);
    if (ms <= spec.slo_ms) ++out->slo_ok;
    if (!answers.Check(k, run->output)) {
      Fail(out, "query " + std::to_string(k) + " changed between repeats");
    }
  }
  out->elapsed_s = SecondsBetween(start, Clock::now());
  out->cpu_s = CpuSeconds() - cpu0;
  out->peak_rss_mb = PeakRssMb();

  // Result check: every executed query once more under the reference mode.
  const auto check_start = Clock::now();
  const htqo::RunOptions ref = ReferenceOptions(setup);
  for (std::size_t k = 0; k < n; ++k) {
    const htqo::Relation* answer = answers.First(k);
    if (answer == nullptr) continue;
    auto run = optimizer.Run(setup.timed[k].sql, ref);
    if (!run.ok()) {
      Fail(out, "reference run of query " + std::to_string(k) +
                    " failed: " + run.status().message());
      continue;
    }
    std::string why;
    if (!SameResult(*answer, run->output, &why)) {
      Fail(out, "query " + std::to_string(k) + " differs from " +
                    htqo::OptimizerModeName(ref.mode) + ": " + why);
    }
  }
  out->check_s = SecondsBetween(check_start, Clock::now());
}

// --- server_mixed timed phase + check -----------------------------------

struct SeenReply {
  bool seen = false;
  uint64_t rows = 0;
  std::string text;
};

void TimedServer(Setup& setup, const WorkloadSpec& spec, double seconds,
                 Outcome* out) {
  const std::size_t n = setup.timed.size();
  std::vector<std::unique_ptr<htqo::Client>> clients;
  for (std::size_t c = 0; c < setup.clients; ++c) {
    htqo::ClientOptions co;
    co.port = setup.server->port();
    co.tenant = setup.tenants[c % setup.tenants.size()];
    co.max_retries = 0;  // a shed is a failed attempt, not a retry
    co.backoff_jitter_seed = setup.seed + c;
    clients.push_back(std::make_unique<htqo::Client>(co));
    htqo::Status s = clients.back()->Connect();
    if (!s.ok()) {
      Fail(out, "connect: " + s.message());
      return;
    }
  }
  std::mutex mu;  // guards `out` and `seen` during the phase
  std::vector<SeenReply> seen(n);
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      htqo::Rng rng(setup.seed * 7919 + c + 1);
      htqo::Client& client = *clients[c];
      Outcome local;
      std::vector<std::pair<std::size_t, htqo::QueryReply>> firsts;
      std::vector<bool> mine(n, false);
      while (Clock::now() < end) {
        const std::size_t k = rng.Uniform(n);
        const auto t0 = Clock::now();
        auto reply = client.Query(setup.timed[k].sql, /*deadline_ms=*/5000);
        const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
        ++local.attempted;
        if (!reply.ok()) {
          if (local.first_error.empty()) {
            local.first_error = reply.status().message();
          }
          if (!client.connected()) client.Connect();
          continue;
        }
        ++local.ok;
        local.latency_ms.push_back(ms);
        if (ms <= spec.slo_ms) ++local.slo_ok;
        if (!mine[k]) {
          mine[k] = true;
          firsts.emplace_back(k, std::move(reply.value()));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      out->attempted += local.attempted;
      out->ok += local.ok;
      out->slo_ok += local.slo_ok;
      out->latency_ms.insert(out->latency_ms.end(), local.latency_ms.begin(),
                             local.latency_ms.end());
      if (out->first_error.empty()) out->first_error = local.first_error;
      for (auto& [k, reply] : firsts) {
        if (!seen[k].seen) {
          seen[k] = {true, reply.rows, reply.result_text};
        } else if (seen[k].rows != reply.rows ||
                   seen[k].text != reply.result_text) {
          Fail(out, "template " + std::to_string(k) +
                        " answered differently across sessions");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out->elapsed_s = SecondsBetween(start, Clock::now());
  out->cpu_s = CpuSeconds() - cpu0;
  out->peak_rss_mb = PeakRssMb();

  // Result check: each template's server answer (row count and rendered
  // table) against an in-process run of the same options.
  const auto check_start = Clock::now();
  htqo::HybridOptimizer optimizer(&setup.catalog, &setup.stats);
  const auto& sopts = setup.server->options();
  for (std::size_t k = 0; k < n; ++k) {
    auto reply = clients[0]->Query(setup.timed[k].sql);
    auto run = optimizer.Run(setup.timed[k].sql, sopts.run_template);
    if (!reply.ok() || !run.ok()) {
      Fail(out, "check of template " + std::to_string(k) + " failed: " +
                    (reply.ok() ? run.status().message()
                                : reply.status().message()));
      continue;
    }
    const std::string text = run->output.ToString(sopts.max_result_rows);
    if (reply->rows != run->output.NumRows() || reply->result_text != text ||
        (seen[k].seen &&
         (seen[k].rows != reply->rows || seen[k].text != text))) {
      Fail(out, "template " + std::to_string(k) +
                    " server answer differs from the in-process run");
    }
  }
  for (auto& client : clients) client->Close();
  out->check_s = SecondsBetween(check_start, Clock::now());
}

// --- generator self-check -------------------------------------------------

int SelfCheck(uint64_t seed) {
  bool ok = true;
  for (const std::string& w : WorkloadNames()) {
    uint64_t data[3];
    uint64_t queries[3];
    const uint64_t seeds[3] = {seed, seed, seed + 1};
    for (int i = 0; i < 3; ++i) {
      Setup s;
      htqo::Status st = GenerateInputs({w, seeds[i], "."}, &s);
      if (!st.ok()) {
        std::printf("self-check %s: %s\n", w.c_str(), st.message().c_str());
        return 1;
      }
      data[i] = DataFingerprint(s.catalog);
      queries[i] = QueryFingerprint(s);
    }
    const bool same = data[0] == data[1] && queries[0] == queries[1];
    const bool differs = data[0] != data[2] && queries[0] != queries[2];
    std::printf("self-check %-12s seed %llu: data %016llx queries %016llx  "
                "repeat %s  seed+1 %s\n",
                w.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(data[0]),
                static_cast<unsigned long long>(queries[0]),
                same ? "same" : "DIFFERENT", differs ? "differs" : "SAME");
    ok = ok && same && differs;
  }
  std::printf("{\"self_check\": %s}\n", ok ? "true" : "false");
  return ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--setup-only") {
      a->setup_only = true;
    } else if (flag == "--self-check") {
      a->self_check = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--spawn-ns") {
      a->spawn_ns = std::strtoll(v, nullptr, 10);
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

std::string Provenance(const Args& a) {
  std::ostringstream os;
  os << "\"provenance\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << JsonEscape(CpuModel())
     << "\", \"compiler\": \"" << JsonEscape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"seed\": " << a.seed << "}";
  return os.str();
}

int Main(int argc, char** argv) {
  const int64_t main_ns = MonotonicNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: see the header of perfbench/main.cc\n");
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (PERFBENCH_REFUSED_BUILD ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build (assertions or "
                 "sanitizers on); build Release or RelWithDebInfo\n",
                 build_type.c_str());
    return 3;
  }
  if (args.self_check) return SelfCheck(args.seed);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int64_t origin_ns = args.spawn_ns >= 0 ? args.spawn_ns : main_ns;

  Setup setup;
  htqo::Status s =
      BuildSetup({args.workload, args.seed, args.work_dir}, &setup);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 s.message().c_str());
    return 1;
  }
  const double setup_s = (MonotonicNs() - origin_ns) * 1e-9;
  if (args.setup_only) {
    std::printf("{\"setup_s\": %s}\n", Num(setup_s).c_str());
    return 0;
  }

  if (args.trace != 0) {
    const std::string trace_path = args.work_dir + "/trace_" +
                                   args.workload + "_" +
                                   std::to_string(args.seed) + ".jsonl";
    LayerReport r = RunTracedLayers(&setup, args.seconds, trace_path);
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"error\": \"" << JsonEscape(r.error) << "\", \"metrics\": {";
    bool first = true;
    for (const auto& [name, unit] : LayerMetricNames()) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << Num(r.metrics[name]) << ", \"unit\": \"" << unit << "\"}";
      first = false;
    }
    os << "}, " << Provenance(args) << "}";
    std::printf("%s\n", os.str().c_str());
    return r.correct ? 0 : 1;
  }

  Outcome out;
  if (setup.server != nullptr) {
    TimedServer(setup, *spec, args.seconds, &out);
  } else {
    TimedInProcess(setup, *spec, args.seconds, &out);
  }
  if (out.ok == 0) Fail(&out, "no query completed: " + out.first_error);

  const double n_ok = std::max<double>(1, out.ok);
  const double attempted = std::max<double>(1, out.attempted);
  std::ostringstream os;
  os << "{\"correct\": " << (out.correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted
     << ", \"failed\": " << (out.attempted - out.ok) << ", \"error\": \""
     << JsonEscape(out.correct ? out.first_error : out.why)
     << "\", \"samples\": " << out.latency_ms.size() << ", \"metrics\": {"
     << "\"setup_s\": " << Num(setup_s)
     << ", \"qps\": " << Num(out.ok / out.elapsed_s)
     << ", \"p50_ms\": " << Num(Percentile(out.latency_ms, 50))
     << ", \"p90_ms\": " << Num(Percentile(out.latency_ms, 90))
     << ", \"p99_ms\": " << Num(Percentile(out.latency_ms, 99))
     << ", \"ok_frac\": " << Num(out.ok / attempted)
     << ", \"slo_ok_frac\": " << Num(out.slo_ok / attempted)
     << ", \"cpu_ms_per_query\": " << Num(out.cpu_s * 1e3 / n_ok)
     << ", \"peak_rss_mb\": " << Num(out.peak_rss_mb) << "}, "
     << "\"slo_ms\": " << Num(spec->slo_ms)
     << ", \"check_s\": " << Num(out.check_s) << ", " << Provenance(args)
     << "}";
  std::printf("%s\n", os.str().c_str());
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
