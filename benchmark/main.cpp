// sma_benchmark: runs the benchmark's workloads in one mode and prints
// one JSON document as the last line of stdout. benchmark/run.py drives
// it; the modes are
//
//   --mode time   untraced reps. Each workload first sets up --setups
//                 times (build its inputs and run one rep, which is the
//                 warm-up); then with --rounds R the given workloads run
//                 interleaved, R rounds of a fixed rep count each, or
//                 with --seconds T one workload repeats for T seconds.
//   --mode trace  one workload: set-up and a first rep (time to first
//                 result and peak memory), then untraced and traced reps
//                 alternately for --seconds T, or without --seconds one
//                 traced rep alone. The traced reps' spans give each
//                 layer's self time; --trace-out FILE writes them as
//                 Chrome trace_event JSON.
//
// Common flags: --workloads a,b,...  --seed S  --smoke
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gf/region.hpp"
#include "sim/simulation.hpp"
#include "workloads.hpp"

namespace smabench {

// Keeps the host probe's loop from being optimised away.
std::uint64_t probe_sink = 0;

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Params& params) {
  if (name == "rebuild_read") return make_rebuild_read(params);
  if (name == "rebuild_write_qos") return make_rebuild_write_qos(params);
  if (name == "fleet_cell") return make_fleet_cell(params);
  if (name == "chaos_soak") return make_chaos_soak(params);
  if (name == "paper_sweeps") return make_paper_sweeps(params);
  return nullptr;
}

namespace {

// --- JSON output ----------------------------------------------------------

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class Obj {
 public:
  Obj& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += quote(key) + ":" + json;
    return *this;
  }
  Obj& str(std::string_view key, std::string_view v) {
    return raw(key, quote(v));
  }
  Obj& num(std::string_view key, double v) { return raw(key, smabench::num(v)); }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string values(const Values& v) {
  Obj o;
  for (const auto& [k, x] : v) o.num(k, x);
  return o.json();
}

std::string list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + num(v[i]);
  return out + "]";
}

std::string list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + quote(v[i]);
  return out + "]";
}

// --- measurement helpers --------------------------------------------------

/// A fixed integer loop owned by the benchmark. Its time is reported
/// next to the measurements so a reader can see when the host changed
/// speed; it is never used to normalise them.
double host_probe_s() {
  const double t0 = now_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  probe_sink = x;
  return now_s() - t0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* backend_name(sma::sim::QueueBackend b) {
  switch (b) {
    case sma::sim::QueueBackend::kCalendar:
      return "calendar";
    case sma::sim::QueueBackend::kHeap:
      return "heap";
    case sma::sim::QueueBackend::kLegacy:
      return "legacy";
  }
  return "unknown";
}

std::string host_json(const Params& params) {
  return Obj()
      .num("nproc", std::thread::hardware_concurrency())
      .str("compiler", compiler())
      .str("build_type", SMA_BENCH_BUILD_TYPE)
      .str("gf_tier", sma::gf::to_string(sma::gf::active_tier()))
      .str("sim_queue_backend",
           backend_name(sma::sim::default_queue_backend()))
      .num("multikernel_threads", static_cast<double>(params.threads))
      .json();
}

/// Moves the thread that constructed it round the CPUs the process may
/// use, one CPU per 0.2 s, from a helper thread, so that interference
/// confined to one CPU (another tenant's load on a core it shares)
/// cannot decide a whole rep or run. On a shared 4-vCPU KVM guest single
/// CPUs switch between a fast and a ~45 % slower regime for seconds at a
/// time (README.md, "Host noise").
class CpuRotation {
 public:
  CpuRotation() : tid_(static_cast<pid_t>(syscall(SYS_gettid))) {
    CPU_ZERO(&all_);
    if (sched_getaffinity(tid_, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  ~CpuRotation() { stop(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Call before each rep. A parallel rep runs unrotated and unpinned:
  /// the worker threads it starts inherit the caller's CPU mask.
  void before_rep(bool parallel) {
    if (parallel)
      stop();
    else if (!helper_.joinable() && cpus_.size() > 1)
      helper_ = std::thread([this] { rotate(); });
  }

  /// Stop rotating and give the thread back every CPU.
  void stop() {
    if (!helper_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    helper_.join();
    stopping_ = false;
    sched_setaffinity(tid_, sizeof(all_), &all_);
  }

 private:
  void rotate() {
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t step = 0; !stopping_; ++step) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[step % cpus_.size()], &one);
      sched_setaffinity(tid_, sizeof(one), &one);
      cv_.wait_for(lock, std::chrono::milliseconds(200),
                   [this] { return stopping_; });
    }
  }

  const pid_t tid_;
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mu_
  std::thread helper_;
};

/// Per-workload accounting of the time mode.
struct Timing {
  std::unique_ptr<Workload> workload;
  /// Per set-up: building the inputs alone, and building them plus the
  /// first rep (time to first result). That first rep is the warm-up.
  std::vector<double> construct_s;
  std::vector<double> setup_s;
  RepResult first;
  std::vector<double> rep_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool digests_agree = true;
  std::vector<std::string> errors;

  void set_up(CpuRotation& cpus) {
    cpus.before_rep(workload->parallel());
    const double t0 = now_s();
    workload->setup();
    construct_s.push_back(now_s() - t0);
    keep(workload->rep(), setup_s.empty());
    setup_s.push_back(now_s() - t0);
  }

  void timed_rep(CpuRotation& cpus) {
    cpus.before_rep(workload->parallel());
    const double t0 = now_s();
    RepResult r = workload->rep();
    rep_s.push_back(now_s() - t0);
    attempted += r.attempted;
    failed += r.failed;
    keep(std::move(r), false);
  }

  void keep(RepResult r, bool is_first) {
    if (is_first)
      first = r;
    else if (r.digest != first.digest)
      digests_agree = false;
    for (std::string& e : r.errors)
      if (errors.size() < 20) errors.push_back(std::move(e));
  }

  std::string json() const {
    return Obj()
        .str("work_unit", workload->work_unit())
        .num("work_per_rep", first.work)
        .raw("construct_s", list(construct_s))
        .raw("setup_s", list(setup_s))
        .num("peak_rss_mb", peak_rss_mb())
        .raw("rep_s", list(rep_s))
        .str("digest", hex(first.digest))
        .raw("digests_agree", digests_agree ? "true" : "false")
        .num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed))
        .raw("errors", list(errors))
        .raw("model", values(first.model))
        .json();
  }
};

/// Reps of each workload per round of the interleaved time mode:
/// roughly equal host time per workload, rebuild_read most often.
int reps_per_round(std::string_view name, bool smoke) {
  if (name == "rebuild_read") return smoke ? 4 : 100;
  if (name == "rebuild_write_qos") return smoke ? 2 : 4;
  if (name == "chaos_soak") return smoke ? 1 : 2;
  return 1;
}

int run_time(const std::vector<std::string>& names, const Params& params,
             int setups, int rounds, double seconds) {
  CpuRotation cpus;
  std::vector<Timing> ts(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ts[i].workload = make_workload(names[i], params);
    for (int k = 0; k < setups; ++k) ts[i].set_up(cpus);
  }
  std::vector<double> probes;
  if (seconds > 0.0) {
    // One workload, repeated for `seconds`, at least three timed reps.
    Timing& t = ts.front();
    probes.push_back(host_probe_s());
    const double t0 = now_s();
    while (t.rep_s.size() < 3 || now_s() - t0 < seconds) t.timed_rep(cpus);
    probes.push_back(host_probe_s());
  } else {
    for (int round = 0; round < rounds; ++round) {
      probes.push_back(host_probe_s());
      for (std::size_t i = 0; i < ts.size(); ++i)
        for (int k = reps_per_round(names[i], params.smoke); k > 0; --k)
          ts[i].timed_rep(cpus);
    }
  }
  cpus.stop();
  Obj workloads;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    for (std::string& e : ts[i].workload->post_checks(ts[i].first))
      ts[i].errors.push_back(std::move(e));
    workloads.raw(names[i], ts[i].json());
  }
  std::printf("%s\n", Obj()
                          .str("mode", "time")
                          .raw("host", host_json(params))
                          .raw("probe_s", list(probes))
                          .raw("workloads", workloads.json())
                          .json()
                          .c_str());
  return 0;
}

/// Set-up and a first untraced rep (the memory measurement), then
/// untraced and traced reps alternately, so that tracing overhead is
/// measured under the same host conditions. With seconds == 0 a single
/// traced rep follows and the caller supplies the untraced timing.
int run_trace(const std::string& name, const Params& params, double seconds,
              const std::string& trace_out) {
  const auto w = make_workload(name, params);
  double t0 = now_s();
  w->setup();
  const double construct_s = now_s() - t0;
  const RepResult ref = w->rep();
  const double setup_s = now_s() - t0;
  const double rss_mb = peak_rss_mb();
  std::vector<std::string> errors = ref.errors;

  Tracer tracer;
  std::vector<double> untraced_s;
  std::string reps = "[";
  const double start = now_s();
  for (int k = 0; k == 0 || now_s() - start < seconds; ++k) {
    if (seconds > 0.0) {
      t0 = now_s();
      if (w->rep().digest != ref.digest)
        errors.push_back("untraced reps disagree on the deterministic digest");
      untraced_s.push_back(now_s() - t0);
    }
    tracer.begin_rep(k);
    RepResult r;
    {
      Span root(tracer, "bench.rep");
      r = w->traced_rep(tracer);
    }
    const LayerTimes lt = tracer.layer_times(k);
    Values self(lt.self_s.begin(), lt.self_s.end());
    Values spans;
    for (const auto& [n, c] : lt.spans) spans[n] = static_cast<double>(c);
    reps += (k ? "," : "") +
            Obj()
                .num("wall_s", lt.wall_s)
                .num("extra_s", r.extra_s)
                .raw("recompose_ok",
                     r.digest == ref.digest ? "true" : "false")
                .num("attempted", static_cast<double>(r.attempted))
                .num("failed", static_cast<double>(r.failed))
                .raw("errors", list(r.errors))
                .raw("self_s", values(self))
                .raw("spans", values(spans))
                .raw("counts", values(r.counts))
                .raw("model", values(r.model))
                .json();
  }
  reps += "]";
  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    f << tracer.chrome_json(name);
    if (!f) {
      std::fprintf(stderr, "sma_benchmark: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n",
              Obj()
                  .str("mode", "trace")
                  .raw("host", host_json(params))
                  .raw("workloads",
                       Obj()
                           .raw(name, Obj()
                                          .num("construct_s", construct_s)
                                          .raw("setup_s", list(std::vector<double>{setup_s}))
                                          .num("peak_rss_mb", rss_mb)
                                          .raw("untraced_s", list(untraced_s))
                                          .str("digest", hex(ref.digest))
                                          .raw("errors", list(errors))
                                          .raw("model", values(ref.model))
                                          .raw("reps", reps)
                                          .json())
                           .json())
                  .json()
                  .c_str());
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "sma_benchmark: %s\n"
               "usage: sma_benchmark --mode time|trace --workloads a,b,... "
               "[--seed S] [--smoke]\n"
               "                     [--setups K] [--rounds R | --seconds T] "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

}  // namespace smabench

int main(int argc, char** argv) {
  using namespace smabench;
  std::string mode, trace_out;
  std::vector<std::string> names;
  Params params;
  int setups = 1;
  int rounds = 5;
  double seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      params.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--mode") {
      mode = argv[++i];
    } else if (arg == "--workloads") {
      std::string_view rest = argv[++i];
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        names.emplace_back(rest.substr(0, comma));
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
    } else if (arg == "--seed") {
      char* end = nullptr;
      params.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (arg == "--setups") {
      setups = std::atoi(argv[++i]);
    } else if (arg == "--rounds") {
      rounds = std::atoi(argv[++i]);
    } else if (arg == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (names.empty()) return usage("no workloads given");
  for (const std::string& n : names)
    if (!make_workload(n, params)) return usage(("unknown workload " + n).c_str());
  if (setups < 1 || rounds < 1 || seconds < 0.0)
    return usage("bad --setups, --rounds or --seconds");
  params.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  if (mode == "time") {
    if (seconds > 0.0 && names.size() != 1)
      return usage("--seconds times exactly one workload");
    return run_time(names, params, setups, rounds, seconds);
  }
  if (mode != "trace") return usage("--mode must be time or trace");
  if (names.size() != 1) return usage("trace mode takes one workload");
  return run_trace(names.front(), params, seconds, trace_out);
}
