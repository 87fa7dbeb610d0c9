// hadfl_perfbench — the repository benchmark binary (see README.md here).
//
//   hadfl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--reduced] [--wrong-ref-hash] [--git-sha SHA]
//                   [--source-digest HEX] [--scratch-dir DIR]
//
// Runs one workload through the library's public entry points
// (exp::make_run_setup / exp::FleetWorld, core::run_hadfl,
// rt::run_hadfl_rt, net::run_hadfl_net, core::run_hadfl_fleet), checks
// every run, and prints one JSON header line first and one JSON result
// line last. `--trace 0` times the end-to-end metrics with telemetry off;
// `--trace 1` makes one untraced and one traced run, reads the spans and
// counters the program already returns, then times the layer probes
// (probes.hpp). Nothing inside src/ is instrumented for the benchmark.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "core/fleet.hpp"
#include "core/selection.hpp"
#include "core/trainer.hpp"
#include "exp/cli_setup.hpp"
#include "exp/fleet_world.hpp"
#include "net/runner.hpp"
#include "nn/param_utils.hpp"
#include "obs/recorder.hpp"
#include "probes.hpp"
#include "rt/runner.hpp"
#include "sim/trace.hpp"

namespace {

using namespace hadfl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;         ///< small inputs, for the self-test
  bool wrong_ref_hash = false;  ///< corrupt reference hashes (self-test)
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string scratch_dir = ".";
};

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw InvalidArgument("unexpected " + arg);
    const std::string key = arg.substr(2);
    if (key == "reduced" || key == "wrong-ref-hash") {
      kv[key] = "1";
    } else if (i + 1 < argc) {
      kv[key] = argv[++i];
    } else {
      throw InvalidArgument("missing value for " + arg);
    }
  }
  Options o;
  for (const auto& [key, value] : kv) {
    if (key == "workload") o.workload = value;
    else if (key == "seed") o.seed = std::stoull(value);
    else if (key == "seconds") o.seconds = std::stod(value);
    else if (key == "trace") o.trace = value != "0";
    else if (key == "reduced") o.reduced = true;
    else if (key == "wrong-ref-hash") o.wrong_ref_hash = true;
    else if (key == "git-sha") o.git_sha = value;
    else if (key == "source-digest") o.source_digest = value;
    else if (key == "scratch-dir") o.scratch_dir = value;
    else throw InvalidArgument("unknown option --" + key);
  }
  if (o.workload.empty()) throw InvalidArgument("--workload is required");
  return o;
}

// ---- workloads -------------------------------------------------------------

enum class Backend { kSim, kRt, kNet, kFleet };

struct Workload {
  std::string name;
  Backend backend = Backend::kSim;
  std::string model;        ///< --model (sim/rt/net)
  double scale = 1.0;       ///< --scale
  std::string codec;        ///< --sync-codec
  int epochs = 0;           ///< --epochs; 0 = the scenario default
  std::size_t devices = 0;  ///< fleet K
  std::size_t rounds = 0;   ///< pinned sync-round count; 0 = not pinned
  double target = 0.0;      ///< accuracy for time_to_target_s
  double floor = 0.0;       ///< best_accuracy must reach this
  double rep_seconds = 1.0; ///< nominal seconds per repetition (sets R)
  std::size_t setup_extra = 0;  ///< set-up-only samples before each run
};

/// The four workloads; README.md records why each was chosen and what it
/// bypasses. Each has K = 4 training devices except the fleet (K = 10^6,
/// a 64-device cohort trains per round).
std::vector<Workload> workloads() {
  std::vector<Workload> ws(4);
  ws[0] = {"paper-resnet-sim", Backend::kSim, "resnet18", 1.0, "none", 0, 4,
           8, 0.5, 0.8, 4.0, 4};
  ws[1] = ws[0];
  ws[1].name = "paper-resnet-rt";
  ws[1].backend = Backend::kRt;
  // rt and net take more seeds: on the wall clock, time-to-target spreads
  // wider than on the sim's virtual clock.
  ws[1].rep_seconds = 3.0;
  ws[2] = {"sync-mlp-net", Backend::kNet, "mlp", 0.1, "int8", 1000, 4,
           500, 0.8, 0.85, 1.5, 4};
  ws[3] = {"fleet-1m", Backend::kFleet, "mlp", 1.0, "none", 80, 1000000,
           20, 0.4, 0.45, 4.0, 1};
  return ws;
}

/// Small inputs for the self-test: every code path, a fraction of the time.
/// Accuracy floors and the K = 4 round counts are not pinned at this size;
/// rt and net must still match the sim engine.
Workload reduced(Workload w) {
  w.rounds = 0;
  w.floor = 0.0;
  w.target = 0.2;
  w.setup_extra = 1;
  switch (w.backend) {
    case Backend::kSim:
    case Backend::kRt:
      w.scale = 0.25;
      w.epochs = 4;
      break;
    case Backend::kNet:
      w.epochs = 40;
      break;
    case Backend::kFleet:
      w.devices = 10000;
      w.epochs = 12;
      w.rounds = 3;
      break;
  }
  return w;
}

/// Timed runs per workload: fixed by --seconds and the workload's nominal
/// run time, never by how fast this build happens to be, so a run's
/// inputs depend on the seed alone.
std::size_t repetitions(const Workload& w, const Options& o) {
  if (o.reduced) return 1;
  const long n = std::lround(o.seconds / w.rep_seconds);
  return static_cast<std::size_t>(std::clamp(n, 2L, 15L));
}

/// Training seed of repetition `rep`: a fresh seed per repetition, so the
/// accuracy metrics are medians over several training seeds.
std::uint64_t run_seed(std::uint64_t seed, std::size_t rep) {
  return (seed % (std::uint64_t{1} << 26)) * 16 + rep;
}

// ---- metric catalogue and report --------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},        {"run_s", "s"},
    {"time_to_target_s", "s"}, {"best_accuracy", "fraction"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the result line: each is measured on every
/// workload (probes at the workload's model, counts from its runs).
const std::vector<MetricDef> kPerLayer = {
    {"tensor.gemm_gflops", "GF/s"},
    {"nn.forward_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"nn.update_ms", "ms"},
    {"nn.step_ms", "ms"},
    {"nn.eval_ms", "ms"},
    {"data.batch_us", "us"},
    {"common.log_lines", "count"},
    {"comm.int8_encode_gbps", "GB/s"},
    {"comm.int8_decode_gbps", "GB/s"},
    {"comm.topk_encode_gbps", "GB/s"},
    {"comm.sync_bytes_per_round", "bytes"},
    {"rt.ring_ms", "ms"},
    {"net.ring_ms", "ms"},
    {"core.train_work", "count"},
    {"core.evals", "count"},
    {"obs.trace_overhead_share", "fraction"},
};

/// Layer metrics that exist only where their engine runs (rt telemetry,
/// net counters, fleet phase spans, step counts of the K = 4 engines). The
/// result line must hold a number for every metric on every workload, so
/// these go on a `layer_detail` line of their own, printed before the
/// result, with null and the reason where the workload bypasses the layer.
const std::vector<MetricDef> kLayerDetail = {
    {"core.local_steps", "count"},
    {"common.parallel_eff", "fraction"},
    {"rt.compute_share", "fraction"},
    {"rt.sync_share", "fraction"},
    {"rt.broadcast_share", "fraction"},
    {"rt.stall_share", "fraction"},
    {"rt.untraced_share", "fraction"},
    {"rt.sync_latency_ms.p50", "ms"},
    {"rt.sync_latency_ms.p90", "ms"},
    {"rt.pool_miss_ratio", "fraction"},
    {"net.frames_per_round", "count"},
    {"net.bytes_per_round", "bytes"},
    {"net.sync_latency_ms.p50", "ms"},
    {"net.sync_latency_ms.p90", "ms"},
    {"net.dial_retries", "count"},
    {"net.device_span_share", "fraction"},
    {"core.fleet.clock_s", "s"},
    {"core.fleet.select_s", "s"},
    {"core.fleet.train_s", "s"},
    {"core.fleet.fold_s", "s"},
    {"core.fleet.untraced_s", "s"},
    {"core.fleet.train_episodes", "count"},
    {"core.fleet.peak_state_mb", "MB"},
    {"core.fleet.peak_velocity_mb", "MB"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Metric values by name. A metric that was not measured is printed with
/// a null value and the reason, never as 0.
class Report {
 public:
  void set(const std::string& name, double value) {
    if (std::isfinite(value)) {
      values_[name] = value;
    } else {
      missing(name, "non-finite measurement");
    }
  }
  void missing(const std::string& name, const std::string& why) {
    values_.erase(name);
    why_[name] = why;
  }
  std::string json(const std::vector<MetricDef>& defs) const {
    std::string out = "{";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const std::string name = defs[i].name;
      out += (i ? ", " : "") + json_string(name) + ": {\"value\": ";
      const auto it = values_.find(name);
      if (it != values_.end()) {
        out += json_number(it->second);
      } else {
        const auto why = why_.find(name);
        out += "null, \"missing\": " +
               json_string(why != why_.end() ? why->second : "not measured");
      }
      out += ", \"unit\": " + json_string(defs[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> why_;
};

// ---- stderr capture ----------------------------------------------------------

/// Redirects this process's stderr (and so that of the node processes it
/// spawns) into a file for the lifetime of the object; `finish` restores
/// it and returns the number of lines written. Keeps a fleet run's
/// per-device warnings off the terminal while counting them.
class StderrCapture {
 public:
  explicit StderrCapture(const std::string& dir)
      : path_(dir + "/perfbench-stderr-" + std::to_string(::getpid()) +
              ".log") {
    std::cerr.flush();
    std::fflush(stderr);
    saved_ = ::dup(STDERR_FILENO);
    const int fd = ::open(path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (saved_ < 0 || fd < 0) {
      throw Error("cannot capture stderr into " + path_);
    }
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
  ~StderrCapture() {
    restore();
    ::unlink(path_.c_str());
  }
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;

  std::size_t finish() {
    restore();
    std::ifstream in(path_, std::ios::binary);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);) ++lines;
    in.close();
    ::unlink(path_.c_str());
    return lines;
  }

 private:
  void restore() {
    if (saved_ < 0) return;
    std::cerr.flush();
    std::fflush(stderr);
    ::dup2(saved_, STDERR_FILENO);
    ::close(saved_);
    saved_ = -1;
  }

  std::string path_;
  int saved_ = -1;
};

// ---- one run -------------------------------------------------------------------

/// What one training call produced, as far as the metrics and checks need.
struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  double best_accuracy = 0.0;
  std::optional<double> time_to_target;
  std::size_t rounds = 0;
  std::uint64_t hash = 0;
  std::optional<std::size_t> local_steps;
  std::size_t evals = 0;
  std::size_t log_lines = 0;
  double bytes_per_round = 0.0;
  // Traced-run artifacts.
  obs::Timeline timeline;         ///< rt device tracks / fleet phase spans
  double span_window_start = 0.0; ///< fleet: recorder clock at the call
  obs::MetricsSnapshot counters;  ///< rt/net telemetry snapshot
  rt::BufferPool::Stats pool;
  core::FleetStats fleet;
};

/// Time on the run's own clock at which the evaluated accuracy reaches
/// `target`, linearly interpolated between the two evaluations that bracket
/// it (evaluations are one sync round apart).
std::optional<double> time_to_target(const fl::MetricsRecorder& m,
                                     double target) {
  const auto& pts = m.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].test_accuracy < target) continue;
    if (i == 0) return pts[0].time;
    const fl::ConvergencePoint& a = pts[i - 1];
    const fl::ConvergencePoint& b = pts[i];
    const double f = (target - a.test_accuracy) /
                     (b.test_accuracy - a.test_accuracy);
    return a.time + f * (b.time - a.time);
  }
  return std::nullopt;
}

void summarize(const fl::SchemeResult& r, const Workload& w, Outcome& out) {
  out.best_accuracy = r.metrics.best_accuracy();
  out.time_to_target = time_to_target(r.metrics, w.target);
  out.rounds = r.sync_rounds;
  out.hash = exp::state_hash(r.final_state);
  out.evals = r.metrics.points().size();
  out.bytes_per_round =
      r.sync_rounds > 0 ? static_cast<double>(r.volume.total_sent()) /
                              static_cast<double>(r.sync_rounds)
                        : 0.0;
}

/// The hadfl_run flag list of a K = 4 workload at `seed`.
std::vector<std::string> run_flags(const Workload& w, std::uint64_t seed) {
  std::vector<std::string> flags = {
      "perfbench",          "--model=" + w.model, "--ratio=3,3,1,1",
      "--scale=" + json_number(w.scale), "--sync-codec=" + w.codec,
      "--seed=" + std::to_string(seed)};
  if (w.epochs > 0) flags.push_back("--epochs=" + std::to_string(w.epochs));
  return flags;
}

ArgParser make_args(const std::vector<std::string>& flags) {
  std::vector<const char*> argv;
  for (const std::string& f : flags) argv.push_back(f.c_str());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

exp::FleetWorldConfig fleet_world_config(const Workload& w,
                                         std::uint64_t seed) {
  exp::FleetWorldConfig fw;
  fw.devices = w.devices;
  fw.ratio = {3, 3, 1, 1};
  fw.momentum = 0.9;
  fw.epochs = w.epochs;
  fw.seed = seed;
  fw.churn.fraction = 0.02;
  return fw;
}

/// hadfl_node path: built beside this binary.
std::string node_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw Error("cannot resolve /proc/self/exe");
  const std::string self(buf, static_cast<std::size_t>(n));
  return self.substr(0, self.find_last_of('/') + 1) + "hadfl_node";
}

/// Builds the world (timed as set-up), then runs the fleet engine (timed as
/// the run) the way `hadfl_run --fleet` does.
Outcome run_fleet_once(const Workload& w, std::uint64_t seed, bool traced,
                       const Options& opt) {
  Outcome out;
  StderrCapture setup_log(opt.scratch_dir);
  auto t0 = Clock::now();
  exp::FleetWorld world(fleet_world_config(w, seed));
  out.setup_s = seconds_since(t0);
  setup_log.finish();

  exp::Scenario& s = world.scenario();
  s.hadfl.strategy.select_count = 2;
  s.hadfl.strategy.t_sync = 1;
  s.hadfl.broadcast_mix_weight = 0.8;
  s.hadfl.policy = core::make_selection_policy("gaussian-quartile");
  core::FleetConfig fleet;
  fleet.cohort = 64;
  fleet.max_rounds = w.rounds;
  obs::SpanRecorder recorder(1);
  if (traced) fleet.recorder = &recorder;
  const fl::SchemeContext ctx = world.context();

  StderrCapture run_log(opt.scratch_dir);
  out.span_window_start = recorder.now_s();
  t0 = Clock::now();
  const core::FleetResult r = core::run_hadfl_fleet(ctx, s.hadfl, fleet);
  out.run_s = seconds_since(t0);
  out.log_lines = run_log.finish();
  summarize(r.scheme, w, out);
  out.fleet = r.stats;
  if (traced) out.timeline = recorder.drain();
  return out;
}

/// Builds the run setup (timed as set-up), then makes the workload's one
/// training call (timed as the run).
Outcome run_once(const Workload& w, std::uint64_t seed, bool traced,
                 const Options& opt) {
  if (w.backend == Backend::kFleet) return run_fleet_once(w, seed, traced, opt);
  Outcome out;
  const ArgParser args = make_args(run_flags(w, seed));
  StderrCapture setup_log(opt.scratch_dir);
  auto t0 = Clock::now();
  exp::RunSetup setup = exp::make_run_setup(args);
  out.setup_s = seconds_since(t0);
  setup_log.finish();
  const fl::SchemeContext ctx = setup.context();
  const exp::Scenario& s = setup.scenario;

  StderrCapture run_log(opt.scratch_dir);
  fl::SchemeResult scheme;
  if (w.backend == Backend::kSim) {
    sim::TraceRecorder trace;
    core::HadflConfig config = s.hadfl;
    if (traced) config.trace = &trace;
    t0 = Clock::now();
    scheme = core::run_hadfl(ctx, config).scheme;
    out.run_s = seconds_since(t0);
  } else {
    rt::RtConfig rt_config = exp::make_rt_config(args, s);
    rt_config.telemetry = traced;
    rt::RtResult r;
    if (w.backend == Backend::kRt) {
      t0 = Clock::now();
      r = rt::run_hadfl_rt(ctx, rt_config);
      out.run_s = seconds_since(t0);
    } else {
      net::NetRunConfig net_config;
      net_config.rt = rt_config;
      net_config.kind = net::TransportKind::kTcp;
      net_config.node_binary = node_binary();
      net_config.node_args = exp::scenario_forward_args(args);
      t0 = Clock::now();
      r = net::run_hadfl_net(ctx, net_config);
      out.run_s = seconds_since(t0);
    }
    scheme = std::move(r.scheme);
    out.timeline = std::move(r.timeline);
    out.counters = std::move(r.metrics);
    out.pool = r.pool_stats;
  }
  out.log_lines = run_log.finish();
  summarize(scheme, w, out);
  if (!scheme.metrics.empty()) {
    // The epoch counter advances by executed steps x batch / train size.
    out.local_steps = static_cast<std::size_t>(std::llround(
        scheme.metrics.last().epoch * static_cast<double>(ctx.train.size()) /
        static_cast<double>(ctx.config.device_batch_size)));
  }
  return out;
}

/// Set-up only (timed, tear-down excluded), for extra setup_s samples.
double setup_once(const Workload& w, std::uint64_t seed, const Options& opt) {
  const StderrCapture log(opt.scratch_dir);
  const auto t0 = Clock::now();
  if (w.backend == Backend::kFleet) {
    const exp::FleetWorld world(fleet_world_config(w, seed));
    return seconds_since(t0);
  }
  const exp::RunSetup setup = exp::make_run_setup(make_args(run_flags(w, seed)));
  return seconds_since(t0);
}

// ---- checks ------------------------------------------------------------------

struct Reference {
  std::uint64_t hash = 0;
  std::size_t rounds = 0;
};

/// The sim engine's result on the same inputs, computed outside any timed
/// region: rt and net must reproduce its final state bit-for-bit.
Reference sim_reference(const Workload& w, std::uint64_t seed,
                        const Options& opt) {
  const StderrCapture log(opt.scratch_dir);
  exp::RunSetup setup = exp::make_run_setup(make_args(run_flags(w, seed)));
  const core::HadflResult r =
      core::run_hadfl(setup.context(), setup.scenario.hadfl);
  Reference ref{exp::state_hash(r.scheme.final_state), r.scheme.sync_rounds};
  if (opt.wrong_ref_hash) ref.hash ^= 1;
  return ref;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<std::string> check(const Workload& w, const Outcome& o,
                               const Reference* ref) {
  std::vector<std::string> bad;
  if (w.rounds > 0 && o.rounds != w.rounds) {
    bad.push_back("sync rounds " + std::to_string(o.rounds) + " != " +
                  std::to_string(w.rounds));
  }
  if (ref != nullptr) {
    if (o.hash != ref->hash) {
      bad.push_back("state hash " + hex(o.hash) + " != sim reference " +
                    hex(ref->hash));
    }
    if (o.rounds != ref->rounds) {
      bad.push_back("sync rounds " + std::to_string(o.rounds) +
                    " != sim reference " + std::to_string(ref->rounds));
    }
  }
  if (o.best_accuracy < w.floor) {
    bad.push_back("best accuracy " + json_number(o.best_accuracy) +
                  " below floor " + json_number(w.floor));
  }
  if (!o.time_to_target) {
    bad.push_back("accuracy target " + json_number(w.target) +
                  " never reached");
  }
  return bad;
}

/// A fleet run must reproduce an earlier run on the same seed exactly.
void fleet_repeats(const Outcome& o, const Outcome& earlier,
                   std::vector<std::string>& bad) {
  if (o.hash != earlier.hash ||
      o.fleet.train_episodes != earlier.fleet.train_episodes) {
    bad.push_back("hash/train_episodes " + hex(o.hash) + "/" +
                  std::to_string(o.fleet.train_episodes) +
                  " differ from the same seed's earlier " + hex(earlier.hash) +
                  "/" + std::to_string(earlier.fleet.train_episodes));
  }
}

/// Runs `op`, counting it attempted, and failed when it throws or reports
/// a failed check; diagnostics go to stderr, the run carries on.
class OpLedger {
 public:
  template <class Fn>
  void run(const std::string& what, Fn&& op) {
    ++attempted_;
    std::vector<std::string> bad;
    try {
      bad = op();
    } catch (const std::exception& e) {
      bad.push_back(std::string("threw: ") + e.what());
    }
    for (const std::string& b : bad) {
      std::cerr << "perfbench: FAIL " << what << ": " << b << "\n";
    }
    if (!bad.empty()) ++failed_;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- traced-run analysis --------------------------------------------------------

/// Wall-clock share tolerance for the span reconciliation: per track, spans
/// may overlap, or fall outside the timed call, by at most this share of
/// the traced run_s.
constexpr double kReconcileTolerance = 0.02;

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_s = 0.0, cur_e = -1e300;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

/// Checks that `spans` (one track) lie inside [lo, hi] and do not overlap,
/// within the tolerance, so their per-kind sums can add up to the window.
void reconcile_track(const std::vector<obs::Span>& spans, double lo,
                     double hi, const std::string& track,
                     std::vector<std::string>& bad) {
  const double tol = kReconcileTolerance * (hi - lo);
  double sum = 0.0;
  std::vector<std::pair<double, double>> iv;
  for (const obs::Span& s : spans) {
    if (s.start < lo - tol || s.end > hi + tol) {
      bad.push_back(track + ": span '" + s.label + "' outside the timed call");
      return;
    }
    sum += s.end - s.start;
    iv.emplace_back(s.start, s.end);
  }
  if (sum - union_length(iv) > tol) {
    bad.push_back(track + ": spans overlap by " +
                  json_number(sum - union_length(iv)) + " s");
  }
}

/// rt device tracks → shares of K x traced run_s, plus reconciliation.
std::vector<std::string> rt_shares(const Outcome& o, std::size_t k,
                                   Report& report) {
  std::vector<std::string> bad;
  std::vector<std::vector<obs::Span>> tracks(k);
  for (const obs::Span& s : o.timeline.spans()) {
    if (s.device < k) tracks[s.device].push_back(s);
  }
  double compute = 0.0, sync = 0.0, broadcast = 0.0, stall = 0.0;
  for (std::size_t d = 0; d < k; ++d) {
    reconcile_track(tracks[d], 0.0, o.run_s, "rt device " + std::to_string(d),
                    bad);
    for (const obs::Span& s : tracks[d]) {
      const double len = s.end - s.start;
      switch (s.kind) {
        case obs::SpanKind::kCompute: compute += len; break;
        case obs::SpanKind::kSync: sync += len; break;
        case obs::SpanKind::kBroadcast: broadcast += len; break;
        default: stall += len; break;  // stall, idle, repair
      }
    }
  }
  const double window = static_cast<double>(k) * o.run_s;
  report.set("rt.compute_share", compute / window);
  report.set("rt.sync_share", sync / window);
  report.set("rt.broadcast_share", broadcast / window);
  report.set("rt.stall_share", stall / window);
  const double untraced = 1.0 - (compute + sync + broadcast + stall) / window;
  report.set("rt.untraced_share", untraced);
  if (untraced < -kReconcileTolerance) {
    bad.push_back("rt shares exceed the traced run by " +
                  json_number(-untraced));
  }
  return bad;
}

/// Fleet phase spans → seconds per phase, plus reconciliation.
std::vector<std::string> fleet_phases(const Outcome& o, Report& report) {
  std::vector<std::string> bad;
  const double lo = o.span_window_start;
  reconcile_track(o.timeline.spans(), lo, lo + o.run_s, "fleet phases", bad);
  std::map<std::string, double> phase = {
      {"clock", 0.0}, {"select", 0.0}, {"train", 0.0}, {"fold", 0.0}};
  double traced = 0.0;
  for (const obs::Span& s : o.timeline.spans()) {
    phase[s.label] += s.end - s.start;
    traced += s.end - s.start;
  }
  for (const char* p : {"clock", "select", "train", "fold"}) {
    report.set(std::string("core.fleet.") + p + "_s", phase[p]);
  }
  const double untraced = o.run_s - traced;
  report.set("core.fleet.untraced_s", untraced);
  if (untraced < -kReconcileTolerance * o.run_s) {
    bad.push_back("fleet phases exceed the traced run by " +
                  json_number(-untraced) + " s");
  }
  return bad;
}

/// Quantile of a telemetry histogram, linear within the bucket and clamped
/// to the observed min/max.
std::optional<double> histogram_quantile(const obs::HistogramSample& h,
                                         double q) {
  if (h.count == 0) return std::nullopt;
  const double rank = q * static_cast<double>(h.count);
  double cum = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0.0 && cum + n >= rank) {
      const double lo = std::max(h.min, i == 0 ? h.min : h.bounds[i - 1]);
      const double hi =
          std::min(h.max, i < h.bounds.size() ? h.bounds[i] : h.max);
      return lo + (hi - lo) * (rank - cum) / n;
    }
    cum += n;
  }
  return h.max;
}

void set_latency(const Outcome& o, const std::string& prefix, Report& report) {
  const obs::HistogramSample* h = o.counters.find_histogram("sync.latency_s");
  for (const auto& [suffix, q] : {std::pair<const char*, double>{".p50", 0.5},
                                  {".p90", 0.9}}) {
    const std::optional<double> v =
        h != nullptr ? histogram_quantile(*h, q) : std::nullopt;
    if (v) {
      report.set(prefix + suffix, 1e3 * *v);
    } else {
      report.missing(prefix + suffix, "no sync.latency_s observations");
    }
  }
}

double counter(const obs::MetricsSnapshot& m, const std::string& name) {
  const obs::CounterSample* c = m.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value) : 0.0;
}

// ---- header --------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string header_json(const Options& o) {
  std::ostringstream h;
  h << "{\"header\": {\"workload\": " << json_string(o.workload)
    << ", \"seed\": " << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"reduced\": " << (o.reduced ? "true" : "false")
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << json_string(cpu_model())
    << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"git_sha\": " << json_string(o.git_sha)
    << ", \"source_digest\": " << json_string(o.source_digest)
    << ", \"compute_threads\": " << default_compute_threads() << "}}";
  return h.str();
}

double peak_rss_mb(bool with_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (with_children) {
    // The largest node process the net runner spawned and reaped.
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

// ---- the two modes ----------------------------------------------------------------

/// --trace 0: the end-to-end metrics, medians over the repetitions.
void end_to_end(const Workload& w, const Options& opt, OpLedger& ledger,
                Report& report) {
  std::vector<double> setup, run, ttt, best;
  const std::size_t reps = repetitions(w, opt);
  // rt and net are checked against the sim engine. All references are
  // computed before the first timed run, so the timed runs follow each
  // other back to back.
  std::vector<std::optional<Reference>> refs(reps);
  std::vector<std::string> ref_errors(reps);
  if (w.backend == Backend::kRt || w.backend == Backend::kNet) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      try {
        refs[rep] = sim_reference(w, run_seed(opt.seed, rep), opt);
      } catch (const std::exception& e) {
        ref_errors[rep] = std::string("sim reference threw: ") + e.what();
      }
    }
  }
  // The fleet has no second engine to check against; it repeats its first
  // seed after the repetitions and must reproduce that run exactly.
  std::optional<Outcome> first;
  const std::size_t runs = reps + (w.backend == Backend::kFleet ? 1 : 0);
  for (std::size_t rep = 0; rep < runs; ++rep) {
    const bool repeat = rep == reps;
    const std::uint64_t seed = run_seed(opt.seed, repeat ? 0 : rep);
    ledger.run(w.name + " run " + std::to_string(rep), [&] {
      if (!repeat && !ref_errors[rep].empty()) {
        return std::vector<std::string>{ref_errors[rep]};
      }
      const std::optional<Reference>& ref =
          repeat ? std::optional<Reference>() : refs[rep];
      // Extra set-up samples, spread over the whole run rather than taken
      // in one burst: the box's speed drifts over seconds.
      for (std::size_t i = 0; i < w.setup_extra; ++i) {
        setup.push_back(setup_once(w, seed, opt));
      }
      const Outcome o = run_once(w, seed, false, opt);
      setup.push_back(o.setup_s);
      run.push_back(o.run_s);
      if (!repeat) {
        best.push_back(o.best_accuracy);
        if (o.time_to_target) ttt.push_back(*o.time_to_target);
      }
      std::cerr << "perfbench: " << w.name << " run " << rep << " seed "
                << seed << ": setup_s " << o.setup_s << " run_s " << o.run_s
                << " best_accuracy " << o.best_accuracy << " ttt "
                << o.time_to_target.value_or(-1.0) << " log_lines "
                << o.log_lines << "\n";
      std::vector<std::string> bad = check(w, o, ref ? &*ref : nullptr);
      if (w.backend == Backend::kFleet && rep == 0) {
        first = o;
        if (opt.wrong_ref_hash) first->hash ^= 1;
      }
      if (repeat && first) fleet_repeats(o, *first, bad);
      return bad;
    });
  }
  const auto put = [&](const char* name, const std::vector<double>& v) {
    if (v.empty()) {
      report.missing(name, "no run completed");
    } else {
      report.set(name, median(v));
    }
  };
  put("setup_s", setup);
  put("run_s", run);
  put("time_to_target_s", ttt);
  put("best_accuracy", best);
  report.set("peak_rss_mb", peak_rss_mb(w.backend == Backend::kNet));
}

/// --trace 1: one untraced and one traced run on the same seed, the layer
/// numbers they return, then the layer probes.
void per_layer(const Workload& w, const Options& opt, OpLedger& ledger,
               Report& report) {
  const std::uint64_t seed = run_seed(opt.seed, 0);
  const std::size_t k = 4;
  std::optional<Reference> ref;
  std::optional<Outcome> plain, traced;
  ledger.run(w.name + " untraced run", [&] {
    if (w.backend == Backend::kRt || w.backend == Backend::kNet) {
      ref = sim_reference(w, seed, opt);
    }
    plain = run_once(w, seed, false, opt);
    return check(w, *plain, ref ? &*ref : nullptr);
  });
  ledger.run(w.name + " traced run", [&] {
    traced = run_once(w, seed, true, opt);
    std::vector<std::string> bad = check(w, *traced, ref ? &*ref : nullptr);
    if (plain && w.backend == Backend::kFleet) {
      fleet_repeats(*traced, *plain, bad);
    } else if (plain && traced->hash != plain->hash) {
      bad.push_back("traced state hash " + hex(traced->hash) +
                    " != untraced " + hex(plain->hash));
    }
    std::vector<std::string> more;
    if (w.backend == Backend::kRt) more = rt_shares(*traced, k, report);
    if (w.backend == Backend::kFleet) more = fleet_phases(*traced, report);
    bad.insert(bad.end(), more.begin(), more.end());
    return bad;
  });

  const char* const no_rt = w.backend == Backend::kSim
      ? "the sim engine's TraceRecorder keeps virtual time only"
      : "no rt::run_hadfl_rt run in this workload";
  for (const char* name :
       {"rt.compute_share", "rt.sync_share", "rt.broadcast_share",
        "rt.stall_share", "rt.untraced_share", "rt.sync_latency_ms.p50",
        "rt.sync_latency_ms.p90", "rt.pool_miss_ratio"}) {
    if (w.backend != Backend::kRt || !traced) report.missing(name, no_rt);
  }
  for (const char* name :
       {"net.frames_per_round", "net.bytes_per_round",
        "net.sync_latency_ms.p50", "net.sync_latency_ms.p90",
        "net.dial_retries"}) {
    if (w.backend != Backend::kNet || !traced) {
      report.missing(name, "no net::run_hadfl_net run in this workload");
    }
  }
  report.missing("net.device_span_share",
                 "device spans stay in the hadfl_node processes");
  for (const char* name :
       {"core.fleet.clock_s", "core.fleet.select_s", "core.fleet.train_s",
        "core.fleet.fold_s", "core.fleet.untraced_s",
        "core.fleet.train_episodes", "core.fleet.peak_state_mb",
        "core.fleet.peak_velocity_mb"}) {
    if (w.backend != Backend::kFleet || !traced) {
      report.missing(name, "no fleet-engine run in this workload");
    }
  }

  if (plain && traced) {
    report.set("obs.trace_overhead_share",
               (traced->run_s - plain->run_s) / plain->run_s);
    report.set("common.log_lines", static_cast<double>(plain->log_lines));
    report.set("comm.sync_bytes_per_round", plain->bytes_per_round);
    report.set("core.evals", static_cast<double>(plain->evals));
    // Exact training work from the result: local steps on the K = 4
    // engines, device-training episodes on the fleet.
    if (plain->local_steps) {
      report.set("core.local_steps", static_cast<double>(*plain->local_steps));
      report.set("core.train_work", static_cast<double>(*plain->local_steps));
    } else {
      report.missing("core.local_steps",
                     "the fleet result counts training episodes, not steps");
      if (w.backend == Backend::kFleet) {
        report.set("core.train_work",
                   static_cast<double>(plain->fleet.train_episodes));
      }
    }
    if (w.backend == Backend::kRt) {
      set_latency(*traced, "rt.sync_latency_ms", report);
      const double lookups =
          static_cast<double>(traced->pool.hits + traced->pool.misses);
      if (lookups > 0) {
        report.set("rt.pool_miss_ratio",
                   static_cast<double>(traced->pool.misses) / lookups);
      } else {
        report.missing("rt.pool_miss_ratio", "no buffer-pool lookups");
      }
    }
    if (w.backend == Backend::kNet) {
      const obs::MetricsSnapshot& m = traced->counters;
      const double rounds = static_cast<double>(traced->rounds);
      report.set("net.frames_per_round",
                 (counter(m, "net.frames_sent") +
                  counter(m, "net.frames_received")) / rounds);
      report.set("net.bytes_per_round",
                 (counter(m, "net.bytes_sent") +
                  counter(m, "net.bytes_received")) / rounds);
      report.set("net.dial_retries", counter(m, "net.dial_retries"));
      set_latency(*traced, "net.sync_latency_ms", report);
    }
    if (w.backend == Backend::kFleet) {
      const double mb = 1024.0 * 1024.0;
      report.set("core.fleet.train_episodes",
                 static_cast<double>(traced->fleet.train_episodes));
      report.set("core.fleet.peak_state_mb",
                 static_cast<double>(traced->fleet.peak_state_bytes) / mb);
      report.set("core.fleet.peak_velocity_mb",
                 static_cast<double>(traced->fleet.peak_velocity_bytes) / mb);
    }
  }

  // Layer probes: after the runs (warm process), one at a time, never
  // overlapping a timed run. They use the workload's own model and data.
  std::unique_ptr<exp::RunSetup> setup;
  std::unique_ptr<exp::FleetWorld> world;
  std::optional<fl::SchemeContext> ctx;
  if (w.backend == Backend::kFleet) {
    // A four-device world has the fleet's model, data and device-0 shard
    // without the 10^6-device tables the probes do not touch.
    exp::FleetWorldConfig small = fleet_world_config(w, seed);
    small.devices = 4;
    world = std::make_unique<exp::FleetWorld>(small);
    ctx.emplace(world->context());
  } else {
    setup = std::make_unique<exp::RunSetup>(
        exp::make_run_setup(make_args(run_flags(w, seed))));
    ctx.emplace(setup->context());
  }
  const exp::Scenario resnet =
      exp::paper_scenario(nn::Architecture::kResNet18Lite, {3, 3, 1, 1});
  report.set("tensor.gemm_gflops",
             perfbench::probe_gemm_gflops(resnet.model,
                                          resnet.train.device_batch_size));
  const perfbench::NnTimes nn = perfbench::probe_nn(*ctx);
  report.set("nn.forward_ms", nn.forward_ms);
  report.set("nn.backward_ms", nn.backward_ms);
  report.set("nn.update_ms", nn.update_ms);
  report.set("nn.step_ms", nn.step_ms);
  report.set("nn.eval_ms", nn.eval_ms);
  report.set("data.batch_us", nn.batch_us);
  if (plain && plain->local_steps) {
    const double cores = static_cast<double>(
        std::min<std::size_t>(k, std::thread::hardware_concurrency()));
    report.set("common.parallel_eff",
               static_cast<double>(*plain->local_steps) * nn.step_ms * 1e-3 /
                   (plain->run_s * cores));
  } else {
    report.missing("common.parallel_eff",
                   "needs core.local_steps (the fleet counts episodes, not steps)");
  }

  Rng state_rng(seed);
  const std::unique_ptr<nn::Sequential> model = ctx->make_model(state_rng);
  const std::span<const float> state = nn::state_view(*model);
  const perfbench::CodecRates codec =
      perfbench::probe_codec(state, core::HadflConfig{}.top_k_ratio);
  report.set("comm.int8_encode_gbps", codec.int8_encode_gbps);
  report.set("comm.int8_decode_gbps", codec.int8_decode_gbps);
  report.set("comm.topk_encode_gbps", codec.topk_encode_gbps);

  Rng resnet_rng(seed);
  const std::size_t resnet_elems =
      nn::state_view(*nn::make_model(nn::Architecture::kResNet18Lite,
                                     resnet.model, resnet_rng))
          .size();
  ledger.run("rt ring probe", [&] {
    const perfbench::RingProbe p = perfbench::probe_inproc_ring(resnet_elems);
    report.set("rt.ring_ms", p.ms);
    return p.exact ? std::vector<std::string>{}
                   : std::vector<std::string>{"aggregate not bit-identical"};
  });
  const exp::Scenario mlp =
      exp::paper_scenario(nn::Architecture::kMlp, {3, 3, 1, 1}, 0.1);
  Rng mlp_rng(seed);
  const std::size_t mlp_elems =
      nn::state_view(*nn::make_model(nn::Architecture::kMlp, mlp.model,
                                     mlp_rng))
          .size();
  ledger.run("net ring probe", [&] {
    const perfbench::RingProbe p = perfbench::probe_socket_ring(mlp_elems);
    report.set("net.ring_ms", p.ms);
    return p.exact ? std::vector<std::string>{}
                   : std::vector<std::string>{"aggregate not bit-identical"};
  });
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  std::optional<Workload> workload;
  for (const Workload& w : workloads()) {
    if (w.name == opt.workload) workload = opt.reduced ? reduced(w) : w;
  }
  if (!workload) {
    std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
    return 2;
  }
  std::cout << header_json(opt) << std::endl;

  OpLedger ledger;
  Report report;
  try {
    if (opt.trace) {
      per_layer(*workload, opt, ledger, report);
    } else {
      end_to_end(*workload, opt, ledger, report);
    }
  } catch (const std::exception& e) {
    // A probe failure outside any ledger op: count it, keep the report.
    ledger.run("layer probes", [&]() -> std::vector<std::string> {
      return {e.what()};
    });
  }
  if (opt.trace) {
    std::cout << "{\"layer_detail\": " << report.json(kLayerDetail) << "}"
              << std::endl;
  }
  std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed() << ", \"metrics\": "
            << report.json(opt.trace ? kPerLayer : kEndToEnd) << "}"
            << std::endl;
  return 0;
}
