// One run of one workload of the end-to-end benchmark (see README.md).
//
// Builds ag::TinyGpt, opens RatelTrainer::Create on a fresh striped
// store, and drives TrainStep in a closed loop from this thread with one
// client. Batches come from Rng(seed). Set-up (model build, Create and
// the warmup steps) is repeated kSetups times and the last trainer is
// kept for the measured window, which is bracketed by a full drain so
// the window's byte counts repeat exactly.
//
// With --trace 1 the run also reads every public stats surface after
// each measured step, times an autograd probe, derives the per-layer
// metrics and writes the bench-side spans as a Chrome trace.
//
// Prints one JSON document on stdout: context (host fingerprint and the
// effective configuration), the correctness checks, and the metrics.
// perfbench/run.py builds this binary and turns that document into the
// benchmark's result line.
//
// Usage: ratel_perfbench --workload <name> --seed <n> --seconds <s>
//            --trace <0|1> --store-root <dir> [--trace-out <file>]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/transformer.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "runtime/compute_pool.h"
#include "runtime/ratel_trainer.h"
#include "simd/simd.h"

extern char** environ;

namespace {

using namespace ratel;
using Clock = std::chrono::steady_clock;

#ifndef RATEL_PERFBENCH_BUILD_TYPE
#define RATEL_PERFBENCH_BUILD_TYPE "unknown"
#endif

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Warmup steps per set-up: fixed, so the loss trajectory (and with it
// final_loss) is a pure function of the seed. They cover the buffer
// pool's initial growth; later growth is reported, see README.md.
constexpr int kWarmupSteps = 6;
// Fewest measured steps: step_ms_p90 then has ten samples beyond it.
constexpr int64_t kMinSteps = 100;
// Compute-pool width, fixed so runs do not depend on the host's
// RATEL_THREADS default (hardware concurrency).
constexpr int kComputeThreads = 2;
// Repetitions of the autograd probe (traced runs); the first is
// discarded as warmup.
constexpr int kProbeReps = 11;

const FlowClass kReportedFlows[] = {
    FlowClass::kParamFetch, FlowClass::kGradState,
    FlowClass::kActivationSpill, FlowClass::kDeferredState};

struct Workload {
  std::string name;
  ag::TinyGptConfig model;
  int64_t batch = 0;
  TrainerOptions options;
  // Steps per second this workload ran at when the benchmark was set
  // up. The measured window is a fixed step count derived from it and
  // --seconds (never from the current speed), so final_loss is a pure
  // function of seed and seconds.
  double nominal_steps_per_s = 0.0;
};

Result<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  w.model.vocab_size = 64;
  w.model.num_heads = 4;
  w.model.num_layers = 4;
  w.model.hidden_dim = 48;
  w.model.seq_len = 64;
  w.batch = 2;
  TrainerOptions& o = w.options;
  o.grad_mode = GradientOffloadMode::kOptimizedActive;
  o.num_stripes = 4;
  o.stripe_chunk_bytes = 1 << 20;
  if (name == "ssd_holistic") {
    // All three traffic legs go through the slow store.
    o.host_cache_bytes = 0;
    o.ssd_read_bandwidth = 40e6;
    o.ssd_write_bandwidth = 40e6;
    o.spill_activations = true;
    o.codec.spec(FlowClass::kActivationSpill) = "fp16";
    w.nominal_steps_per_s = 5.4;
  } else if (name == "async_dram") {
    // The DRAM tier serves every read; only writes reach the store.
    o.host_cache_bytes = int64_t{64} << 20;
    o.ssd_write_bandwidth = 40e6;
    o.async_optimizer = true;
    o.async_hot_fraction = 0.1;
    o.async_partition_chunk = 512;
    o.async_background_threads = 4;
    o.replan.enabled = true;
    w.nominal_steps_per_s = 18.5;
  } else if (name == "compute_resident") {
    // Autograd and the SIMD kernels dominate; I/O does almost nothing.
    // Run by hand for kernel work; not in BENCHMARK.json, because its
    // wall-clock figures follow the host's CPU steal (README.md).
    w.model.hidden_dim = 128;
    w.model.seq_len = 128;
    w.batch = 4;
    o.host_cache_bytes = int64_t{256} << 20;
    w.nominal_steps_per_s = 9.0;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Bench-side spans (Chrome trace "X" events). ----

struct Span {
  std::string name;
  std::string layer;  // Chrome "cat": the module the span times
  double start_s = 0.0;
  double dur_s = 0.0;
  int64_t step = -1;      // shared by a measured step and its children
  bool derived = false;   // laid out from StepStats, not timed here
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  void Add(std::string name, std::string layer, Clock::time_point start,
           Clock::time_point end, int64_t step = -1) {
    spans_.push_back({std::move(name), std::move(layer),
                      Seconds(origin_, start), Seconds(start, end), step,
                      false});
  }
  void AddDerived(std::string name, std::string layer, double start_s,
                  double dur_s, int64_t step) {
    spans_.push_back(
        {std::move(name), std::move(layer), start_s, dur_s, step, true});
  }
  // A sample of a cumulative counter, drawn by Chrome as a track.
  void AddCounter(std::string name, Clock::time_point t, double value) {
    counters_.push_back({std::move(name), Seconds(origin_, t), value});
  }
  double Offset(Clock::time_point t) const { return Seconds(origin_, t); }

  Status WriteChromeTrace(const std::string& path) const {
    JsonWriter w;
    w.BeginObject();
    w.Key("traceEvents");
    w.BeginArray();
    for (const Span& s : spans_) {
      w.BeginObject();
      w.KeyValue("name", s.name);
      w.KeyValue("cat", s.layer);
      w.KeyValue("ph", std::string("X"));
      w.KeyValue("ts", s.start_s * 1e6);
      w.KeyValue("dur", s.dur_s * 1e6);
      w.KeyValue("pid", int64_t{1});
      w.KeyValue("tid", int64_t{s.derived ? 2 : 1});
      w.Key("args");
      w.BeginObject();
      if (s.step >= 0) w.KeyValue("step", s.step);
      w.Key("derived");
      w.Bool(s.derived);
      w.EndObject();
      w.EndObject();
    }
    for (const Counter& c : counters_) {
      w.BeginObject();
      w.KeyValue("name", c.name);
      w.KeyValue("ph", std::string("C"));
      w.KeyValue("ts", c.time_s * 1e6);
      w.KeyValue("pid", int64_t{1});
      w.Key("args");
      w.BeginObject();
      w.KeyValue("value", c.value);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream out(path);
    out << w.TakeString() << "\n";
    if (!out.good()) return Status::IoError("cannot write " + path);
    return Status::Ok();
  }

 private:
  struct Counter {
    std::string name;
    double time_s = 0.0;
    double value = 0.0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

// ---- Inputs. ----

class BatchStream {
 public:
  BatchStream(uint64_t seed, const Workload& w)
      : rng_(seed),
        vocab_(w.model.vocab_size),
        ids_(static_cast<size_t>(w.batch * w.model.seq_len)),
        targets_(ids_.size()) {}

  void Next() {
    for (size_t i = 0; i < ids_.size(); ++i) {
      ids_[i] = static_cast<int64_t>(rng_.NextBelow(vocab_));
      targets_[i] = (3 * ids_[i] + 1) % vocab_;
    }
  }
  const std::vector<int64_t>& ids() const { return ids_; }
  const std::vector<int64_t>& targets() const { return targets_; }

 private:
  Rng rng_;
  int64_t vocab_;
  std::vector<int64_t> ids_;
  std::vector<int64_t> targets_;
};

// A store directory under the run's store root, removed on scope exit.
class StoreDir {
 public:
  explicit StoreDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~StoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  StoreDir(const StoreDir&) = delete;
  StoreDir& operator=(const StoreDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One set-up: model, trainer, and the batch stream that continues into
// the measured window. Members are destroyed bottom-up, so the trainer
// closes its store before the directory is removed.
struct Session {
  std::unique_ptr<StoreDir> store;
  std::unique_ptr<ag::TinyGpt> model;
  std::unique_ptr<RatelTrainer> trainer;
  std::unique_ptr<BatchStream> batches;
  std::vector<float> warmup_losses;
  double setup_s = 0.0;
};

struct Check {
  std::string name;
  bool ok = true;
  // False for a claim the program is known not to meet (README.md):
  // reported with every result, but it does not fail the run.
  bool fatal = true;
  std::string detail;
};

class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    Add({name, ok, true, detail});
  }
  void Report(const std::string& name, bool ok, const std::string& detail) {
    Add({name, ok, false, detail});
  }
  bool all_ok() const { return failed() == 0; }
  int64_t failed() const {
    return std::count_if(checks_.begin(), checks_.end(),
                         [](const Check& c) { return c.fatal && !c.ok; });
  }
  const std::vector<Check>& all() const { return checks_; }

 private:
  void Add(Check c) {
    if (!c.ok) {
      std::cerr << (c.fatal ? "CHECK FAILED " : "EXPECTATION NOT MET ")
                << c.name << ": " << c.detail << "\n";
    }
    checks_.push_back(std::move(c));
  }

  std::vector<Check> checks_;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string store_root;
  std::string trace_out;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value: " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--store-root") {
      a.store_root = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      return Status::InvalidArgument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      a.store_root.empty()) {
    return Status::InvalidArgument(
        "need --workload, --seed, --seconds > 0 and --store-root");
  }
  return a;
}

// RatelTrainer::Create and the compute/SIMD layers silently overlay
// RATEL_* environment knobs onto the configured options; a run must
// measure exactly the workload written here.
std::vector<std::string> RatelEnvironment() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RATEL_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      found.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  return found;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

void WriteOptions(JsonWriter& w, const Workload& wl) {
  const TrainerOptions& o = wl.options;
  w.BeginObject();
  w.KeyValue("vocab_size", wl.model.vocab_size);
  w.KeyValue("seq_len", wl.model.seq_len);
  w.KeyValue("hidden_dim", wl.model.hidden_dim);
  w.KeyValue("num_heads", wl.model.num_heads);
  w.KeyValue("num_layers", wl.model.num_layers);
  w.KeyValue("batch", wl.batch);
  w.KeyValue("grad_mode", static_cast<int64_t>(o.grad_mode));
  w.KeyValue("lr", o.adam.lr);
  w.KeyValue("num_stripes", static_cast<int64_t>(o.num_stripes));
  w.KeyValue("stripe_chunk_bytes", o.stripe_chunk_bytes);
  w.KeyValue("ssd_read_bandwidth", o.ssd_read_bandwidth);
  w.KeyValue("ssd_write_bandwidth", o.ssd_write_bandwidth);
  w.KeyValue("pipeline_threads", static_cast<int64_t>(o.pipeline_threads));
  w.KeyValue("io_workers", static_cast<int64_t>(o.io_workers));
  w.KeyValue("background_aging_limit",
             static_cast<int64_t>(o.background_aging_limit));
  w.KeyValue("host_cache_bytes", o.host_cache_bytes);
  w.Key("spill_activations");
  w.Bool(o.spill_activations);
  w.KeyValue("grad_accumulation_steps",
             static_cast<int64_t>(o.grad_accumulation_steps));
  w.KeyValue("loss_scale", static_cast<double>(o.loss_scale));
  w.Key("async_optimizer");
  w.Bool(o.async_optimizer);
  w.KeyValue("async_hot_fraction", o.async_hot_fraction);
  w.KeyValue("async_partition_chunk", o.async_partition_chunk);
  w.KeyValue("async_background_threads",
             static_cast<int64_t>(o.async_background_threads));
  w.Key("codec");
  w.BeginObject();
  for (FlowClass f : kReportedFlows) {
    w.KeyValue(FlowClassName(f), o.codec.spec(f));
  }
  w.EndObject();
  w.Key("replan_enabled");
  w.Bool(o.replan.enabled);
  w.KeyValue("replan_threshold", o.replan.deviation_threshold);
  w.KeyValue("replan_hysteresis",
             static_cast<int64_t>(o.replan.hysteresis_windows));
  w.KeyValue("replan_cooldown",
             static_cast<int64_t>(o.replan.cooldown_windows));
  w.KeyValue("replan_ewma_alpha", o.replan.ewma_alpha);
  w.Key("fault_injection");
  w.Bool(o.fault.enabled());
  w.EndObject();
}

int64_t AffinityCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

Result<std::unique_ptr<Session>> SetUp(const Workload& wl, const Args& args,
                                       int index, SpanRecorder* spans) {
  auto session = std::make_unique<Session>();
  Session& s = *session;
  const Clock::time_point t0 = Clock::now();
  s.store = std::make_unique<StoreDir>(args.store_root + "/store-" +
                                       std::to_string(index));
  s.model = std::make_unique<ag::TinyGpt>(wl.model, args.seed);
  const Clock::time_point t_model = Clock::now();
  TrainerOptions opts = wl.options;
  opts.store_dir = s.store->path();
  RATEL_ASSIGN_OR_RETURN(s.trainer, RatelTrainer::Create(s.model.get(), opts));
  const Clock::time_point t_create = Clock::now();
  if (spans != nullptr) {
    spans->Add("model_build", "autograd", t0, t_model);
    spans->Add("create", "runtime", t_model, t_create);
  }
  s.batches = std::make_unique<BatchStream>(args.seed, wl);
  for (int i = 0; i < kWarmupSteps; ++i) {
    s.batches->Next();
    const Clock::time_point a = Clock::now();
    RATEL_ASSIGN_OR_RETURN(float loss,
                           s.trainer->TrainStep(s.batches->ids(),
                                                s.batches->targets(),
                                                wl.batch));
    if (spans != nullptr) {
      spans->Add("warmup_step", "runtime", a, Clock::now(), i);
    }
    s.warmup_losses.push_back(loss);
  }
  s.setup_s = Seconds(t0, Clock::now());
  return session;
}

// Every background epoch and store write resolved: the measured window
// starts and ends on an idle engine, so its byte counts repeat exactly.
Status Quiesce(RatelTrainer& t) {
  RATEL_RETURN_IF_ERROR(t.optimizer().DrainAll());
  return t.engine().Drain();
}

struct Snapshot {
  TransferStats xfer;
  AsyncUpdateEngine::Stats optim;
  BufferPool::Stats pool;
};

Snapshot Take(RatelTrainer& t) {
  return {t.transfer_stats(), t.optimizer().stats(),
          t.engine().buffer_pool().stats()};
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

void WriteMetrics(JsonWriter& w, const std::string& key,
                  const Metrics& metrics) {
  w.Key(key);
  w.BeginObject();
  for (const auto& [name, m] : metrics) {
    w.Key(name);
    w.BeginObject();
    w.KeyValue("value", m.value);
    w.KeyValue("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
}

// What the measured window observed.
struct Window {
  std::vector<double> wall;  // bench-timed TrainStep seconds
  std::vector<float> losses;
  std::vector<StepStats> steps;  // traced runs only
  Snapshot begin, end;           // at the drained window edges
  int64_t pool_allocating_steps = 0;  // traced runs only
  int64_t pool_outstanding_peak = 0;  // traced runs only

  int64_t measured() const { return static_cast<int64_t>(wall.size()); }
  double wall_s() const {
    double total = 0.0;
    for (double t : wall) total += t;
    return total;
  }
};

// TrainStep calls of a run, and those that returned an error or a
// non-finite loss.
struct StepCounts {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_failure;
};

// Drives `steps` measured TrainSteps; stops at the first step error.
Window Measure(RatelTrainer& trainer, BatchStream& batches, const Workload& wl,
               int64_t steps, SpanRecorder* spans, StepCounts* counts) {
  Window win;
  win.begin = Take(trainer);
  int64_t prev_allocations = win.begin.pool.allocations;
  for (int64_t i = 0; i < steps; ++i) {
    batches.Next();
    const Clock::time_point a = Clock::now();
    Result<float> loss =
        trainer.TrainStep(batches.ids(), batches.targets(), wl.batch);
    const Clock::time_point b = Clock::now();
    ++counts->attempted;
    if (!loss.ok() || !std::isfinite(*loss)) {
      ++counts->failed;
      if (counts->first_failure.empty()) {
        counts->first_failure =
            "step " + std::to_string(i) + ": " +
            (loss.ok() ? "loss is not finite" : loss.status().ToString());
      }
      if (!loss.ok()) break;
    }
    win.wall.push_back(Seconds(a, b));
    win.losses.push_back(*loss);
    if (spans == nullptr) continue;
    // Per step: the step's own breakdown, then the cumulative transfer,
    // optimizer and pool surfaces as counter tracks. The per-layer
    // metrics take their totals from the drained window edges instead.
    const StepStats& st = trainer.last_step_stats();
    win.steps.push_back(st);
    const Snapshot now = Take(trainer);
    spans->AddCounter("store_bytes_written", b,
                      static_cast<double>(now.xfer.store_bytes_written));
    spans->AddCounter("store_bytes_read", b,
                      static_cast<double>(now.xfer.store_bytes_read));
    spans->AddCounter("deferred_epochs", b,
                      static_cast<double>(now.optim.deferred_epochs));
    spans->AddCounter("pool_allocations", b,
                      static_cast<double>(now.pool.allocations));
    spans->AddCounter("pool_outstanding_bytes", b,
                      static_cast<double>(now.pool.outstanding_bytes));
    const BufferPool::Stats& pool = now.pool;
    if (pool.allocations != prev_allocations) ++win.pool_allocating_steps;
    prev_allocations = pool.allocations;
    win.pool_outstanding_peak =
        std::max(win.pool_outstanding_peak, pool.outstanding_bytes);
    const double start = spans->Offset(a);
    spans->Add("train_step", "runtime", a, b, i);
    spans->AddDerived("fetch", "runtime", start, st.fetch_s, i);
    spans->AddDerived("compute", "runtime", start + st.fetch_s, st.compute_s,
                      i);
    spans->AddDerived("optimizer", "runtime",
                      start + st.fetch_s + st.compute_s, st.optimizer_s, i);
  }
  return win;
}

Metrics EndToEndMetrics(const Workload& wl, const Window& win,
                        const std::vector<double>& setup_times) {
  const TransferStats dx = Delta(win.end.xfer, win.begin.xfer);
  const double tokens =
      static_cast<double>(win.measured() * wl.batch * wl.model.seq_len);
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Metrics m;
  m["tokens_per_s"] = {tokens / win.wall_s(), "tok/s"};
  m["step_ms_p50"] = {1e3 * Median(win.wall), "ms"};
  m["step_ms_p90"] = {1e3 * Percentile(win.wall, 0.9), "ms"};
  m["setup_s"] = {Median(setup_times), "s"};
  m["peak_rss_mib"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"};
  m["ssd_write_bytes_per_token"] = {
      static_cast<double>(dx.store_bytes_written) / tokens, "B/tok"};
  m["ssd_bytes_per_token"] = {
      static_cast<double>(dx.store_bytes_read + dx.store_bytes_written) /
          tokens,
      "B/tok"};
  m["final_loss"] = {win.losses.back(), "nat"};
  return m;
}

// Times TinyGpt::Loss and Variable::Backward on an identically
// configured model and a same-shaped batch, outside the trainer; returns
// the median forward and backward seconds.
std::pair<double, double> AutogradProbe(const Workload& wl, uint64_t seed,
                                        BatchStream& batches,
                                        SpanRecorder& spans) {
  ag::TinyGpt probe(wl.model, seed);
  batches.Next();
  std::vector<double> fwd, bwd;
  for (int r = 0; r < kProbeReps; ++r) {
    probe.ZeroGrads();
    const Clock::time_point a = Clock::now();
    ag::Variable loss = probe.Loss(batches.ids(), batches.targets(), wl.batch);
    const Clock::time_point b = Clock::now();
    loss.Backward();
    const Clock::time_point c = Clock::now();
    spans.Add("probe_forward", "autograd", a, b);
    spans.Add("probe_backward", "autograd", b, c);
    if (r == 0) continue;  // warmup
    fwd.push_back(Seconds(a, b));
    bwd.push_back(Seconds(b, c));
  }
  return {Median(fwd), Median(bwd)};
}

Metrics LayerMetrics(const Workload& wl, const Window& win, double fwd_s,
                     double bwd_s) {
  const int64_t n = win.measured();
  const double wall_s = win.wall_s();
  auto ms = [n](double total_s) { return 1e3 * total_s / n; };
  auto per_step = [n](int64_t count) {
    return static_cast<double>(count) / n;
  };
  Metrics m;

  double fetch = 0, compute = 0, optimizer = 0, drain = 0, overlap = 0,
         unattributed = 0, swap = 0;
  for (int64_t i = 0; i < n; ++i) {
    const StepStats& st = win.steps[i];
    fetch += st.fetch_s;
    compute += st.compute_s;
    optimizer += st.optimizer_s;
    drain += st.drain_stall_s;
    overlap += st.optimizer_overlap_s;
    unattributed += win.wall[i] - st.total_s;
    swap += st.plan_swap_s;
  }
  m["runtime.fetch_ms"] = {ms(fetch), "ms"};
  m["runtime.compute_ms"] = {ms(compute), "ms"};
  m["runtime.spill_wait_ms"] = {ms(compute) - 1e3 * (fwd_s + bwd_s), "ms"};
  m["runtime.optimizer_ms"] = {ms(optimizer), "ms"};
  m["runtime.drain_stall_ms"] = {ms(drain), "ms"};
  m["runtime.optimizer_overlap_ms"] = {ms(overlap), "ms"};
  m["runtime.unattributed_ms"] = {ms(unattributed), "ms"};
  m["runtime.plan_swap_ms"] = {ms(swap), "ms"};
  m["runtime.replans"] = {static_cast<double>(win.steps.back().replans),
                          "count"};
  m["autograd.fwd_ms"] = {1e3 * fwd_s, "ms"};
  m["autograd.bwd_ms"] = {1e3 * bwd_s, "ms"};

  const AsyncUpdateEngine::Stats& o0 = win.begin.optim;
  const AsyncUpdateEngine::Stats& o1 = win.end.optim;
  m["optim.hot_chunks"] = {per_step(o1.hot_chunks - o0.hot_chunks), "1/step"};
  m["optim.tail_chunks"] = {per_step(o1.tail_chunks - o0.tail_chunks),
                            "1/step"};
  m["optim.deferred_epochs"] = {
      per_step(o1.deferred_epochs - o0.deferred_epochs), "1/step"};
  m["optim.drain_waits"] = {per_step(o1.drain_waits - o0.drain_waits),
                            "1/step"};
  m["optim.durable_fallback_epochs"] = {
      per_step(o1.durable_fallback_epochs - o0.durable_fallback_epochs),
      "1/step"};
  m["optim.background_ms"] = {
      ms(o1.background_seconds - o0.background_seconds), "ms"};

  const TransferStats dx = Delta(win.end.xfer, win.begin.xfer);
  for (FlowClass f : kReportedFlows) {
    const FlowCounters& c = dx.Flow(f);
    const std::string p = std::string("xfer.") + FlowClassName(f) + ".";
    m[p + "reads"] = {per_step(c.reads), "1/step"};
    m[p + "writes"] = {per_step(c.writes), "1/step"};
    m[p + "read_ms_mean"] = {
        c.reads > 0 ? 1e3 * c.read_seconds / c.reads : 0.0, "ms"};
    m[p + "write_ms_mean"] = {
        c.writes > 0 ? 1e3 * c.write_seconds / c.writes : 0.0, "ms"};
    m[p + "store_read_bytes"] = {per_step(c.encoded_bytes_read), "B/step"};
    m[p + "store_write_bytes"] = {per_step(c.encoded_bytes_written),
                                  "B/step"};
    m[p + "retries"] = {static_cast<double>(c.retries), "count"};
  }
  const FlowCounters& spill = dx.Flow(FlowClass::kActivationSpill);
  m["xfer.activation_spill.encode_ms"] = {ms(spill.encode_seconds), "ms"};
  m["xfer.activation_spill.decode_ms"] = {ms(spill.decode_seconds), "ms"};
  m["xfer.activation_spill.compression"] = {spill.WriteCompressionRatio(),
                                            "x"};

  m["mem.dram_hit_rate"] = {dx.cache.HitRate(), "ratio"};
  m["mem.dram_evictions"] = {per_step(dx.cache.evictions), "1/step"};
  m["mem.pool_allocations"] = {
      per_step(win.end.pool.allocations - win.begin.pool.allocations),
      "1/step"};
  m["mem.pool_outstanding_bytes_peak"] = {
      static_cast<double>(win.pool_outstanding_peak), "B"};
  m["mem.pool_pooled_bytes"] = {
      static_cast<double>(win.end.pool.pooled_bytes), "B"};

  // Store busy time: bytes over the channel rate (0 when unthrottled).
  auto busy_s = [](int64_t bytes, double rate) {
    return rate > 0 ? static_cast<double>(bytes) / rate : 0.0;
  };
  const double read_busy_s =
      busy_s(dx.store_bytes_read, wl.options.ssd_read_bandwidth);
  const double write_busy_s =
      busy_s(dx.store_bytes_written, wl.options.ssd_write_bandwidth);
  m["storage.read_busy_pct"] = {100.0 * read_busy_s / wall_s, "%"};
  m["storage.write_busy_pct"] = {100.0 * write_busy_s / wall_s, "%"};
  m["storage.read_bytes_per_token"] = {
      static_cast<double>(dx.store_bytes_read) /
          static_cast<double>(n * wl.batch * wl.model.seq_len),
      "B/tok"};
  // The busiest resource's share of the step (1.0 = it never idles):
  // compute, store read, store write, or the critical-path optimizer.
  const double busiest_s = std::max(
      {n * (fwd_s + bwd_s), read_busy_s, write_busy_s, optimizer});
  m["runtime.step_efficiency"] = {busiest_s / wall_s, "ratio"};
  return m;
}

void WriteContext(JsonWriter& w, const Workload& wl, const Args& args,
                  int64_t measured) {
  w.BeginObject();
  w.KeyValue("workload", wl.name);
  w.KeyValue("seed", static_cast<int64_t>(args.seed));
  w.KeyValue("seconds", args.seconds);
  w.Key("traced");
  w.Bool(args.trace);
  w.KeyValue("nproc",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.KeyValue("affinity_cores", AffinityCores());
  w.KeyValue("simd_backend", std::string(simd::ModeName(simd::ActiveMode())));
  w.KeyValue("build_type", std::string(RATEL_PERFBENCH_BUILD_TYPE));
  w.KeyValue("compute_threads", static_cast<int64_t>(ComputeThreads()));
  w.KeyValue("parallel_width", static_cast<int64_t>(ParallelWidth()));
  w.KeyValue("setups", static_cast<int64_t>(kSetups));
  w.KeyValue("warmup_steps", static_cast<int64_t>(kWarmupSteps));
  w.KeyValue("measured_steps", measured);
  w.KeyValue("tokens_per_step", wl.batch * wl.model.seq_len);
  w.Key("options");
  WriteOptions(w, wl);
  w.EndObject();
}

int Run(const Args& args) {
  const Clock::time_point origin = Clock::now();
  auto wl_or = MakeWorkload(args.workload);
  if (!wl_or.ok()) {
    std::cerr << wl_or.status().ToString() << "\n";
    return 2;
  }
  const Workload wl = std::move(wl_or).value();
  SetComputeThreads(kComputeThreads);
  std::error_code ec;
  std::filesystem::create_directories(args.store_root, ec);

  SpanRecorder spans(origin);
  SpanRecorder* rec = args.trace ? &spans : nullptr;
  Checks checks;
  StepCounts counts;

  // ---- Set-up, kSetups times; the last session is measured. ----
  std::vector<double> setup_times;
  std::vector<float> first_warmup;
  int diverged_setups = 0;
  std::unique_ptr<Session> session;
  for (int k = 0; k < kSetups; ++k) {
    session.reset();  // closes and removes the previous store first
    auto s = SetUp(wl, args, k, rec);
    counts.attempted += kWarmupSteps;
    if (!s.ok()) {
      std::cerr << "set-up failed: " << s.status().ToString() << "\n";
      return 1;
    }
    session = std::move(s).value();
    setup_times.push_back(session->setup_s);
    if (k == 0) first_warmup = session->warmup_losses;
    if (session->warmup_losses != first_warmup) ++diverged_setups;
  }
  checks.Expect("warmup_losses_repeat_bitwise", diverged_setups == 0,
                std::to_string(diverged_setups) + " of " +
                    std::to_string(kSetups - 1) +
                    " repeated set-ups trained a different trajectory");
  RatelTrainer& trainer = *session->trainer;

  // ---- Measured window, drained at both edges. ----
  const int64_t steps = std::max<int64_t>(
      kMinSteps, std::llround(args.seconds * wl.nominal_steps_per_s));
  if (Status st = Quiesce(trainer); !st.ok()) {
    std::cerr << "drain failed: " << st.ToString() << "\n";
    return 1;
  }
  Window win = Measure(trainer, *session->batches, wl, steps, rec, &counts);
  const Status drained = Quiesce(trainer);
  win.end = Take(trainer);

  // ---- Window checks. ----
  // Step-level: a step that errored also ended the window early.
  const bool steps_ok = counts.failed == 0;
  checks.Expect("train_steps_ok_losses_finite", steps_ok,
                counts.first_failure);
  checks.Expect("final_drain_ok", drained.ok(), drained.ToString());
  const TransferStats dx = Delta(win.end.xfer, win.begin.xfer);
  int64_t enc_written = 0, enc_read = 0;
  for (const FlowCounters& f : dx.flow) {
    enc_written += f.encoded_bytes_written;
    enc_read += f.encoded_bytes_read;
  }
  checks.Expect("store_writes_reconcile_per_flow",
                enc_written == dx.store_bytes_written,
                "sum of flow encoded writes " + std::to_string(enc_written) +
                    " vs store " + std::to_string(dx.store_bytes_written));
  checks.Expect("store_reads_reconcile_per_flow",
                enc_read == dx.store_bytes_read,
                "sum of flow encoded reads " + std::to_string(enc_read) +
                    " vs store " + std::to_string(dx.store_bytes_read));
  {
    int64_t retries = 0, errors = 0, giveups = 0, decode_failures = 0;
    for (const FlowCounters& f : win.end.xfer.flow) {
      retries += f.retries;
      errors += f.errors;
      giveups += f.giveups;
      decode_failures += f.decode_failures;
    }
    checks.Expect("no_io_retries_errors_giveups",
                  retries == 0 && errors == 0 && giveups == 0 &&
                      decode_failures == 0,
                  "retries " + std::to_string(retries) + ", errors " +
                      std::to_string(errors) + ", giveups " +
                      std::to_string(giveups) + ", decode failures " +
                      std::to_string(decode_failures) + " since Create");
  }
  const bool complete = win.measured() == steps;
  if (complete) {
    checks.Expect("training_reduces_loss",
                  win.losses.back() < first_warmup.front(),
                  "final loss " + std::to_string(win.losses.back()) +
                      " vs first warmup loss " +
                      std::to_string(first_warmup.front()));
  }
  const int64_t window_allocations =
      win.end.pool.allocations - win.begin.pool.allocations;
  checks.Report("no_pool_allocations_after_warmup", window_allocations == 0,
                std::to_string(window_allocations) +
                    " buffer-pool allocations in the measured window" +
                    (args.trace ? ", on " +
                                      std::to_string(
                                          win.pool_allocating_steps) +
                                      " steps"
                                : ""));

  // ---- Metrics. ----
  Metrics metrics, layer_metrics;
  if (complete) {
    metrics = EndToEndMetrics(wl, win, setup_times);
    if (args.trace) {
      const auto [fwd_s, bwd_s] =
          AutogradProbe(wl, args.seed, *session->batches, spans);
      layer_metrics = LayerMetrics(wl, win, fwd_s, bwd_s);
      if (Status st = spans.WriteChromeTrace(args.trace_out); !st.ok()) {
        checks.Expect("trace_written", false, st.ToString());
      }
    }
  }

  // ---- Report. ----
  JsonWriter w;
  w.BeginObject();
  w.Key("context");
  WriteContext(w, wl, args, win.measured());
  w.Key("correct");
  w.Bool(checks.all_ok());
  w.KeyValue("attempted", counts.attempted);
  // A failed window check fails every step of the run.
  const bool window_failed = checks.failed() > (steps_ok ? 0 : 1);
  w.KeyValue("failed", window_failed ? counts.attempted : counts.failed);
  w.Key("checks");
  w.BeginArray();
  for (const Check& c : checks.all()) {
    w.BeginObject();
    w.KeyValue("name", c.name);
    w.Key("ok");
    w.Bool(c.ok);
    w.Key("fatal");
    w.Bool(c.fatal);
    w.KeyValue("detail", c.detail);
    w.EndObject();
  }
  w.EndArray();
  WriteMetrics(w, "metrics", metrics);
  WriteMetrics(w, "layer_metrics", layer_metrics);
  w.EndObject();
  std::cout << w.TakeString() << std::endl;
  return checks.all_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> env = RatelEnvironment();
  if (!env.empty()) {
    std::cerr << "refusing to run: RATEL_* environment overlays would "
                 "rewrite the workload's options:";
    for (const std::string& name : env) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status().ToString() << "\n";
    return 2;
  }
  return Run(*args);
}
