#include "runtime/ratel_trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "runtime/checkpoint.h"
#include "runtime/prefetcher.h"
#include "runtime/workload_map.h"
#include "simd/simd.h"
#include "xfer/tenant.h"

namespace ratel {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rounds P32 through fp16: bitwise the P16 an Adam step would emit.
void RoundThroughHalf(const float* p32, float* out, int64_t n) {
  Fp16 halves[1024];
  for (int64_t i = 0; i < n; i += 1024) {
    const int64_t len = std::min<int64_t>(1024, n - i);
    simd::Kernels().floats_to_halves(p32 + i, halves, len);
    simd::Kernels().halves_to_floats(halves, out + i, len, 1.0f);
  }
}

}  // namespace

RatelTrainer::RatelTrainer(ag::TinyGpt* model, const TrainerOptions& options)
    : model_(model), options_(options) {}

RatelTrainer::~RatelTrainer() = default;

Result<std::unique_ptr<RatelTrainer>> RatelTrainer::Create(
    ag::TinyGpt* model, const TrainerOptions& options) {
  RATEL_CHECK(model != nullptr);
  std::unique_ptr<RatelTrainer> trainer(new RatelTrainer(model, options));
  RATEL_RETURN_IF_ERROR(trainer->Initialize());
  return trainer;
}

Status RatelTrainer::Initialize() {
  // All engine traffic of this job — including the Register writes
  // below — is attributed to its tenant.
  ScopedTenant tenant_scope(options_.tenant);
  if (options_.shared_engine != nullptr) {
    engine_ = options_.shared_engine;
  } else {
    TransferOptions xfer;
    xfer.dir = options_.store_dir;
    xfer.num_stripes = options_.num_stripes;
    xfer.chunk_bytes = options_.stripe_chunk_bytes;
    xfer.host_cache_bytes = options_.host_cache_bytes;
    xfer.io_workers = options_.io_workers;
    xfer.background_aging_limit = options_.background_aging_limit;
    xfer.read_bandwidth = options_.ssd_read_bandwidth;
    xfer.write_bandwidth = options_.ssd_write_bandwidth;
    // Environment knobs overlay the programmatic fault config, so any
    // trainer binary can be chaos-tested without code changes.
    xfer.fault = FaultConfig::FromEnv(options_.fault);
    xfer.fault_injector = options_.fault_injector;
    xfer.retry = options_.io_retry;
    xfer.stripe_death_threshold = options_.stripe_death_threshold;
    // Same overlay pattern for the store-path codecs, with the trainer's
    // lossy-flow rule on top: only the activation-spill leg may degrade
    // precision — it is recomputable/transient and fp16-tolerant by
    // construction — while parameter, gradient/optimizer-state, and
    // checkpoint bytes must round-trip exactly.
    xfer.codec = CodecConfig::FromEnv(options_.codec);
    for (int i = 0; i < kNumFlowClasses; ++i) {
      const FlowClass flow = static_cast<FlowClass>(i);
      auto codec = MakeCodec(xfer.codec.spec(flow));
      if (!codec.ok()) return codec.status();
      if (*codec != nullptr && !(*codec)->lossless() &&
          flow != FlowClass::kActivationSpill) {
        return Status::InvalidArgument(
            std::string("lossy codec \"") + xfer.codec.spec(flow) +
            "\" is only allowed on activation_spill, not " +
            FlowClassName(flow));
      }
    }
    RATEL_ASSIGN_OR_RETURN(owned_engine_, TransferEngine::Open(xfer));
    engine_ = owned_engine_.get();
  }
  // The model-state blobs (P32 and the moments) are written on
  // grad_state, deferred_state and checkpoint and read on param_fetch
  // too, so those four flows must frame their bytes the same way — a
  // blob written raw and read framed (or the reverse) fails its size
  // check.
  auto codec_id = [this](FlowClass flow) {
    const Codec* codec = engine_->codecs().ForFlow(flow);
    return codec != nullptr ? static_cast<int>(codec->id()) : -1;
  };
  for (FlowClass flow : {FlowClass::kParamFetch, FlowClass::kDeferredState,
                         FlowClass::kCheckpoint}) {
    if (codec_id(flow) != codec_id(FlowClass::kGradState)) {
      return Status::InvalidArgument(
          std::string("codec of ") + FlowClassName(flow) +
          " must match grad_state's: all four model-state flows read and "
          "write the same blobs");
    }
  }
  // The async-optimizer knobs get the same environment overlay as the
  // fault config: any trainer binary can flip modes without rebuilding.
  AsyncUpdateOptions update_opts;
  update_opts.async = options_.async_optimizer;
  update_opts.hot_fraction = options_.async_hot_fraction;
  if (options_.async_partition_chunk > 0) {
    update_opts.chunk = options_.async_partition_chunk;
  }
  update_opts.background_threads = options_.async_background_threads;
  update_opts.tenant = options_.tenant;
  update_opts.key_namespace = options_.key_namespace;
  update_opts = AsyncUpdateOptions::FromEnv(update_opts);
  adam_ = std::make_unique<AsyncUpdateEngine>(options_.adam, engine_,
                                              update_opts);
  for (auto& [name, var] : model_->parameters()) {
    RATEL_RETURN_IF_ERROR(adam_->Register(name, var.value()));
  }
  pipeline_ =
      std::make_unique<ThreadPool>(std::max(1, options_.pipeline_threads));
  // Resolve the re-planning knobs once (same overlay pattern as faults
  // and codecs); the replanner itself is built lazily on the first step,
  // when the micro-batch size fixes the workload profile.
  options_.replan = ReplanConfig::FromEnv(options_.replan);
  return Status::Ok();
}

void RatelTrainer::MaybeInitReplanner(int64_t micro_batch) {
  if (!options_.replan.enabled || replanner_ != nullptr) return;
  workload_ = std::make_unique<WorkloadProfile>(WorkloadProfile::Build(
      ToTransformerConfig(model_->config(), "trainer"),
      static_cast<int>(std::max<int64_t>(1, micro_batch))));
  // Nameplate profile of the emulated hierarchy. The SSD rates come
  // straight from the configured throttles (the quantities that drift);
  // the GPU/host numbers are fixed stand-ins — the replanner detects
  // drift *relative to its own observations*, so only the SSD terms'
  // proportions matter to the loop.
  HardwareProfile hw;
  hw.thp_g = 1e12;
  hw.gpu_memory_bytes = int64_t{24} << 30;
  hw.bw_g = 16e9;
  hw.bw_s2m = options_.ssd_read_bandwidth > 0 ? options_.ssd_read_bandwidth
                                              : 3.2e9;
  hw.bw_m2s = options_.ssd_write_bandwidth > 0 ? options_.ssd_write_bandwidth
                                               : 3.2e9;
  hw.cpu_adam_rate = 2e9;
  hw.host_mem_bw = 50e9;
  hw.mem_avail_m = options_.host_cache_bytes;
  nameplate_bw_s2m_ = hw.bw_s2m;
  replanner_ = std::make_unique<Replanner>(options_.replan, hw, *workload_);
  InstallPlan(replanner_->current_plan(), replanner_->current_recompute(),
              replanner_->current_profile(), /*version=*/0);
}

void RatelTrainer::InstallPlan(const ActivationPlan& plan,
                               const KnapsackPlan& recompute,
                               const HardwareProfile& profile,
                               int64_t version) {
  ActiveSchedule next;
  const int64_t total = workload_->total_activation_bytes();
  next.spill_fraction =
      total > 0 ? std::min(1.0, static_cast<double>(plan.a_g2m) /
                                    static_cast<double>(total))
                : 1.0;
  // Slower SSD -> deeper read-ahead, so the longer per-request latency
  // stays hidden behind compute; at nameplate bandwidth this is exactly
  // the classic depth 4.
  const double slowdown = profile.bw_s2m > 0.0 && nameplate_bw_s2m_ > 0.0
                              ? nameplate_bw_s2m_ / profile.bw_s2m
                              : 1.0;
  const long depth = std::lround(4.0 * slowdown);
  next.prefetch_depth =
      static_cast<int>(std::min<long>(16, std::max<long>(2, depth)));
  next.recompute_kept = recompute.chosen;
  next.version = version;
  schedule_ = std::move(next);
}

int RatelTrainer::MissableFetchDepth() const {
  return engine_->host_cache_capacity() > 0 ? 0 : schedule_.prefetch_depth;
}

void RatelTrainer::ReserveModelStateStaging() {
  BufferPool& pool = engine_->buffer_pool();
  std::vector<int64_t> writes;
  std::map<int64_t, int64_t> tensors_per_class;
  for (const auto& [name, var] : model_->parameters()) {
    const int64_t n = static_cast<int64_t>(var.value().size());
    writes.insert(writes.end(), 3, 4 * n);
    if (n > 0) ++tensors_per_class[pool.SizeClassFor(4 * n)];
  }
  // Every read is a P32 or moment blob of some tensor. A DRAM tier
  // serves them by reference; without one each miss leases staging:
  // the fetch window (`depth` in flight plus the one being converted)
  // and the state reads of as many tensors as can hold them at once —
  // the pipeline threads in sync mode, every queued epoch in async
  // mode.
  std::vector<int64_t> reads;
  if (const int depth = MissableFetchDepth(); depth > 0) {
    const int64_t threads = std::max(1, options_.pipeline_threads);
    for (const auto& [size_class, tensors] : tensors_per_class) {
      const int64_t readers =
          adam_->async() ? tensors : std::min(threads, tensors);
      reads.insert(reads.end(),
                   std::min<int64_t>(depth + 1, tensors) + 3 * readers,
                   size_class);
    }
  }
  // The model-state flows share one codec (checked at Initialize), so
  // grad_state's framing stands for all of them.
  engine_->ReserveStaging(FlowClass::kGradState, writes, reads);
  reserved_fetch_depth_ = MissableFetchDepth();
}

std::vector<std::string> RatelTrainer::ArrivalOrder() const {
  std::vector<std::string> order;
  order.push_back("final/ln_g");
  order.push_back("final/ln_b");
  for (int64_t l = model_->config().num_layers - 1; l >= 0; --l) {
    for (const auto& name : model_->BlockParameterNames(static_cast<int>(l))) {
      order.push_back(name);
    }
  }
  order.push_back("embed/pos");
  order.push_back("embed/table");
  return order;
}

Result<float> RatelTrainer::TrainStep(const std::vector<int64_t>& ids,
                                      const std::vector<int64_t>& targets,
                                      int64_t batch) {
  // Tag every engine submit of the step — prefetch, activation spill,
  // and the optimizer stream — with this job's tenant.
  ScopedTenant tenant_scope(options_.tenant);
  // First step with re-planning enabled: build the workload profile
  // (now that the micro-batch size is known) and install the initial
  // plan before any of this step's I/O is issued.
  {
    const int accum0 = std::max(1, options_.grad_accumulation_steps);
    if (batch % accum0 == 0) MaybeInitReplanner(batch / accum0);
  }
  // The first step reserves the staging its overlapped legs can peak
  // at, so later steps never grow the pool when timing lines a new peak
  // up; a swapped-in schedule that deepens a fetch window that can miss
  // the DRAM tier reserves again.
  const bool first_step = reserved_fetch_depth_ < 0;
  if (MissableFetchDepth() > reserved_fetch_depth_) {
    ReserveModelStateStaging();
  }
  StepStats stats;
  const TransferStats xfer0 = engine_->stats();
  const AsyncUpdateEngine::Stats update0 = adam_->stats();
  const double t0 = NowSeconds();

  // --- Swap in the current P16 copies (the forward-stage M->G fetch):
  // P32 blobs prefetched a few tensors ahead through the engine, so the
  // latency-critical reads overlap the fp16 rounding (the M->G /
  // compute pipeline of Section IV-A). Each request carries a
  // per-tensor dependency gate: the fetch of a tensor whose update is
  // still in flight drains that one tensor first (staleness bound <= 1
  // step), while fetches of already-drained tensors stream ahead — in
  // async-optimizer mode the previous step's deferred writebacks
  // overlap this step's fetch/forward. (A sync step ends fully drained,
  // so its gates pass at once.) ---
  {
    std::vector<Prefetcher::Request> requests;
    requests.reserve(model_->parameters().size());
    for (const auto& [name, var] : model_->parameters()) {
      Prefetcher::Request req;
      req.key = adam_->MasterParamsKey(name);
      req.size = 4 * static_cast<int64_t>(var.value().size());
      req.gate = [this, name = name] { return adam_->DrainTensor(name); };
      requests.push_back(std::move(req));
    }
    Prefetcher prefetcher(engine_, FlowClass::kParamFetch,
                          std::move(requests), schedule_.prefetch_depth);
    for (auto& [name, var] : model_->parameters()) {
      Prefetcher::Item item = prefetcher.Next();
      RATEL_CHECK(item.key == adam_->MasterParamsKey(name));
      RATEL_RETURN_IF_ERROR(item.status);
      std::vector<float>& dst = var.mutable_value();
      RATEL_CHECK(static_cast<size_t>(item.data.size()) == 4 * dst.size());
      RoundThroughHalf(reinterpret_cast<const float*>(item.data.data()),
                       dst.data(), static_cast<int64_t>(dst.size()));
    }
  }
  const double t_fetch = NowSeconds();

  // --- Forward + backward (the "GPU" work of this substrate),
  // accumulating gradients over micro batches. ---
  const int accum = std::max(1, options_.grad_accumulation_steps);
  if (batch % accum != 0) {
    return Status::InvalidArgument(
        "batch " + std::to_string(batch) + " not divisible by " +
        std::to_string(accum) + " accumulation steps");
  }
  const int64_t micro = batch / accum;
  const int64_t seq = model_->config().seq_len;
  model_->ZeroGrads();
  float loss_sum = 0.0f;
  for (int step = 0; step < accum; ++step) {
    const auto begin = static_cast<size_t>(step * micro * seq);
    const std::vector<int64_t> micro_ids(ids.begin() + begin,
                                         ids.begin() + begin + micro * seq);
    const std::vector<int64_t> micro_targets(
        targets.begin() + begin, targets.begin() + begin + micro * seq);
    ag::Variable loss = model_->Loss(micro_ids, micro_targets, micro);

    if (options_.spill_activations) {
      // Swap the saved activations out through the engine after
      // forward, then back in before backward (A16 of Table II). All
      // swap-outs are submitted at once; each read-back chases its own
      // write — submitted the moment that write resolves (the engine
      // orders only resolved writes) — so the read channel drains
      // early activations while the write channel still carries later
      // ones. Values round-trip bit-exactly, so numerics are unchanged
      // (tested).
      std::vector<ag::NodePtr> acts = ag::CollectIntermediateNodes(loss);
      // The plan's spill set. On the classic path (spill_fraction >= 1,
      // always true with the replanner disabled) every node spills, in
      // tape order — exactly the pre-plan behavior. A partial plan
      // spills the largest tensors first until the planned byte
      // fraction is covered: deterministic, so a given plan always
      // selects the same set, and non-spilled nodes simply stay in
      // memory (no round trip, numerics unchanged either way — the raw
      // spill is bit-exact).
      std::vector<size_t> spill_set;
      spill_set.reserve(acts.size());
      if (schedule_.spill_fraction >= 1.0) {
        for (size_t i = 0; i < acts.size(); ++i) spill_set.push_back(i);
      } else if (schedule_.spill_fraction > 0.0) {
        int64_t total_bytes = 0;
        for (const ag::NodePtr& a : acts) total_bytes += 4 * a->NumElements();
        std::vector<size_t> by_size(acts.size());
        for (size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
        std::stable_sort(by_size.begin(), by_size.end(),
                         [&](size_t a, size_t b) {
                           return acts[a]->NumElements() >
                                  acts[b]->NumElements();
                         });
        const double target = schedule_.spill_fraction *
                              static_cast<double>(total_bytes);
        int64_t chosen = 0;
        for (size_t i : by_size) {
          if (static_cast<double>(chosen) >= target) break;
          spill_set.push_back(i);
          chosen += 4 * acts[i]->NumElements();
        }
        std::sort(spill_set.begin(), spill_set.end());
      }
      if (first_step && step == 0) {
        // Read k is leased only after write k resolved, so a spilled
        // node holds one frame at a time: the read misses bound the
        // whole swap.
        std::vector<int64_t> sizes;
        sizes.reserve(spill_set.size());
        for (size_t i : spill_set) sizes.push_back(4 * acts[i]->NumElements());
        engine_->ReserveStaging(FlowClass::kActivationSpill, {}, sizes);
      }
      int64_t spilled = 0;
      std::vector<TransferEngine::Ticket> spill_writes;
      spill_writes.reserve(spill_set.size());
      for (size_t i : spill_set) {
        ag::Node& node = *acts[i];
        const int64_t bytes = 4 * node.NumElements();
        // Stage the activation into one pooled buffer (the single host
        // copy of the swap-out), then share it tier-wide.
        Buffer staged = engine_->buffer_pool().Lease(bytes);
        if (bytes > 0) {
          std::memcpy(staged.mutable_data(), node.value.data(), bytes);
        }
        spill_writes.push_back(engine_->SubmitWrite(
            FlowClass::kActivationSpill,
            options_.key_namespace + "act/" + std::to_string(i),
            std::move(staged)));
        spilled += bytes;
      }
      // Waits write k in spill-set order, then frees that node's value
      // ("GPU memory") and submits read k at once. After a failed write
      // no further read is submitted; every submitted ticket is still
      // waited, since reads target `buffers` (a deque: stable
      // addresses).
      Status first_spill_error;
      std::deque<Buffer> buffers;
      std::vector<TransferEngine::Ticket> spill_reads;
      spill_reads.reserve(spill_set.size());
      for (size_t k = 0; k < spill_set.size(); ++k) {
        Status s = engine_->Wait(spill_writes[k]);
        if (!s.ok() && first_spill_error.ok()) first_spill_error = s;
        if (!first_spill_error.ok()) continue;
        ag::Node& node = *acts[spill_set[k]];
        std::vector<float>().swap(node.value);
        // DRAM-hot activations come back as cache refs and cold ones
        // land in pooled staging — no per-step heap churn.
        buffers.emplace_back();
        spill_reads.push_back(engine_->SubmitRead(
            FlowClass::kActivationSpill,
            options_.key_namespace + "act/" + std::to_string(spill_set[k]),
            &buffers.back(), 4 * node.NumElements()));
      }
      for (TransferEngine::Ticket t : spill_reads) {
        Status s = engine_->Wait(t);
        if (!s.ok() && first_spill_error.ok()) first_spill_error = s;
      }
      RATEL_RETURN_IF_ERROR(first_spill_error);
      for (size_t k = 0; k < spill_set.size(); ++k) {
        ag::Node& node = *acts[spill_set[k]];
        node.value.resize(node.NumElements());
        std::memcpy(node.value.data(), buffers[k].data(),
                    4 * node.NumElements());
      }
      stats.activation_bytes_spilled += spilled;
    }

    loss.Backward();
    loss_sum += loss.value()[0];
  }
  const float mean_loss = loss_sum / static_cast<float>(accum);
  const double t_compute = NowSeconds();

  // --- Active gradient offloading: consume gradients per tensor in
  // backward arrival order, dispatching the out-of-core Adam handler. ---
  std::mutex err_mu;
  Status first_error;
  const float grad_unscale = 1.0f / options_.loss_scale;
  // The Fig. 3a ablations run one whole handler at a time: in sync mode
  // StepTensor returns with its writebacks still in flight, so these
  // modes drain the tensor before the next gradient is taken.
  const bool one_at_a_time =
      !adam_->async() &&
      (options_.grad_mode == GradientOffloadMode::kNaiveActive ||
       options_.grad_mode == GradientOffloadMode::kSerializedOptimizer);
  auto handler = [&](const std::string& name, std::vector<Fp16> grads) {
    // Handlers run on the pipeline pool, outside the step thread's
    // tenant scope — re-establish it per invocation.
    ScopedTenant handler_scope(options_.tenant);
    Status s = adam_->StepTensor(name, grads, grad_unscale);
    if (s.ok() && one_at_a_time) s = adam_->DrainTensor(name);
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error.ok()) first_error = s;
    }
  };

  // Deferred work for the serialized-pipelined mode (all handlers run
  // concurrently, but only after "backward" fully finished).
  std::vector<std::pair<std::string, std::vector<Fp16>>> deferred;

  // Scope this step's handler tasks: the group's Wait covers exactly
  // the tasks submitted through it, independent of anything else that
  // may share the pipeline pool.
  TaskGroup group(pipeline_.get());

  for (const std::string& name : ArrivalOrder()) {
    // Locate the parameter and convert its gradient to G16.
    ag::Variable var;
    for (auto& [n, v] : model_->parameters()) {
      if (n == name) {
        var = v;
        break;
      }
    }
    RATEL_CHECK(var.defined()) << "missing parameter " << name;
    const std::vector<float>& grad = var.grad();
    if (grad.empty()) {
      return Status::Internal("no gradient for '" + name + "'");
    }
    // Average over micro batches and apply the mixed-precision loss
    // scale before the fp16 cast (unscaled inside the handler).
    const float cast_scale =
        options_.loss_scale / static_cast<float>(accum);
    std::vector<Fp16> g16(grad.size());
    for (size_t i = 0; i < grad.size(); ++i) {
      g16[i] = FloatToHalf(grad[i] * cast_scale);
    }

    switch (options_.grad_mode) {
      case GradientOffloadMode::kOptimizedActive:
        // Handlers pipeline across tensors on the worker pool while the
        // arrival loop keeps producing G16 (Fig. 3b).
        group.Submit(
            [&handler, name, g = std::move(g16)]() mutable {
              handler(name, std::move(g));
            });
        break;
      case GradientOffloadMode::kNaiveActive:
        // Handler runs to completion before the next gradient is taken
        // (Fig. 3a).
        handler(name, std::move(g16));
        break;
      case GradientOffloadMode::kSerializedOptimizer:
        // Defer everything to a separate optimizer stage below.
        group.Submit([&handler, name, g = std::move(g16)]() mutable {
          handler(name, std::move(g));
        });
        group.Wait();  // strictly one at a time, after "backward"
        break;
      case GradientOffloadMode::kSerializedPipelined:
        deferred.emplace_back(name, std::move(g16));
        break;
    }
  }
  for (auto& [name, g16] : deferred) {
    group.Submit([&handler, name = name, g = std::move(g16)]() mutable {
      handler(name, std::move(g));
    });
  }
  group.Wait();
  RATEL_RETURN_IF_ERROR(first_error);
  // A sync step ends durable: every writeback it submitted resolves
  // here, so no I/O of the step is still in flight at the schedule swap
  // point or in StepStats below.
  if (!adam_->async()) RATEL_RETURN_IF_ERROR(adam_->DrainAll());
  const double t_opt = NowSeconds();

  stats.fetch_s = t_fetch - t0;
  stats.compute_s = t_compute - t_fetch;
  stats.optimizer_s = t_opt - t_compute;
  stats.total_s = t_opt - t0;
  stats.xfer = Delta(engine_->stats(), xfer0);
  // Deferred-update breakdown: this step's pipeline counter delta. The
  // drain stalls of the prior step's epochs land in this step's fetch
  // stage, so overlap = epoch wall time minus what actually stalled us.
  {
    const AsyncUpdateEngine::Stats update1 = adam_->stats();
    stats.hot_chunks = update1.hot_chunks - update0.hot_chunks;
    stats.tail_chunks = update1.tail_chunks - update0.tail_chunks;
    stats.deferred_epochs = update1.deferred_epochs - update0.deferred_epochs;
    stats.drain_stall_s =
        update1.drain_stall_seconds - update0.drain_stall_seconds;
    stats.optimizer_overlap_s =
        std::max(0.0, (update1.background_seconds - update0.background_seconds) -
                          stats.drain_stall_s);
  }
  // Legacy totals: the parameter + model-state legs (activation traffic
  // is reported via activation_bytes_spilled and the xfer breakdown).
  stats.bytes_read = stats.xfer.Flow(FlowClass::kParamFetch).bytes_read +
                     stats.xfer.Flow(FlowClass::kGradState).bytes_read;
  stats.bytes_written =
      stats.xfer.Flow(FlowClass::kParamFetch).bytes_written +
      stats.xfer.Flow(FlowClass::kGradState).bytes_written;
  stats.loss = mean_loss;
  // --- Step boundary: every read/write this step issued has been
  // waited above (sync writebacks by DrainAll), so swapping the schedule
  // here can never invalidate in-flight I/O; deferred optimizer epochs
  // keep draining through their per-tensor gates because the plan never
  // touches their keys. ---
  if (replanner_ != nullptr) {
    const double swap0 = NowSeconds();
    std::optional<ReplanResult> result =
        replanner_->Observe(engine_->stats(), NowSeconds());
    if (result.has_value()) {
      InstallPlan(result->activation, result->recompute, result->calibrated,
                  result->solve_index);
      ++replans_installed_;
      stats.plan_swap_s = NowSeconds() - swap0;
    }
    stats.replans = replans_installed_;
    stats.plan_staleness_pct = replanner_->observation().staleness * 100.0;
  }
  last_stats_ = stats;
  ++global_step_;

  if (options_.capture_flow_trace) {
    trained_seconds_ += stats.total_s;
    const TransferStats cumulative = engine_->stats();
    for (int i = 0; i < kNumFlowClasses; ++i) {
      const FlowClass flow = static_cast<FlowClass>(i);
      const FlowCounters& c = cumulative.Flow(flow);
      const std::string prefix = std::string("xfer/") + FlowClassName(flow);
      flow_trace_.AddCounter(prefix + "/bytes_read", trained_seconds_,
                             static_cast<double>(c.bytes_read));
      flow_trace_.AddCounter(prefix + "/bytes_written", trained_seconds_,
                             static_cast<double>(c.bytes_written));
    }
    if (adam_->async()) {
      // The deferred-update pipeline counters next to the flow bytes:
      // Chrome traces show hot/tail split, stalls, and overlap stack up.
      const AsyncUpdateEngine::Stats u = adam_->stats();
      flow_trace_.AddCounter("optim/hot_chunks", trained_seconds_,
                             static_cast<double>(u.hot_chunks));
      flow_trace_.AddCounter("optim/tail_chunks", trained_seconds_,
                             static_cast<double>(u.tail_chunks));
      flow_trace_.AddCounter("optim/drain_stall_s", trained_seconds_,
                             u.drain_stall_seconds);
      flow_trace_.AddCounter("optim/overlap_s", trained_seconds_,
                             u.background_seconds);
    }
  }
  return stats.loss;
}

Status RatelTrainer::SaveCheckpoint(const std::string& dir) {
  ScopedTenant tenant_scope(options_.tenant);
  // Barrier: every deferred tail epoch must have applied and published,
  // and every queued writeback must land, before state is read out —
  // or the snapshot would mix step N and step N-1 tensors (or worse,
  // a half-applied one).
  RATEL_RETURN_IF_ERROR(adam_->DrainAll());
  RATEL_RETURN_IF_ERROR(engine_->Drain());
  // Zero-copy export: shard payloads are engine buffer refs (DRAM-hot
  // state costs no host copy) streamed straight into the checkpoint
  // file through the view writer. `held` keeps every buffer alive until
  // the save returns.
  checkpoint::TrainStateView state;
  state.step = global_step_;
  state.tensors.reserve(model_->parameters().size());
  std::vector<Buffer> held;
  held.reserve(3 * model_->parameters().size());
  for (const auto& [name, var] : model_->parameters()) {
    checkpoint::TensorStateView t;
    t.name = name;
    Buffer p32, m, v;
    RATEL_RETURN_IF_ERROR(
        adam_->ExportStateBuffers(name, &t.adam_step, &p32, &m, &v));
    t.p32 = reinterpret_cast<const float*>(p32.data());
    t.m = reinterpret_cast<const float*>(m.data());
    t.v = reinterpret_cast<const float*>(v.data());
    t.n = p32.size() / 4;
    held.push_back(std::move(p32));
    held.push_back(std::move(m));
    held.push_back(std::move(v));
    state.tensors.push_back(std::move(t));
  }
  return checkpoint::SaveVersionedViews(dir, state);
}

Result<int64_t> RatelTrainer::RestoreLatestCheckpoint(const std::string& dir) {
  ScopedTenant tenant_scope(options_.tenant);
  RATEL_ASSIGN_OR_RETURN(checkpoint::TrainState state,
                         checkpoint::LoadLatest(dir));
  for (const checkpoint::TensorState& t : state.tensors) {
    RATEL_RETURN_IF_ERROR(
        adam_->ImportState(t.name, t.adam_step, t.p32, t.m, t.v));
  }
  // The imported state must be durable before the next step's fetch
  // can observe it.
  RATEL_RETURN_IF_ERROR(engine_->Drain());
  global_step_ = state.step;
  return global_step_;
}

}  // namespace ratel
