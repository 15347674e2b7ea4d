#include "runtime/async_update_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "simd/simd.h"
#include "xfer/tenant.h"

namespace ratel {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

AsyncUpdateOptions AsyncUpdateOptions::FromEnv(AsyncUpdateOptions base) {
  if (const char* v = std::getenv("RATEL_ASYNC_OPTIM");
      v != nullptr && *v != '\0') {
    base.async = std::atoi(v) != 0;
  }
  if (const char* v = std::getenv("RATEL_ASYNC_HOT_FRACTION");
      v != nullptr && *v != '\0') {
    base.hot_fraction = std::atof(v);
  }
  return base;
}

std::string AsyncUpdateEngine::P32Key(const std::string& name) const {
  return options_.key_namespace + "p32/" + name;
}

std::string AsyncUpdateEngine::MomKey(const std::string& name) const {
  return options_.key_namespace + "m/" + name;
}

std::string AsyncUpdateEngine::VarKey(const std::string& name) const {
  return options_.key_namespace + "v/" + name;
}

std::string AsyncUpdateEngine::MasterParamsKey(const std::string& name) const {
  return P32Key(name);
}

AsyncUpdateEngine::AsyncUpdateEngine(const AdamConfig& config,
                                     TransferEngine* engine,
                                     const AsyncUpdateOptions& options)
    : kernel_(config), engine_(engine), options_(options) {
  RATEL_CHECK(engine != nullptr);
  options_.chunk = std::max<int64_t>(
      1, std::min(options_.chunk, CpuAdamKernel::kChunk));
  reaper_ = std::thread([this] { ReaperLoop(); });
  if (options_.async) {
    background_ =
        std::make_unique<ThreadPool>(std::max(1, options_.background_threads));
    epochs_ = std::make_unique<TaskGroup>(background_.get());
  }
}

AsyncUpdateEngine::~AsyncUpdateEngine() {
  // Wait every deferred epoch and writeback out (tail applied, writes
  // resolved) before any member it references goes away.
  (void)DrainAll();
  // Nothing enqueues any more; the reaper drains what's left of its
  // queue (normally empty after DrainAll) and exits.
  {
    std::lock_guard<std::mutex> lock(mu_);
    reaper_shutdown_ = true;
  }
  reaper_cv_.notify_all();
  reaper_.join();
}

void AsyncUpdateEngine::ReaperLoop() {
  for (;;) {
    PendingWrites pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      reaper_cv_.wait(
          lock, [this] { return reaper_shutdown_ || !reap_queue_.empty(); });
      if (reap_queue_.empty()) return;  // shutdown and fully drained
      pending = std::move(reap_queue_.front());
      reap_queue_.pop_front();
    }
    // FIFO matches store submission order, so each wait sleeps roughly
    // until its own writes clear the (possibly throttled) channel. Only
    // the actual blocking time of deferred epochs counts toward
    // background_seconds — queue wait would double-count the single
    // channel's drain across epochs, and a sync writeback overlaps
    // nothing the step does not wait for at its end.
    const auto start = std::chrono::steady_clock::now();
    const Status status = engine_->WaitAll(pending.tickets);
    // The store is durable for this epoch now: release its DRAM-tier
    // pins — a post-drain read that misses the tier from here on finds
    // the resolved write behind it.
    for (const std::string& key : pending.pinned_keys) {
      engine_->UnpinCached(key);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending.meta->writes_inflight = false;
      if (!status.ok() && pending.meta->epoch_status.ok()) {
        pending.meta->epoch_status = status;
      }
      if (pending.deferred) stats_.background_seconds += SecondsSince(start);
    }
    epoch_cv_.notify_all();
  }
}

Status AsyncUpdateEngine::Register(const std::string& name,
                                   const std::vector<float>& initial_params) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (meta_.count(name) > 0) {
      return Status::AlreadyExists("tensor '" + name + "' registered twice");
    }
    TensorMeta meta;
    meta.size = static_cast<int64_t>(initial_params.size());
    meta_.emplace(name, std::move(meta));
  }
  const int64_t n = static_cast<int64_t>(initial_params.size());
  // Stage the initial state in pooled buffers and publish them
  // zero-copy: one allocation each, shared by the DRAM tier and the
  // store write.
  BufferPool& pool = engine_->buffer_pool();
  Buffer p32 = pool.Lease(4 * n);
  Buffer m0 = pool.Lease(4 * n);
  Buffer v0 = pool.Lease(4 * n);
  if (n > 0) {
    std::memcpy(p32.mutable_data(), initial_params.data(), 4 * n);
    std::memset(m0.mutable_data(), 0, 4 * n);
    std::memset(v0.mutable_data(), 0, 4 * n);
  }
  const std::vector<TransferEngine::Ticket> tickets = {
      engine_->SubmitWrite(FlowClass::kGradState, P32Key(name),
                           std::move(p32)),
      engine_->SubmitWrite(FlowClass::kGradState, MomKey(name), std::move(m0)),
      engine_->SubmitWrite(FlowClass::kGradState, VarKey(name), std::move(v0)),
  };
  Status status = engine_->WaitAll(tickets);
  if (!status.ok()) {
    // Leave no half-registered tensor behind: the store state is
    // garbage/absent, so the registration must be retryable.
    std::lock_guard<std::mutex> lock(mu_);
    meta_.erase(name);
  }
  return status;
}

Status AsyncUpdateEngine::DrainMetaLocked(std::unique_lock<std::mutex>& lock,
                                          const TensorMeta& meta) const {
  // With a DRAM tier the "published" barrier suffices: the epoch has
  // admitted its buffers tier-wide AND pinned them against eviction, so
  // same-key reads stay coherent from the moment epoch_pending clears
  // until the reaper unpins (store durable). When the epoch could not
  // pin all its keys (epoch_durable_only) — or there is no tier at all
  // — reads can reach the store, which only orders them behind
  // *resolved* writes: harden to the durable barrier.
  const bool durable = drain_needs_durable();
  auto ready = [&meta, durable] {
    return !meta.epoch_pending &&
           !((durable || meta.epoch_durable_only) && meta.writes_inflight);
  };
  if (!ready()) {
    ++stats_.drain_waits;
    const auto start = std::chrono::steady_clock::now();
    epoch_cv_.wait(lock, ready);
    stats_.drain_stall_seconds += SecondsSince(start);
  }
  return meta.epoch_status;
}

Status AsyncUpdateEngine::StepTensor(const std::string& name,
                                     const std::vector<Fp16>& grads16,
                                     float grad_unscale) {
  TensorMeta* meta = nullptr;
  int64_t step = 0;
  int64_t n = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = meta_.find(name);
    if (it == meta_.end()) {
      return Status::NotFound("tensor '" + name + "' not registered");
    }
    if (static_cast<int64_t>(grads16.size()) != it->second.size) {
      return Status::InvalidArgument("gradient size mismatch for '" + name +
                                     "'");
    }
    meta = &it->second;
    // Staleness bound (<= 1 step): the previous deferred epoch of this
    // tensor must be behind us before its state is read again.
    RATEL_RETURN_IF_ERROR(DrainMetaLocked(lock, *meta));
    meta->step += 1;
    step = meta->step;
    n = meta->size;
  }
  // SSD -> Main: stream P32 + OS32 (12 bytes/param) concurrently and
  // wait the set as one batch — the three reads hit independent stripes
  // and their latencies overlap. DRAM-hot tensors arrive as cache refs
  // (no copy at all), cold ones land in pooled staging.
  Buffer p32_in, m_in, v_in;
  const std::vector<TransferEngine::Ticket> reads = {
      engine_->SubmitRead(FlowClass::kGradState, P32Key(name), &p32_in, 4 * n),
      engine_->SubmitRead(FlowClass::kGradState, MomKey(name), &m_in, 4 * n),
      engine_->SubmitRead(FlowClass::kGradState, VarKey(name), &v_in, 4 * n),
  };
  RATEL_RETURN_IF_ERROR(engine_->WaitAll(reads));

  // CPU compute: the Adam handler, one kernel for both modes. Sync mode
  // applies every chunk of the kernel's grid now; async mode applies the
  // hot chunks of a gradient-magnitude split (fixed boundaries, a pure
  // function of the gradients, so reproducible at any thread count).
  // The inputs are published (possibly shared with the DRAM tier), so
  // the kernel writes out-of-place into leased buffers that stay
  // private until every chunk is applied: no reader can observe a
  // half-applied update. The kernel fans out on the shared ComputePool,
  // never on the TransferEngine's I/O workers.
  const bool deferred = options_.async && n > 0;
  ChunkPartition part;
  if (deferred) {
    part = PartitionChunksByImportance(n, grads16.data(),
                                       options_.hot_fraction, options_.chunk,
                                       grad_unscale);
  } else {
    part.hot = CpuAdamKernel::AllChunks(n);
    part.chunk = CpuAdamKernel::kChunk;
  }
  BufferPool& pool = engine_->buffer_pool();
  Buffer p32_out = pool.Lease(4 * n);
  Buffer m_out = pool.Lease(4 * n);
  Buffer v_out = pool.Lease(4 * n);
  kernel_.StepChunks(step, n, grads16.data(), part.hot, part.chunk,
                     reinterpret_cast<const float*>(p32_in.data()),
                     reinterpret_cast<const float*>(m_in.data()),
                     reinterpret_cast<const float*>(v_in.data()),
                     reinterpret_cast<float*>(p32_out.mutable_data()),
                     reinterpret_cast<float*>(m_out.mutable_data()),
                     reinterpret_cast<float*>(v_out.mutable_data()),
                     grad_unscale);

  if (!deferred) {
    p32_in.reset();  // return read staging to the pool before writeback
    m_in.reset();
    v_in.reset();
    // Main -> SSD: write back P32 + OS32 (12 bytes/param), zero-copy —
    // each leased buffer is published once and shared by the DRAM tier
    // and the store write. Not waited here: the tickets go to the
    // tensor's gate, so the handler's pipeline thread is free for the
    // next tensor while the write channel drains this one. The tensor's
    // next fetch/step/export drains first (durably without a DRAM
    // tier), and the trainer ends each sync step with DrainAll.
    WriteBack(meta, name, FlowClass::kGradState, std::move(p32_out),
              std::move(m_out), std::move(v_out));
    return Status::Ok();
  }

  // A degenerate split (single-chunk tensor or hot_fraction >= 1)
  // leaves the tail empty; the epoch still runs — it skips the kernel
  // and only publishes + writes back. Routing even these tensors
  // through the deferred path keeps the foreground free of *any*
  // waited store write: a model's many tiny tensors would otherwise
  // queue critical writes behind the deferred backlog every step.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.hot_chunks += static_cast<int64_t>(part.hot.size());
    stats_.tail_chunks += static_cast<int64_t>(part.tail.size());
    meta->epoch_pending = true;
    ++stats_.deferred_epochs;
  }
  // The grads are copied for the epoch (2 bytes/param — the price of
  // returning before the tail is applied); the buffers are shared refs.
  epochs_->Submit([this, meta, name, step, n, grads = grads16,
                   part = std::move(part), p32_in = std::move(p32_in),
                   m_in = std::move(m_in), v_in = std::move(v_in),
                   p32_out = std::move(p32_out), m_out = std::move(m_out),
                   v_out = std::move(v_out), grad_unscale]() mutable {
    // Epoch workers run outside any caller tenant scope; attribute their
    // deferred writebacks to the optimizer's own tenant.
    ScopedTenant tenant_scope(options_.tenant);
    // Clock the epoch's useful work only — WriteBack's same-key ordering
    // wait idles on the channel and would double-count its drain across
    // workers.
    const auto start = std::chrono::steady_clock::now();
    // Apply the deferred tail with the exact (step, grads, state) inputs
    // of the foreground's hot pass — elementwise Adam makes the combined
    // result bitwise identical to a single full-tensor step.
    kernel_.StepChunks(step, n, grads.data(), part.tail, part.chunk,
                       reinterpret_cast<const float*>(p32_in.data()),
                       reinterpret_cast<const float*>(m_in.data()),
                       reinterpret_cast<const float*>(v_in.data()),
                       reinterpret_cast<float*>(p32_out.mutable_data()),
                       reinterpret_cast<float*>(m_out.mutable_data()),
                       reinterpret_cast<float*>(v_out.mutable_data()),
                       grad_unscale);
    p32_in.reset();  // return read staging to the pool before writeback
    m_in.reset();
    v_in.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.background_seconds += SecondsSince(start);
    }
    // Main -> SSD off the critical path: publish P32 + OS32 (12
    // bytes/param) as background kDeferredState traffic — a
    // latency-critical param fetch can always overtake these in the
    // scheduler. Publishing also clears epoch_pending.
    WriteBack(meta, name, FlowClass::kDeferredState, std::move(p32_out),
              std::move(m_out), std::move(v_out));
  });
  return Status::Ok();
}

void AsyncUpdateEngine::WriteBack(TensorMeta* meta, const std::string& name,
                                  FlowClass flow, Buffer p32, Buffer m,
                                  Buffer v) {
  {
    // Same-key store ordering: the tensor's previous writebacks must
    // have resolved before these are submitted, or the store could land
    // them out of order. (Every consumer drains first, so this blocks
    // only while the write channel still drains the tensor's previous
    // step behind a published barrier.)
    std::unique_lock<std::mutex> lock(mu_);
    epoch_cv_.wait(lock, [meta] { return !meta->writes_inflight; });
  }
  std::vector<TransferEngine::Ticket> writes = {
      engine_->SubmitWrite(flow, P32Key(name), std::move(p32)),
      engine_->SubmitWrite(flow, MomKey(name), std::move(m)),
      engine_->SubmitWrite(flow, VarKey(name), std::move(v)),
  };
  // The published barrier is only sound while all three blobs stay
  // resident in the DRAM tier: pin them until the store writes resolve
  // (the reaper unpins). A failed pin means the entry was evicted
  // between admission and here, or the blob is larger than the tier and
  // was never admitted — a post-drain read could then miss and reach
  // the store ahead of the unresolved write, so these writes must drain
  // durably instead. No same-key read can intervene before the pins:
  // every consumer drains first, and the drain only releases once
  // the flags below are set.
  const bool have_tier = !drain_needs_durable();
  std::vector<std::string> pinned;
  pinned.reserve(3);
  bool resident = have_tier;
  if (have_tier) {
    for (const std::string& key : {P32Key(name), MomKey(name), VarKey(name)}) {
      if (engine_->PinCached(key)) {
        pinned.push_back(key);
      } else {
        resident = false;
        break;
      }
    }
    if (!resident) {
      for (const std::string& key : pinned) engine_->UnpinCached(key);
      pinned.clear();
    }
  }
  const bool deferred = flow == FlowClass::kDeferredState;
  {
    // Published: the DRAM tier serves the new state coherently from
    // here on; consumers behind the published barrier may proceed while
    // the store writes resolve. Resolution itself is the reaper's job —
    // the caller is free the moment the tickets are handed off, so a
    // backlogged write channel never holds an epoch worker or a
    // pipeline thread.
    std::lock_guard<std::mutex> lock(mu_);
    meta->epoch_pending = false;
    meta->writes_inflight = true;
    meta->epoch_durable_only = !resident;
    // Only tier-backed epochs count as *fallbacks*; with no DRAM tier
    // at all, every drain is durable by construction.
    if (deferred && have_tier && !resident) ++stats_.durable_fallback_epochs;
    reap_queue_.push_back(
        PendingWrites{meta, std::move(writes), std::move(pinned), deferred});
  }
  epoch_cv_.notify_all();
  reaper_cv_.notify_all();
}

Result<int64_t> AsyncUpdateEngine::DrainedSize(const std::string& name,
                                               int64_t* step) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = meta_.find(name);
  if (it == meta_.end()) {
    return Status::NotFound("tensor '" + name + "' not registered");
  }
  // The drain releases mu_ while it waits, and a concurrent Register
  // may rehash meta_: hold the element by reference, not by iterator.
  const TensorMeta& meta = it->second;
  RATEL_RETURN_IF_ERROR(DrainMetaLocked(lock, meta));
  if (step != nullptr) *step = meta.step;
  return meta.size;
}

Status AsyncUpdateEngine::FetchParams16(const std::string& name,
                                        std::vector<Fp16>* out) const {
  RATEL_ASSIGN_OR_RETURN(const int64_t n, DrainedSize(name));
  RATEL_ASSIGN_OR_RETURN(
      Buffer p32, engine_->ReadBuffer(FlowClass::kParamFetch, P32Key(name),
                                      4 * n));
  out->resize(n);
  simd::Kernels().floats_to_halves(reinterpret_cast<const float*>(p32.data()),
                                   out->data(), n);
  return Status::Ok();
}

Status AsyncUpdateEngine::FetchMasterParams(const std::string& name,
                                            std::vector<float>* out) const {
  RATEL_ASSIGN_OR_RETURN(const int64_t n, DrainedSize(name));
  RATEL_ASSIGN_OR_RETURN(
      Buffer p32, engine_->ReadBuffer(FlowClass::kCheckpoint, P32Key(name),
                                      4 * n));
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), p32.data(), 4 * n);
  return Status::Ok();
}

Status AsyncUpdateEngine::ExportStateBuffers(const std::string& name,
                                             int64_t* step, Buffer* p32,
                                             Buffer* m, Buffer* v) const {
  RATEL_ASSIGN_OR_RETURN(const int64_t n, DrainedSize(name, step));
  const std::vector<TransferEngine::Ticket> reads = {
      engine_->SubmitRead(FlowClass::kCheckpoint, P32Key(name), p32, 4 * n),
      engine_->SubmitRead(FlowClass::kCheckpoint, MomKey(name), m, 4 * n),
      engine_->SubmitRead(FlowClass::kCheckpoint, VarKey(name), v, 4 * n),
  };
  return engine_->WaitAll(reads);
}

Status AsyncUpdateEngine::ImportState(const std::string& name, int64_t step,
                                      const std::vector<float>& p32,
                                      const std::vector<float>& m,
                                      const std::vector<float>& v) {
  const int64_t n = static_cast<int64_t>(p32.size());
  if (static_cast<int64_t>(m.size()) != n ||
      static_cast<int64_t>(v.size()) != n) {
    return Status::InvalidArgument("optimizer state size mismatch for '" +
                                   name + "'");
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = meta_.find(name);
    if (it != meta_.end()) {
      if (it->second.size != n) {
        return Status::InvalidArgument("tensor '" + name +
                                       "' registered with a different size");
      }
      // Wait the tensor's deferred epoch fully out (durable) — a late
      // kDeferredState write landing after the import would clobber the
      // restored state at the store level.
      TensorMeta& meta = it->second;
      epoch_cv_.wait(lock, [&meta] {
        return !meta.epoch_pending && !meta.writes_inflight;
      });
      meta.step = step;
      meta.epoch_status = Status::Ok();  // superseded by the import
    } else {
      TensorMeta meta;
      meta.size = n;
      meta.step = step;
      meta_.emplace(name, std::move(meta));
    }
  }
  // Stage in pooled buffers and publish zero-copy, mirroring Register.
  BufferPool& pool = engine_->buffer_pool();
  Buffer p32_buf = pool.Lease(4 * n);
  Buffer m_buf = pool.Lease(4 * n);
  Buffer v_buf = pool.Lease(4 * n);
  if (n > 0) {
    std::memcpy(p32_buf.mutable_data(), p32.data(), 4 * n);
    std::memcpy(m_buf.mutable_data(), m.data(), 4 * n);
    std::memcpy(v_buf.mutable_data(), v.data(), 4 * n);
  }
  const std::vector<TransferEngine::Ticket> tickets = {
      engine_->SubmitWrite(FlowClass::kCheckpoint, P32Key(name),
                           std::move(p32_buf)),
      engine_->SubmitWrite(FlowClass::kCheckpoint, MomKey(name),
                           std::move(m_buf)),
      engine_->SubmitWrite(FlowClass::kCheckpoint, VarKey(name),
                           std::move(v_buf)),
  };
  return engine_->WaitAll(tickets);
}

Status AsyncUpdateEngine::DrainTensor(const std::string& name) const {
  return DrainedSize(name).status();
}

Status AsyncUpdateEngine::DrainAll() const {
  // Collect names first: the cv wait releases mu_, and a concurrent
  // Register could rehash the map under an iterator.
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(meta_.size());
    for (const auto& [name, meta] : meta_) names.push_back(name);
  }
  Status first_error;
  for (const std::string& name : names) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = meta_.find(name);
    if (it == meta_.end()) continue;
    const TensorMeta& meta = it->second;
    // Full durable barrier regardless of the DRAM tier: this is the
    // checkpoint / shutdown fence.
    epoch_cv_.wait(lock, [&meta] {
      return !meta.epoch_pending && !meta.writes_inflight;
    });
    if (!meta.epoch_status.ok() && first_error.ok()) {
      first_error = meta.epoch_status;
    }
  }
  return first_error;
}

AsyncUpdateEngine::Stats AsyncUpdateEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ratel
