#include "optim/cpu_adam.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "runtime/compute_pool.h"
#include "simd/simd.h"

namespace ratel {

namespace {

// Estimated scalar ops per updated element (fp16 widen, two moment
// updates, decay, sqrt + div) for the dispatch cost model.
constexpr int64_t kAdamOpsPerElement = 16;

// Per-step scalars for the simd Adam kernels, rounded exactly like the
// serial reference (bias corrections in double, then one float cast).
simd::AdamCoeffs MakeAdamCoeffs(const AdamConfig& config, int64_t step) {
  RATEL_CHECK(step >= 1);
  simd::AdamCoeffs c;
  c.beta1 = static_cast<float>(config.beta1);
  c.one_minus_beta1 = 1.0f - c.beta1;
  c.beta2 = static_cast<float>(config.beta2);
  c.one_minus_beta2 = 1.0f - c.beta2;
  c.eps = static_cast<float>(config.eps);
  c.lr = static_cast<float>(config.lr);
  c.weight_decay = static_cast<float>(config.weight_decay);
  const double bc1 = 1.0 - std::pow(config.beta1, static_cast<double>(step));
  const double bc2 = 1.0 - std::pow(config.beta2, static_cast<double>(step));
  c.step_size = static_cast<float>(config.lr / bc1);
  c.inv_sqrt_bc2 = static_cast<float>(1.0 / std::sqrt(bc2));
  return c;
}

}  // namespace

std::vector<int64_t> CpuAdamKernel::AllChunks(int64_t n, int64_t chunk) {
  RATEL_CHECK(chunk >= 1);
  std::vector<int64_t> chunks(static_cast<size_t>((n + chunk - 1) / chunk));
  std::iota(chunks.begin(), chunks.end(), int64_t{0});
  return chunks;
}

void CpuAdamKernel::StepSerialOut(int64_t step, int64_t n, const float* grads,
                                  const float* params_in,
                                  const float* exp_avg_in,
                                  const float* exp_avg_sq_in,
                                  float* params_out, float* exp_avg_out,
                                  float* exp_avg_sq_out) const {
  RATEL_CHECK(step >= 1);
  const float beta1 = static_cast<float>(config_.beta1);
  const float beta2 = static_cast<float>(config_.beta2);
  const float one_minus_beta1 = 1.0f - beta1;
  const float one_minus_beta2 = 1.0f - beta2;
  const float eps = static_cast<float>(config_.eps);
  const float wd = static_cast<float>(config_.weight_decay);
  const float lr = static_cast<float>(config_.lr);
  // Bias correction folded into the step size (standard Adam form).
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(step));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(step));
  const float step_size = static_cast<float>(config_.lr / bc1);
  const float inv_sqrt_bc2 = static_cast<float>(1.0 / std::sqrt(bc2));

  for (int64_t i = 0; i < n; ++i) {
    const float g = grads[i];
    float m = exp_avg_in[i];
    float v = exp_avg_sq_in[i];
    m = beta1 * m + one_minus_beta1 * g;
    v = beta2 * v + one_minus_beta2 * g * g;
    exp_avg_out[i] = m;
    exp_avg_sq_out[i] = v;
    float p = params_in[i];
    if (wd != 0.0f) p -= lr * wd * p;  // decoupled weight decay (AdamW)
    const float denom = std::sqrt(v) * inv_sqrt_bc2 + eps;
    p -= step_size * m / denom;
    params_out[i] = p;
  }
}

void CpuAdamKernel::StepChunks(int64_t step, int64_t n, const Fp16* grads16,
                               const std::vector<int64_t>& chunks,
                               int64_t chunk, const float* params_in,
                               const float* exp_avg_in,
                               const float* exp_avg_sq_in, float* params_out,
                               float* exp_avg_out, float* exp_avg_sq_out,
                               float grad_unscale) const {
  RATEL_CHECK(chunk >= 1 && chunk <= kChunk);
  // Each listed chunk is one unit of parallel work and runs the fused
  // fp16-grad kernel (half->float widening + unscale in the update
  // pass). The output ranges are disjoint and the simd kernels are
  // bitwise identical to StepSerialOut in both backends (see
  // simd/simd.h), so the result is independent of the thread count and
  // of how the chunks are spread across calls.
  const int64_t count = static_cast<int64_t>(chunks.size());
  // The dispatch cost counts the elements actually covered: a ragged
  // last chunk is shorter than `chunk`.
  int64_t covered = 0;
  for (int64_t c : chunks) {
    RATEL_CHECK(c >= 0 && c * chunk < n);
    covered += std::min(chunk, n - c * chunk);
  }
  const simd::AdamCoeffs co = MakeAdamCoeffs(config_, step);
  const simd::KernelTable* kt = &simd::Kernels();
  ComputeParallelFor(
      KernelCost::kAdam, kAdamOpsPerElement * covered, 0, count, 1,
      [&](int64_t cb, int64_t ce) {
        for (int64_t c = cb; c < ce; ++c) {
          const int64_t b = chunks[static_cast<size_t>(c)] * chunk;
          const int64_t len = std::min(chunk, n - b);
          kt->adam_step_f16(co, len, grads16 + b, grad_unscale, params_in + b,
                            exp_avg_in + b, exp_avg_sq_in + b, params_out + b,
                            exp_avg_out + b, exp_avg_sq_out + b);
        }
      });
}

ChunkPartition PartitionChunksByImportance(int64_t n, const Fp16* grads16,
                                           double hot_fraction, int64_t chunk,
                                           float grad_unscale) {
  RATEL_CHECK(chunk >= 1);
  ChunkPartition part;
  part.chunk = chunk;
  if (n <= 0) return part;
  const int64_t num_chunks = (n + chunk - 1) / chunk;
  // Per-chunk importance: fixed-order |g| sum inside each chunk, chunks
  // computed independently — deterministic at any thread count.
  std::vector<float> importance(static_cast<size_t>(num_chunks), 0.0f);
  ComputeParallelFor(KernelCost::kElementwise, 2 * n, 0, num_chunks, 1,
                     [&](int64_t cb, int64_t ce) {
    for (int64_t c = cb; c < ce; ++c) {
      const int64_t b = c * chunk;
      const int64_t e = std::min(b + chunk, n);
      float sum = 0.0f;
      for (int64_t i = b; i < e; ++i) {
        sum += std::abs(HalfToFloat(grads16[i]) * grad_unscale);
      }
      importance[static_cast<size_t>(c)] = sum;
    }
  });
  int64_t hot_count;
  if (hot_fraction >= 1.0) {
    hot_count = num_chunks;
  } else {
    hot_count = static_cast<int64_t>(
        std::ceil(hot_fraction * static_cast<double>(num_chunks)));
    hot_count = std::max<int64_t>(1, std::min(hot_count, num_chunks));
  }
  std::vector<int64_t> order = CpuAdamKernel::AllChunks(n, chunk);
  // Total order (magnitude desc, index asc): ties cannot reshuffle, so
  // the top-k set is a pure function of the gradients.
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const float ia = importance[static_cast<size_t>(a)];
    const float ib = importance[static_cast<size_t>(b)];
    if (ia != ib) return ia > ib;
    return a < b;
  });
  part.hot.assign(order.begin(), order.begin() + hot_count);
  part.tail.assign(order.begin() + hot_count, order.end());
  std::sort(part.hot.begin(), part.hot.end());
  std::sort(part.tail.begin(), part.tail.end());
  return part;
}

Status ChunkedCpuAdam::Register(const std::string& name,
                                std::vector<float> initial_params) {
  if (states_.count(name) > 0) {
    return Status::AlreadyExists("tensor '" + name + "' already registered");
  }
  TensorState st;
  st.exp_avg.assign(initial_params.size(), 0.0f);
  st.exp_avg_sq.assign(initial_params.size(), 0.0f);
  st.params = std::move(initial_params);
  states_.emplace(name, std::move(st));
  return Status::Ok();
}

Status ChunkedCpuAdam::StepTensor(const std::string& name,
                                  const std::vector<Fp16>& grads16) {
  auto it = states_.find(name);
  if (it == states_.end()) {
    return Status::NotFound("tensor '" + name + "' not registered");
  }
  TensorState& st = it->second;
  if (grads16.size() != st.params.size()) {
    return Status::InvalidArgument(
        "gradient size " + std::to_string(grads16.size()) +
        " != parameter size " + std::to_string(st.params.size()) + " for '" +
        name + "'");
  }
  st.step += 1;
  const int64_t n = static_cast<int64_t>(st.params.size());
  kernel_.StepChunks(st.step, n, grads16.data(), CpuAdamKernel::AllChunks(n),
                     CpuAdamKernel::kChunk, st.params.data(),
                     st.exp_avg.data(), st.exp_avg_sq.data(), st.params.data(),
                     st.exp_avg.data(), st.exp_avg_sq.data());
  return Status::Ok();
}

Result<const std::vector<float>*> ChunkedCpuAdam::MasterParams(
    const std::string& name) const {
  auto it = states_.find(name);
  if (it == states_.end()) {
    return Status::NotFound("tensor '" + name + "' not registered");
  }
  return &it->second.params;
}

int64_t ChunkedCpuAdam::StateBytes() const {
  int64_t total = 0;
  for (const auto& [name, st] : states_) {
    total += static_cast<int64_t>(st.params.size()) * 12;
  }
  return total;
}

}  // namespace ratel
