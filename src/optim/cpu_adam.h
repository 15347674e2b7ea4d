#ifndef RATEL_OPTIM_CPU_ADAM_H_
#define RATEL_OPTIM_CPU_ADAM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fp16.h"
#include "common/status.h"

namespace ratel {

/// Adam hyper-parameters (Kingma & Ba), with decoupled weight decay.
struct AdamConfig {
  double lr = 1e-4;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0.0;
};

/// The out-of-core CPU Adam kernel (Section II "CPU Optimizer"): updates
/// fp32 master parameters and moments from the fp16 gradients (G16) the
/// GPU produces. It writes P32 + OS32 only; the forward fetch derives the
/// fp16 copy (P16) from P32. `StepChunks` is the one update entry point
/// — sync mode's whole-tensor step and the deferred pipeline's hot/tail
/// halves (Section IV-C, Fig. 3) are all chunk lists over one grid — and
/// `StepSerialOut` is the plain-loop reference the tests pin it against.
class CpuAdamKernel {
 public:
  /// Elements per parallel chunk. Chunk boundaries depend only on `n`,
  /// never on the thread count, so fp32 results are reproducible.
  static constexpr int64_t kChunk = 4096;

  explicit CpuAdamKernel(const AdamConfig& config) : config_(config) {}

  /// The indices of every chunk of the `chunk`-element grid over [0, n),
  /// ascending: the chunk list of a whole-tensor step.
  static std::vector<int64_t> AllChunks(int64_t n, int64_t chunk = kChunk);

  /// Single-threaded plain-loop reference with fp32 gradients: reads
  /// state from the `_in` arrays and writes the updated state to the
  /// `_out` arrays, `n` elements each. `step` is the 1-based global step
  /// count used for bias correction. Each `_out` pointer may alias its
  /// `_in` counterpart (an in-place step).
  void StepSerialOut(int64_t step, int64_t n, const float* grads,
                     const float* params_in, const float* exp_avg_in,
                     const float* exp_avg_sq_in, float* params_out,
                     float* exp_avg_out, float* exp_avg_sq_out) const;

  /// The update: one out-of-place Adam step from fp16 gradients, applied
  /// to the listed chunks of the `chunk`-element grid over [0, n) only;
  /// every other element of the `_out` arrays is left untouched. Each
  /// gradient is widened and multiplied by `grad_unscale` (the inverse
  /// of the mixed-precision loss scale) in the same pass. `_out` may
  /// alias `_in`; distinct arrays let callers read shared immutable
  /// buffers (a DRAM cache hit) and write freshly leased ones. The fused
  /// simd kernel is bitwise StepSerialOut in either RATEL_SIMD mode, and
  /// the update is elementwise, so applying a tensor's chunks across
  /// several calls (hot now, tail later) with the same `step`/grads/`_in`
  /// state yields bitwise the full-tensor result at any thread count.
  /// Chunk indices must be in range and distinct; `chunk` must be in
  /// [1, kChunk]. Parallel over the chunk list on the shared ComputePool.
  void StepChunks(int64_t step, int64_t n, const Fp16* grads16,
                  const std::vector<int64_t>& chunks, int64_t chunk,
                  const float* params_in, const float* exp_avg_in,
                  const float* exp_avg_sq_in, float* params_out,
                  float* exp_avg_out, float* exp_avg_sq_out,
                  float grad_unscale = 1.0f) const;

 private:
  AdamConfig config_;
};

/// Deterministic hot/tail split of a gradient tensor's chunk grid — the
/// chunk-importance partitioner of the asynchronous update pipeline
/// (ZenFlow's observation: a few high-magnitude chunks carry most of the
/// update; the long tail can be deferred and overlapped with the next
/// step's forward). Both index lists are ascending.
struct ChunkPartition {
  std::vector<int64_t> hot;   // top-k chunks by gradient magnitude
  std::vector<int64_t> tail;  // everything else (the deferred set)
  int64_t chunk = 0;          // grid granularity this split was made on
};

/// Splits the `chunk`-element grid over [0, n) into the top
/// ceil(hot_fraction * num_chunks) chunks by mean |g| ("hot", at least
/// one) and the rest ("tail"). The importance of a chunk is its
/// fixed-order sum of |g| * grad_unscale over its own elements and ties
/// break on the lower index, so the partition depends only on (n,
/// grads, hot_fraction, chunk) — never on thread count — which keeps
/// the async optimizer bitwise reproducible. hot_fraction >= 1 puts
/// every chunk in `hot`.
ChunkPartition PartitionChunksByImportance(int64_t n, const Fp16* grads16,
                                           double hot_fraction,
                                           int64_t chunk,
                                           float grad_unscale = 1.0f);

/// Optimizer state (P32 + OS32) for a collection of named parameter
/// tensors, held in RAM and updated tensor-by-tensor — the "CPU optimizer
/// buffer" of Fig. 1c. It is the in-memory reference the out-of-core
/// AsyncUpdateEngine is pinned against bitwise.
class ChunkedCpuAdam {
 public:
  explicit ChunkedCpuAdam(const AdamConfig& config) : kernel_(config) {}

  /// Registers a parameter tensor and initializes master weights from the
  /// given fp32 values (moments start at zero).
  Status Register(const std::string& name, std::vector<float> initial_params);

  /// Applies one Adam update for `name` from fp16 gradients. Advances
  /// this tensor's step count.
  Status StepTensor(const std::string& name, const std::vector<Fp16>& grads16);

  /// Read access for tests/checkpointing.
  Result<const std::vector<float>*> MasterParams(const std::string& name) const;

  int64_t num_tensors() const { return static_cast<int64_t>(states_.size()); }

  /// Total fp32 state bytes held (P32 + OS32 = 12 bytes/param).
  int64_t StateBytes() const;

 private:
  struct TensorState {
    std::vector<float> params;
    std::vector<float> exp_avg;
    std::vector<float> exp_avg_sq;
    int64_t step = 0;
  };

  CpuAdamKernel kernel_;
  std::unordered_map<std::string, TensorState> states_;
};

}  // namespace ratel

#endif  // RATEL_OPTIM_CPU_ADAM_H_
