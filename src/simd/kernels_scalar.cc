// Scalar backend: the pre-SIMD kernel loops, verbatim. This TU is the
// numerical reference the AVX2 backend is validated against, and the
// fallback for hosts without AVX2 — it compiles unconditionally (with
// -ffp-contract=off, like every backend) so it can never bit-rot.

#include <algorithm>
#include <cmath>

#include "simd/simd.h"

namespace ratel::simd {
namespace {

// k-panel kept hot in cache inside the NN micro-kernel (matches the
// pre-SIMD ops.cc blocking; the p order stays globally ascending, so
// the blocking never changes a sum's rounding).
constexpr int64_t kKBlock = 128;

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

void GemmNnRows(const float* a, const float* b, float* out, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* o0 = out + i * n;
    float* o1 = o0 + n;
    float* o2 = o1 + n;
    float* o3 = o2 + n;
    for (int64_t p0 = 0; p0 < k; p0 += kKBlock) {
      const int64_t p1 = std::min(k, p0 + kKBlock);
      for (int64_t p = p0; p < p1; ++p) {
        const float* brow = b + p * n;
        const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        for (int64_t j = 0; j < n; ++j) {
          const float bv = brow[j];
          o0[j] += v0 * bv;
          o1[j] += v1 * bv;
          o2[j] += v2 * bv;
          o3[j] += v3 * bv;
        }
      }
    }
  }
  for (; i < i1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (int64_t p0 = 0; p0 < k; p0 += kKBlock) {
      const int64_t p1 = std::min(k, p0 + kKBlock);
      for (int64_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

void GemmTnRows(const float* a, const float* b, float* out, int64_t p0,
                int64_t p1, int64_t m, int64_t k, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    const float* b0 = b + i * n;
    const float* b1 = b0 + n;
    const float* b2 = b1 + n;
    const float* b3 = b2 + n;
    for (int64_t p = p0; p < p1; ++p) {
      const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      float* orow = out + p * n;
      for (int64_t j = 0; j < n; ++j) {
        orow[j] += v0 * b0[j] + v1 * b1[j] + v2 * b2[j] + v3 * b3[j];
      }
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (int64_t p = p0; p < p1; ++p) {
      const float av = arow[p];
      float* orow = out + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void Accumulate(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void Scale(const float* a, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void DiffScale(const float* a, const float* b, float s, float* out,
               int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = (a[i] - b[i]) * s;
}

void GeluFwd(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float t = std::tanh(kGeluC * (v + 0.044715f * v * v * v));
    out[i] = 0.5f * v * (1.0f + t);
  }
}

void GeluBwd(const float* x, const float* g, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float u = kGeluC * (v + 0.044715f * v * v * v);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    const float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    out[i] = g[i] * d;
  }
}

void LayerNormRowFwd(const float* x, const float* gamma, const float* beta,
                     int64_t n, float eps, float* out, float* mean_out,
                     float* inv_std_out) {
  float mean = 0.0f;
  for (int64_t j = 0; j < n; ++j) mean += x[j];
  mean /= n;
  float var = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    const float d = x[j] - mean;
    var += d * d;
  }
  var /= n;
  const float inv_std = 1.0f / std::sqrt(var + eps);
  *mean_out = mean;
  *inv_std_out = inv_std;
  for (int64_t j = 0; j < n; ++j) {
    const float xhat = (x[j] - mean) * inv_std;
    out[j] = xhat * gamma[j] + beta[j];
  }
}

void LayerNormRowBwd(const float* x, const float* g, const float* gamma,
                     float mean, float inv_std, int64_t n, float* dgamma_acc,
                     float* dbeta_acc, float* dx) {
  float sum_dy_xhat = 0.0f, sum_dy = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    const float xhat = (x[j] - mean) * inv_std;
    const float dy = g[j] * gamma[j];
    sum_dy_xhat += dy * xhat;
    sum_dy += dy;
    dgamma_acc[j] += g[j] * xhat;
    dbeta_acc[j] += g[j];
  }
  if (dx != nullptr) {
    for (int64_t j = 0; j < n; ++j) {
      const float xhat = (x[j] - mean) * inv_std;
      const float dy = g[j] * gamma[j];
      dx[j] = inv_std * (dy - sum_dy / n - xhat * sum_dy_xhat / n);
    }
  }
}

void SoftmaxRow(const float* x, float* probs, int64_t n) {
  float maxv = x[0];
  for (int64_t j = 1; j < n; ++j) maxv = std::max(maxv, x[j]);
  double denom = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    const float e = std::exp(x[j] - maxv);
    probs[j] = e;
    denom += e;
  }
  const float fdenom = static_cast<float>(denom);
  for (int64_t j = 0; j < n; ++j) probs[j] /= fdenom;
}

void CeGradRow(const float* probs, int64_t target, float g, float* out,
               int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    float d = probs[j];
    if (j == target) d -= 1.0f;
    out[j] = d * g;
  }
}

void HalvesToFloats(const Fp16* in, float* out, int64_t n, float scale) {
  for (int64_t i = 0; i < n; ++i) out[i] = HalfToFloat(in[i]) * scale;
}

void FloatsToHalves(const float* in, Fp16* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = FloatToHalf(in[i]);
}

void AdamStepF16(const AdamCoeffs& c, int64_t n, const Fp16* g16,
                 float unscale, const float* p_in, const float* m_in,
                 const float* v_in, float* p_out, float* m_out,
                 float* v_out) {
  for (int64_t i = 0; i < n; ++i) {
    const float gi = HalfToFloat(g16[i]) * unscale;
    float m = m_in[i];
    float v = v_in[i];
    m = c.beta1 * m + c.one_minus_beta1 * gi;
    v = c.beta2 * v + c.one_minus_beta2 * gi * gi;
    m_out[i] = m;
    v_out[i] = v;
    float p = p_in[i];
    if (c.weight_decay != 0.0f) p -= c.lr * c.weight_decay * p;
    const float denom = std::sqrt(v) * c.inv_sqrt_bc2 + c.eps;
    p -= c.step_size * m / denom;
    p_out[i] = p;
  }
}

}  // namespace

const KernelTable* ScalarKernels() {
  static const KernelTable table = {
      "scalar",      GemmNnRows,      GemmTnRows,     Add,
      Accumulate,    Scale,           Mul,            DiffScale,
      GeluFwd,       GeluBwd,         LayerNormRowFwd, LayerNormRowBwd,
      SoftmaxRow,    CeGradRow,       HalvesToFloats, FloatsToHalves,
      AdamStepF16,
  };
  return &table;
}

}  // namespace ratel::simd
