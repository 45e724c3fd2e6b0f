#include "xfraud/nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>

#include "xfraud/common/logging.h"
#include "xfraud/common/thread_pool.h"

namespace xfraud::nn::kernels {

namespace {

// ---------------------------------------------------------------------------
// Threading. The kernel layer owns a private pool (never shared with the
// batch loader or DDP pools) and completion is tracked per call with a local
// latch, so concurrent callers — e.g. scoring-service request threads — can
// not observe each other's tasks.

std::mutex g_threads_mu;
int g_num_threads = 1;
std::unique_ptr<xfraud::ThreadPool> g_pool;  // non-null iff g_num_threads > 1

/// Decrements the latch on scope exit (exception-safe without catch-all).
class LatchGuard {
 public:
  LatchGuard(std::mutex* mu, std::condition_variable* cv, int64_t* pending)
      : mu_(mu), cv_(cv), pending_(pending) {}
  ~LatchGuard() {
    std::lock_guard<std::mutex> lock(*mu_);
    if (--*pending_ == 0) cv_->notify_all();
  }

 private:
  std::mutex* mu_;
  std::condition_variable* cv_;
  int64_t* pending_;
};

/// Runs fn over disjoint contiguous ranges covering [0, total). The split
/// only decides *which worker* computes a range; fn must write a disjoint
/// output slice per range with a fixed per-element reduction order, which is
/// what makes any thread count bit-identical (header contract 2).
void ParallelBlocks(int64_t total, int64_t grain,
                    const std::function<void(int64_t, int64_t)>& fn) {
  if (total <= 0) return;
  xfraud::ThreadPool* pool = nullptr;
  int threads = 1;
  {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    threads = g_num_threads;
    pool = g_pool.get();
  }
  int64_t blocks = std::min<int64_t>(threads, (total + grain - 1) / grain);
  if (blocks <= 1 || pool == nullptr) {
    fn(0, total);
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  int64_t pending = blocks;
  int64_t base = total / blocks;
  int64_t rem = total % blocks;
  int64_t begin = 0;
  for (int64_t blk = 0; blk < blocks; ++blk) {
    int64_t len = base + (blk < rem ? 1 : 0);
    int64_t end = begin + len;
    pool->Submit([&mu, &cv, &pending, &fn, begin, end] {
      LatchGuard guard(&mu, &cv, &pending);
      fn(begin, end);
    });
    begin = end;
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&pending] { return pending == 0; });
}

// ---------------------------------------------------------------------------
// GEMM family: one register-tiled micro-kernel, three operand layouts.
//
// Every product computes output rows × output columns by reducing over
// "steps" (k for GemmBiasAct, j for GemmTransBAdd, i for GemmTransAAdd).
// The right-hand operand is read as panels of kJTile output columns, one
// row per step (zero-padded past the right edge). The micro-kernel holds a
// kITile x kJTile accumulator block in registers and reduces over the steps
// in ascending order; the epilogue decides where the accumulator starts and
// how it lands in C, which is what makes each product's per-element order
// match its naive reference exactly (DESIGN.md §13.1).

constexpr int64_t kITile = 4;
constexpr int64_t kJTile = 16;

inline float ApplyAct(float x, Activation act) {
  return act == Activation::kRelu ? (x > 0.0f ? x : 0.0f) : x;
}

/// The three products of the family. Each fixes, at compile time, an
/// operand layout and an epilogue (where the accumulator starts and how it
/// lands in C):
///   kBiasAct  C = act(A·B + bias)  lhs A row-major, B packed; acc from 0,
///                                  C = act(acc + bias)
///   kTransB   dA += G·Bᵀ           lhs G row-major, Bᵀ packed; acc from 0,
///                                  C += acc
///   kTransA   dB += Aᵀ·G           lhs A read transposed, G's rows in
///                                  place; acc from C, C = acc
/// Compile-time strides keep the packed products' inner loop as tight as a
/// hand-written one.
enum class Product { kBiasAct, kTransB, kTransA };

/// One product in micro-kernel terms. Output row r's left-hand value at
/// step s is lhs[r·ld + s], or lhs[s·ld + r] for kTransA. Panel p (output
/// columns [p·kJTile, p·kJTile + kJTile)) starts at panels + p·panel_step
/// and its step rows are kJTile floats apart, or `panel_stride` for
/// kTransA, whose non-null `edge` replaces the ragged last panel with a
/// packed steps x kJTile block.
struct PanelGemm {
  const float* lhs = nullptr;
  int64_t ld = 0;
  int64_t steps = 0;
  const float* panels = nullptr;
  int64_t panel_step = 0;
  int64_t panel_stride = kJTile;
  const float* edge = nullptr;
  float* c = nullptr;
  int64_t ldc = 0;
  int64_t cols = 0;
  const float* bias = nullptr;
  Activation act = Activation::kNone;
};

/// acc[r][:] += lhs(r, s) · panel[s][:] for s ascending — the single inner
/// loop of every GEMM here. No term is skipped, so 0·NaN propagates.
template <int64_t R, Product P>
inline void MicroKernel(const float* lhs, int64_t ld, const float* panel,
                        int64_t panel_stride, int64_t steps,
                        float (&acc)[R][kJTile]) {
  constexpr bool kTransposed = P == Product::kTransA;
  const int64_t lhs_step = kTransposed ? ld : 1;
  const int64_t stride = kTransposed ? panel_stride : kJTile;
  const float* rows[R];
  for (int64_t r = 0; r < R; ++r) rows[r] = lhs + r * (kTransposed ? 1 : ld);
  for (int64_t s = 0; s < steps; ++s) {
    const float* p = panel + s * stride;
    float v[R];
    for (int64_t r = 0; r < R; ++r) v[r] = rows[r][s * lhs_step];
    for (int64_t j = 0; j < kJTile; ++j) {
      float bj = p[j];
      for (int64_t r = 0; r < R; ++r) acc[r][j] += v[r] * bj;
    }
  }
}

/// C rows [i, i+R) x panel columns [j0, j0+jw). Lanes past jw are computed
/// and discarded.
template <int64_t R, Product P>
void GemmTile(const PanelGemm& gm, int64_t i, const float* panel,
              int64_t panel_stride, int64_t j0, int64_t jw) {
  float acc[R][kJTile] = {};
  if constexpr (P == Product::kTransA) {
    for (int64_t r = 0; r < R; ++r) {
      const float* crow = gm.c + (i + r) * gm.ldc + j0;
      for (int64_t j = 0; j < jw; ++j) acc[r][j] = crow[j];
    }
  }
  const float* lhs = P == Product::kTransA ? gm.lhs + i : gm.lhs + i * gm.ld;
  MicroKernel<R, P>(lhs, gm.ld, panel, panel_stride, gm.steps, acc);
  for (int64_t r = 0; r < R; ++r) {
    float* crow = gm.c + (i + r) * gm.ldc + j0;
    for (int64_t j = 0; j < jw; ++j) {
      if constexpr (P == Product::kBiasAct) {
        float v = acc[r][j];
        if (gm.bias != nullptr) v += gm.bias[j0 + j];
        crow[j] = ApplyAct(v, gm.act);
      } else if constexpr (P == Product::kTransB) {
        crow[j] += acc[r][j];
      } else {
        crow[j] = acc[r][j];
      }
    }
  }
}

/// Output rows [i0, i_end), every panel. Rows go in chunks so a chunk of the
/// left-hand operand stays L1-resident while every panel sweeps over it
/// (panel inner, chunk outer); within a chunk, kITile-row tiles then single
/// remainder rows. Any i0 works — tiles need no alignment.
template <Product P>
void GemmRows(const PanelGemm& gm, int64_t i0, int64_t i_end) {
  constexpr int64_t kRowChunk = 128;
  int64_t num_panels = (gm.cols + kJTile - 1) / kJTile;
  for (int64_t ic = i0; ic < i_end; ic += kRowChunk) {
    int64_t ic_end = std::min<int64_t>(ic + kRowChunk, i_end);
    for (int64_t p = 0; p < num_panels; ++p) {
      int64_t j0 = p * kJTile;
      int64_t jw = std::min<int64_t>(kJTile, gm.cols - j0);
      const float* panel = gm.panels + p * gm.panel_step;
      int64_t stride = gm.panel_stride;
      if (jw < kJTile && gm.edge != nullptr) {
        panel = gm.edge;
        stride = kJTile;
      }
      int64_t i = ic;
      for (; i + kITile <= ic_end; i += kITile) {
        GemmTile<kITile, P>(gm, i, panel, stride, j0, jw);
      }
      for (; i < ic_end; ++i) GemmTile<1, P>(gm, i, panel, stride, j0, jw);
    }
  }
}

/// Grow-only packing buffer of the calling thread; each GEMM call takes it
/// once. Packed panels are written before the parallel section and only
/// read inside it, and the caller blocks on the latch until every worker is
/// done, so one buffer per calling thread is never shared between two live
/// calls. Never returns null (even for a zero-size request).
float* PackScratch(int64_t floats) {
  thread_local std::vector<float> buf;
  size_t want = static_cast<size_t>(std::max<int64_t>(floats, 1));
  if (buf.size() < want) buf.resize(want);
  return buf.data();
}

/// Packs src's columns [j0, j0 + kJTile) into a src.rows() x kJTile block,
/// zero-filling columns past src's edge.
void PackColumns(const Tensor& src, int64_t j0, float* out) {
  int64_t jw = std::min<int64_t>(kJTile, src.cols() - j0);
  for (int64_t s = 0; s < src.rows(); ++s) {
    const float* srow = src.Row(s) + j0;
    float* orow = out + s * kJTile;
    int64_t j = 0;
    for (; j < jw; ++j) orow[j] = srow[j];
    for (; j < kJTile; ++j) orow[j] = 0.0f;
  }
}

/// Packs src's rows [r0, r0 + kJTile) transposed: a src.cols() x kJTile
/// block whose step-s row holds src[r0 .. r0+kJTile)[s], zero-filling rows
/// past src's edge.
void PackRowsTransposed(const Tensor& src, int64_t r0, float* out) {
  int64_t rw = std::min<int64_t>(kJTile, src.rows() - r0);
  int64_t steps = src.cols();
  for (int64_t s = 0; s < steps; ++s) {
    float* orow = out + s * kJTile;
    for (int64_t r = rw; r < kJTile; ++r) orow[r] = 0.0f;
  }
  for (int64_t r = 0; r < rw; ++r) {
    const float* srow = src.Row(r0 + r);
    for (int64_t s = 0; s < steps; ++s) out[s * kJTile + r] = srow[s];
  }
}

}  // namespace

void SetNumThreads(int n) {
  if (n < 1) n = 1;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  if (n == g_num_threads) return;
  g_pool.reset();
  g_num_threads = n;
  if (n > 1) g_pool = std::make_unique<xfraud::ThreadPool>(static_cast<size_t>(n));
}

int NumThreads() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  return g_num_threads;
}

void GemmBiasAct(const Tensor& a, const Tensor& b, const float* bias,
                 Activation act, Tensor* c) {
  XF_CHECK_EQ(a.cols(), b.rows());
  XF_CHECK_EQ(c->rows(), a.rows());
  XF_CHECK_EQ(c->cols(), b.cols());
  int64_t n = a.rows();
  int64_t k_dim = b.rows();
  int64_t m = b.cols();
  if (n == 0 || m == 0) return;
  if (k_dim == 0) {
    for (int64_t i = 0; i < n; ++i) {
      float* crow = c->Row(i);
      for (int64_t j = 0; j < m; ++j) {
        crow[j] = ApplyAct(bias != nullptr ? bias[j] : 0.0f, act);
      }
    }
    return;
  }
  // C[i][j] = act(Σ_k A[i][k]·B[k][j] + bias[j]): rows i, columns j, steps
  // k. B's column panels are packed once, then shared read-only by every
  // row block.
  int64_t num_panels = (m + kJTile - 1) / kJTile;
  float* packed = PackScratch(num_panels * k_dim * kJTile);
  for (int64_t p = 0; p < num_panels; ++p) {
    PackColumns(b, p * kJTile, packed + p * k_dim * kJTile);
  }
  const PanelGemm gm{.lhs = a.data(),
                     .ld = k_dim,
                     .steps = k_dim,
                     .panels = packed,
                     .panel_step = k_dim * kJTile,
                     .c = c->data(),
                     .ldc = m,
                     .cols = m,
                     .bias = bias,
                     .act = act};
  ParallelBlocks(n, /*grain=*/kITile * 8, [&](int64_t i0, int64_t i_end) {
    GemmRows<Product::kBiasAct>(gm, i0, i_end);
  });
}

void Gemm(const Tensor& a, const Tensor& b, Tensor* c) {
  GemmBiasAct(a, b, /*bias=*/nullptr, Activation::kNone, c);
}

void GemmTransBAdd(const Tensor& g, const Tensor& b, Tensor* da) {
  XF_CHECK_EQ(g.cols(), b.cols());
  XF_CHECK_EQ(da->rows(), g.rows());
  XF_CHECK_EQ(da->cols(), b.rows());
  int64_t n = g.rows();
  int64_t m = g.cols();
  int64_t k_dim = b.rows();
  if (n == 0 || k_dim == 0) return;
  // dA[i][k] += Σ_j G[i][j]·B[k][j]: rows i, columns k, steps j. Panel p is
  // Bᵀ's columns [16p, 16p+16), i.e. B's rows, packed [m][16]. The
  // accumulator starts at 0 and is added once — the reference's
  // `acc = 0; acc += g·b; da += acc` (also for m = 0: da += 0).
  int64_t num_panels = (k_dim + kJTile - 1) / kJTile;
  float* packed = PackScratch(num_panels * m * kJTile);
  for (int64_t p = 0; p < num_panels; ++p) {
    PackRowsTransposed(b, p * kJTile, packed + p * m * kJTile);
  }
  const PanelGemm gm{.lhs = g.data(),
                     .ld = m,
                     .steps = m,
                     .panels = packed,
                     .panel_step = m * kJTile,
                     .c = da->data(),
                     .ldc = k_dim,
                     .cols = k_dim};
  ParallelBlocks(n, /*grain=*/kITile * 8, [&](int64_t i0, int64_t i_end) {
    GemmRows<Product::kTransB>(gm, i0, i_end);
  });
}

void GemmTransAAdd(const Tensor& a, const Tensor& g, Tensor* db) {
  XF_CHECK_EQ(a.rows(), g.rows());
  XF_CHECK_EQ(db->rows(), a.cols());
  XF_CHECK_EQ(db->cols(), g.cols());
  int64_t n = a.rows();
  int64_t k_dim = a.cols();
  int64_t m = g.cols();
  if (n == 0 || k_dim == 0 || m == 0) return;
  // dB[k][j] += Σ_i A[i][k]·G[i][j]: rows k, columns j, steps i. Each step
  // reads A[i][k..k+4) and G's row i, which already is a full panel's step
  // row; only the ragged right edge is packed. The accumulator starts from
  // dB and is stored back — the reference's in-place `db += a·g`, i
  // ascending.
  float* edge = nullptr;
  if (m % kJTile != 0) {
    edge = PackScratch(n * kJTile);
    PackColumns(g, m - m % kJTile, edge);
  }
  const PanelGemm gm{.lhs = a.data(),
                     .ld = k_dim,
                     .steps = n,
                     .panels = g.data(),
                     .panel_step = kJTile,
                     .panel_stride = m,
                     .edge = edge,
                     .c = db->data(),
                     .ldc = m,
                     .cols = m};
  // Parallel over disjoint k blocks (rows of dB), at least one tile each; a
  // block may start off a kITile boundary.
  ParallelBlocks(k_dim, /*grain=*/kITile, [&](int64_t k0, int64_t k_end) {
    GemmRows<Product::kTransA>(gm, k0, k_end);
  });
}

void ColSumAdd(const Tensor& g, Tensor* gb) {
  XF_CHECK_EQ(gb->rows(), 1);
  XF_CHECK_EQ(gb->cols(), g.cols());
  float* out = gb->Row(0);
  int64_t m = g.cols();
  for (int64_t r = 0; r < g.rows(); ++r) {
    const float* grow = g.Row(r);
    for (int64_t c = 0; c < m; ++c) out[c] += grow[c];
  }
}

RowGroups BuildRowGroups(const std::vector<int32_t>& group_of_row,
                         int64_t num_groups) {
  RowGroups out;
  out.num_groups = num_groups;
  out.offsets.assign(static_cast<size_t>(num_groups) + 1, 0);
  for (int32_t gid : group_of_row) {
    XF_CHECK_GE(gid, 0);
    XF_CHECK_LT(gid, num_groups);
    ++out.offsets[static_cast<size_t>(gid) + 1];
  }
  for (int64_t s = 0; s < num_groups; ++s) {
    out.offsets[static_cast<size_t>(s) + 1] +=
        out.offsets[static_cast<size_t>(s)];
  }
  out.rows.resize(group_of_row.size());
  std::vector<int64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (size_t r = 0; r < group_of_row.size(); ++r) {
    out.rows[static_cast<size_t>(cursor[group_of_row[r]]++)] =
        static_cast<int32_t>(r);
  }
  return out;
}

void GatherRows(const Tensor& a, const std::vector<int32_t>& idx,
                Tensor* out) {
  XF_CHECK_EQ(out->rows(), static_cast<int64_t>(idx.size()));
  XF_CHECK_EQ(out->cols(), a.cols());
  int64_t m = a.cols();
  if (NumThreads() <= 1) {
    // Serial fast path: bounds checks fold into the copy loop (one pass
    // over idx instead of two).
    for (size_t i = 0; i < idx.size(); ++i) {
      int32_t src = idx[i];
      XF_CHECK_GE(src, 0);
      XF_CHECK_LT(src, a.rows());
      const float* srow = a.Row(src);
      std::copy(srow, srow + m, out->Row(static_cast<int64_t>(i)));
    }
    return;
  }
  // Parallel: validate up front so a bad index throws on the caller's
  // thread, not inside a worker.
  for (int32_t src : idx) {
    XF_CHECK_GE(src, 0);
    XF_CHECK_LT(src, a.rows());
  }
  ParallelBlocks(
      static_cast<int64_t>(idx.size()), /*grain=*/256,
      [&](int64_t i0, int64_t i_end) {
        for (int64_t i = i0; i < i_end; ++i) {
          const float* src = a.Row(idx[static_cast<size_t>(i)]);
          std::copy(src, src + m, out->Row(i));
        }
      });
}

void ScatterAddGrouped(const Tensor& a, const RowGroups& groups, Tensor* out) {
  XF_CHECK_EQ(out->rows(), groups.num_groups);
  XF_CHECK_EQ(out->cols(), a.cols());
  XF_CHECK_EQ(static_cast<int64_t>(groups.rows.size()), a.rows());
  int64_t m = a.cols();
  ParallelBlocks(groups.num_groups, /*grain=*/64,
                 [&](int64_t g0, int64_t g_end) {
                   for (int64_t gid = g0; gid < g_end; ++gid) {
                     float* orow = out->Row(gid);
                     for (int64_t e = groups.offsets[static_cast<size_t>(gid)];
                          e < groups.offsets[static_cast<size_t>(gid) + 1];
                          ++e) {
                       const float* arow =
                           a.Row(groups.rows[static_cast<size_t>(e)]);
                       for (int64_t c = 0; c < m; ++c) orow[c] += arow[c];
                     }
                   }
                 });
}

void ScatterAddRowsKernel(const Tensor& a, const std::vector<int32_t>& idx,
                          Tensor* out) {
  XF_CHECK_EQ(a.rows(), static_cast<int64_t>(idx.size()));
  XF_CHECK_EQ(out->cols(), a.cols());
  if (NumThreads() <= 1) {
    // Serial fast path: stream a in row order, no group build. Each output
    // row still accumulates its contributions ascending in r — the same
    // per-element order as the grouped version, so bit-identical.
    int64_t m = a.cols();
    int64_t rows = out->rows();
    for (size_t r = 0; r < idx.size(); ++r) {
      int32_t d = idx[r];
      XF_CHECK_GE(d, 0);
      XF_CHECK_LT(d, rows);
      const float* arow = a.Row(static_cast<int64_t>(r));
      float* orow = out->Row(d);
      for (int64_t c = 0; c < m; ++c) orow[c] += arow[c];
    }
    return;
  }
  RowGroups groups = BuildRowGroups(idx, out->rows());
  ScatterAddGrouped(a, groups, out);
}

void GatherAddRows(const Tensor& g, const std::vector<int32_t>& idx,
                   Tensor* out) {
  XF_CHECK_EQ(out->rows(), static_cast<int64_t>(idx.size()));
  XF_CHECK_EQ(out->cols(), g.cols());
  int64_t m = g.cols();
  ParallelBlocks(
      static_cast<int64_t>(idx.size()), /*grain=*/256,
      [&](int64_t i0, int64_t i_end) {
        for (int64_t i = i0; i < i_end; ++i) {
          const float* grow = g.Row(idx[static_cast<size_t>(i)]);
          float* orow = out->Row(i);
          for (int64_t c = 0; c < m; ++c) orow[c] += grow[c];
        }
      });
}

void SegmentSoftmaxGrouped(const Tensor& scores, const RowGroups& groups,
                           Tensor* att) {
  XF_CHECK_EQ(att->rows(), scores.rows());
  XF_CHECK_EQ(att->cols(), scores.cols());
  XF_CHECK_EQ(static_cast<int64_t>(groups.rows.size()), scores.rows());
  int64_t h = scores.cols();
  ParallelBlocks(groups.num_groups, /*grain=*/64, [&](int64_t g0,
                                                      int64_t g_end) {
    std::vector<float> seg_max(static_cast<size_t>(h));
    std::vector<float> seg_sum(static_cast<size_t>(h));
    for (int64_t gid = g0; gid < g_end; ++gid) {
      int64_t begin = groups.offsets[static_cast<size_t>(gid)];
      int64_t end = groups.offsets[static_cast<size_t>(gid) + 1];
      if (begin == end) continue;
      std::fill(seg_max.begin(), seg_max.end(),
                -std::numeric_limits<float>::infinity());
      std::fill(seg_sum.begin(), seg_sum.end(), 0.0f);
      for (int64_t e = begin; e < end; ++e) {
        const float* srow = scores.Row(groups.rows[static_cast<size_t>(e)]);
        for (int64_t c = 0; c < h; ++c) {
          seg_max[static_cast<size_t>(c)] =
              std::max(seg_max[static_cast<size_t>(c)], srow[c]);
        }
      }
      for (int64_t e = begin; e < end; ++e) {
        int32_t r = groups.rows[static_cast<size_t>(e)];
        const float* srow = scores.Row(r);
        float* arow = att->Row(r);
        for (int64_t c = 0; c < h; ++c) {
          float v = std::exp(srow[c] - seg_max[static_cast<size_t>(c)]);
          arow[c] = v;
          seg_sum[static_cast<size_t>(c)] += v;
        }
      }
      for (int64_t e = begin; e < end; ++e) {
        float* arow = att->Row(groups.rows[static_cast<size_t>(e)]);
        for (int64_t c = 0; c < h; ++c) {
          arow[c] /= seg_sum[static_cast<size_t>(c)];
        }
      }
    }
  });
}

void WeightedScatterAddGrouped(const Tensor& v, const Tensor& w,
                               const RowGroups& groups, int64_t head_dim,
                               Tensor* out) {
  XF_CHECK_EQ(v.rows(), w.rows());
  XF_CHECK_EQ(w.cols() * head_dim, v.cols());
  XF_CHECK_EQ(out->rows(), groups.num_groups);
  XF_CHECK_EQ(out->cols(), v.cols());
  XF_CHECK_EQ(static_cast<int64_t>(groups.rows.size()), v.rows());
  int64_t heads = w.cols();
  ParallelBlocks(groups.num_groups, /*grain=*/64,
                 [&](int64_t g0, int64_t g_end) {
                   for (int64_t gid = g0; gid < g_end; ++gid) {
                     float* orow = out->Row(gid);
                     for (int64_t e = groups.offsets[static_cast<size_t>(gid)];
                          e < groups.offsets[static_cast<size_t>(gid) + 1];
                          ++e) {
                       int32_t r = groups.rows[static_cast<size_t>(e)];
                       const float* vrow = v.Row(r);
                       const float* wrow = w.Row(r);
                       for (int64_t h = 0; h < heads; ++h) {
                         float wv = wrow[h];
                         int64_t off = h * head_dim;
                         for (int64_t c = 0; c < head_dim; ++c) {
                           orow[off + c] += wv * vrow[off + c];
                         }
                       }
                     }
                   }
                 });
}

void WeightedGatherAdd(const Tensor& gout, const std::vector<int32_t>& dst,
                       const Tensor& w, int64_t head_dim, Tensor* dv) {
  XF_CHECK_EQ(dv->rows(), static_cast<int64_t>(dst.size()));
  XF_CHECK_EQ(dv->rows(), w.rows());
  XF_CHECK_EQ(w.cols() * head_dim, dv->cols());
  XF_CHECK_EQ(gout.cols(), dv->cols());
  int64_t heads = w.cols();
  ParallelBlocks(
      dv->rows(), /*grain=*/256, [&](int64_t r0, int64_t r_end) {
        for (int64_t r = r0; r < r_end; ++r) {
          const float* grow = gout.Row(dst[static_cast<size_t>(r)]);
          const float* wrow = w.Row(r);
          float* dvrow = dv->Row(r);
          for (int64_t h = 0; h < heads; ++h) {
            float wv = wrow[h];
            int64_t off = h * head_dim;
            for (int64_t c = 0; c < head_dim; ++c) {
              dvrow[off + c] += wv * grow[off + c];
            }
          }
        }
      });
}

void PerHeadDots(const Tensor& gout, const std::vector<int32_t>& dst,
                 const Tensor& v, int64_t head_dim, Tensor* dw) {
  XF_CHECK_EQ(dw->rows(), static_cast<int64_t>(dst.size()));
  XF_CHECK_EQ(dw->rows(), v.rows());
  XF_CHECK_EQ(dw->cols() * head_dim, v.cols());
  XF_CHECK_EQ(gout.cols(), v.cols());
  int64_t heads = dw->cols();
  ParallelBlocks(
      dw->rows(), /*grain=*/256, [&](int64_t r0, int64_t r_end) {
        for (int64_t r = r0; r < r_end; ++r) {
          const float* grow = gout.Row(dst[static_cast<size_t>(r)]);
          const float* vrow = v.Row(r);
          float* dwrow = dw->Row(r);
          for (int64_t h = 0; h < heads; ++h) {
            int64_t off = h * head_dim;
            float acc = 0.0f;
            for (int64_t c = 0; c < head_dim; ++c) {
              acc += grow[off + c] * vrow[off + c];
            }
            dwrow[h] = acc;
          }
        }
      });
}

void SegmentSoftmaxBackwardGrouped(const Tensor& att, const Tensor& datt,
                                   const RowGroups& groups, Tensor* dscores) {
  XF_CHECK_SHAPE(att, datt);
  XF_CHECK_EQ(dscores->rows(), att.rows());
  XF_CHECK_EQ(dscores->cols(), att.cols());
  XF_CHECK_EQ(static_cast<int64_t>(groups.rows.size()), att.rows());
  int64_t h = att.cols();
  ParallelBlocks(groups.num_groups, /*grain=*/64, [&](int64_t g0,
                                                      int64_t g_end) {
    std::vector<float> dot(static_cast<size_t>(h));
    for (int64_t gid = g0; gid < g_end; ++gid) {
      int64_t begin = groups.offsets[static_cast<size_t>(gid)];
      int64_t end = groups.offsets[static_cast<size_t>(gid) + 1];
      if (begin == end) continue;
      std::fill(dot.begin(), dot.end(), 0.0f);
      for (int64_t e = begin; e < end; ++e) {
        int32_t r = groups.rows[static_cast<size_t>(e)];
        const float* arow = att.Row(r);
        const float* grow = datt.Row(r);
        for (int64_t c = 0; c < h; ++c) {
          dot[static_cast<size_t>(c)] += arow[c] * grow[c];
        }
      }
      for (int64_t e = begin; e < end; ++e) {
        int32_t r = groups.rows[static_cast<size_t>(e)];
        const float* arow = att.Row(r);
        const float* grow = datt.Row(r);
        float* drow = dscores->Row(r);
        for (int64_t c = 0; c < h; ++c) {
          drow[c] += arow[c] * (grow[c] - dot[static_cast<size_t>(c)]);
        }
      }
    }
  });
}

namespace reference {

void Gemm(const Tensor& a, const Tensor& b, Tensor* c) {
  XF_CHECK_EQ(a.cols(), b.rows());
  XF_CHECK_EQ(c->rows(), a.rows());
  XF_CHECK_EQ(c->cols(), b.cols());
  c->Fill(0.0f);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    for (int64_t k = 0; k < a.cols(); ++k) {
      float aik = arow[k];  // no zero-skip: 0·NaN and 0·Inf must propagate
      const float* brow = b.Row(k);
      for (int64_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
}

void GemmTransBAdd(const Tensor& g, const Tensor& b, Tensor* da) {
  XF_CHECK_EQ(g.cols(), b.cols());
  XF_CHECK_EQ(da->rows(), g.rows());
  XF_CHECK_EQ(da->cols(), b.rows());
  for (int64_t i = 0; i < g.rows(); ++i) {
    const float* grow = g.Row(i);
    float* darow = da->Row(i);
    for (int64_t k = 0; k < b.rows(); ++k) {
      const float* brow = b.Row(k);
      float acc = 0.0f;
      for (int64_t j = 0; j < b.cols(); ++j) acc += grow[j] * brow[j];
      darow[k] += acc;
    }
  }
}

void GemmTransAAdd(const Tensor& a, const Tensor& g, Tensor* db) {
  XF_CHECK_EQ(a.rows(), g.rows());
  XF_CHECK_EQ(db->rows(), a.cols());
  XF_CHECK_EQ(db->cols(), g.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    const float* grow = g.Row(i);
    for (int64_t k = 0; k < a.cols(); ++k) {
      float aik = arow[k];
      float* dbrow = db->Row(k);
      for (int64_t j = 0; j < g.cols(); ++j) dbrow[j] += aik * grow[j];
    }
  }
}

}  // namespace reference

}  // namespace xfraud::nn::kernels
