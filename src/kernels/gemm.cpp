// Register-tiled SGEMM with in-place (implicit) operands.
//
// Structure (BLIS-style, scalar C++ left to the auto-vectorizer):
//
//   * the output is cut into fixed MC×NC tiles; each tile is an independent
//     task on the intra-rank pool (parallel_for over the tile grid);
//   * per tile, the k dimension is walked in KC blocks; op(A) and op(B)
//     sub-panels are packed into contiguous MR-/NR-strips, with alpha
//     folded into the A panel;
//   * a 4×24 register-tile micro-kernel accumulates each strip pair, and
//     the tile's epilogue adds the accumulators into C.
//
// The packers are the only operand-specific code. Every operand (A, B and
// C) is a MatrixView — element (i, j) at base[off + rows(i) + cols(j)] —
// so a plain matrix (sgemm, transposed or not) and a convolution lowering
// read from a margin buffer (gemm, see conv.cpp) go through the same
// gather: per tile and k-block, the row and column offsets are tabulated
// and each NR-strip is copied with a unit-stride or constant-stride loop
// when its columns are evenly spaced, and with a table gather otherwise.
//
// The 4-row micro-tile keeps narrow layers dense: 8-, 12-, 16- and
// 24-filter convolutions fill every row strip, and the 24-wide column
// strip reuses each broadcast A value three vector registers deep.
//
// Determinism: the tile grid and KC blocking are compile-time constants, so
// every C element sees the same ascending-k accumulation chain regardless
// of the thread budget, of how the caller splits the n range, or of the
// micro-tile shape (edge tiles are zero-padded to full micro-tiles rather
// than taking a different code path). That keeps results bit-identical
// across DC_NUM_THREADS settings and across the interior/boundary range
// splits of the halo-overlap path.
#include "kernels/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "support/intmath.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {
namespace {

constexpr std::int64_t kMr = 4;    ///< micro-tile rows (register accumulators)
constexpr std::int64_t kMc = 96;   ///< rows per task tile (multiple of kMr)
constexpr std::int64_t kNr = 24;   ///< micro-tile cols (three AVX2 vectors)
constexpr std::int64_t kNc = 192;  ///< cols per task tile (multiple of kNr)
constexpr std::int64_t kKc = 256;  ///< k-block length (fixed => fixed chains)

/// acc[kMr][kNr] = Ap-strip · Bp-strip over kc steps — the register tile.
/// GCC/Clang vector extensions pin the 4×24 accumulator into 12 8-wide
/// vector registers (broadcast-FMA per k step); the scalar fallback keeps
/// the identical per-element ascending-k chain for other compilers.
#if defined(__GNUC__) || defined(__clang__)
typedef float vf8 __attribute__((vector_size(32), aligned(4)));

inline void micro_kernel(std::int64_t kc, const float* __restrict ap,
                         const float* __restrict bp, float (*acc)[kNr]) {
  static_assert(kMr == 4 && kNr == 24, "micro-kernel is specialized to 4x24");
  vf8 r0a{}, r0b{}, r0c{}, r1a{}, r1b{}, r1c{};
  vf8 r2a{}, r2b{}, r2c{}, r3a{}, r3b{}, r3c{};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    const vf8 b0 = *reinterpret_cast<const vf8*>(brow);
    const vf8 b1 = *reinterpret_cast<const vf8*>(brow + 8);
    const vf8 b2 = *reinterpret_cast<const vf8*>(brow + 16);
    r0a += arow[0] * b0; r0b += arow[0] * b1; r0c += arow[0] * b2;
    r1a += arow[1] * b0; r1b += arow[1] * b1; r1c += arow[1] * b2;
    r2a += arow[2] * b0; r2b += arow[2] * b1; r2c += arow[2] * b2;
    r3a += arow[3] * b0; r3b += arow[3] * b1; r3c += arow[3] * b2;
  }
  vf8* out = reinterpret_cast<vf8*>(acc);
  out[0] = r0a; out[1] = r0b; out[2] = r0c;
  out[3] = r1a; out[4] = r1b; out[5] = r1c;
  out[6] = r2a; out[7] = r2b; out[8] = r2c;
  out[9] = r3a; out[10] = r3b; out[11] = r3c;
}
#else
inline void micro_kernel(std::int64_t kc, const float* __restrict ap,
                         const float* __restrict bp, float (*acc)[kNr]) {
  for (std::int64_t r = 0; r < kMr; ++r) {
    for (std::int64_t c = 0; c < kNr; ++c) acc[r][c] = 0.0f;
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (std::int64_t c = 0; c < kNr; ++c) acc[r][c] += av * brow[c];
    }
  }
}
#endif

/// A column strip's offsets as at most two runs sharing one spacing: runs
/// [0, split) and [split, kNr), each an arithmetic progression with step
/// `step`. A strip of conv positions crosses at most one row boundary when
/// rows are at least kNr wide. step == 0: irregular, ragged or partly
/// masked — gathered through the offset table instead.
struct Runs {
  std::int64_t step = 0, split = kNr;
};

/// Per-thread packing scratch and offset tables, reused across tasks.
struct Scratch {
  std::vector<float> ap, bp, stage, ct;
  std::int64_t a_rows[kMc], a_cols[kKc], b_rows[kKc], b_cols[kNc];
  std::int64_t c_rows[kMc], c_cols[kNc];
  std::int64_t c_mid[kNc], c_inner[kNc];  ///< C column digits (term windows)
  bool valid[kNc];
  bool strip_full[kNc / kNr];  ///< whole strip, no column masked
  Runs b_runs[kNc / kNr], c_runs[kNc / kNr];  ///< per column strip
};
Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// out[t] = map(start + t) for t < count, stepping the digits instead of
/// dividing per index. With `mid`/`inner` non-null, also records each
/// index's mid and inner digit.
void fill_offsets(const IndexMap& map, std::int64_t start, std::int64_t count,
                  std::int64_t* out, std::int64_t* mid = nullptr,
                  std::int64_t* inner = nullptr) {
  std::int64_t e = start % map.inner;
  std::int64_t q = start / map.inner;
  std::int64_t d = q % map.mid;
  std::int64_t o = q / map.mid;
  std::int64_t row = o * map.s_outer + d * map.s_mid;
  for (std::int64_t t = 0; t < count; ++t) {
    out[t] = row + e * map.s_inner;
    if (mid != nullptr) {
      mid[t] = d;
      inner[t] = e;
    }
    if (++e == map.inner) {
      e = 0;
      if (++d == map.mid) {
        d = 0;
        ++o;
      }
      row = o * map.s_outer + d * map.s_mid;
    }
  }
}

bool same_map(const IndexMap& x, const IndexMap& y) {
  return x.mid == y.mid && x.inner == y.inner && x.s_outer == y.s_outer &&
         x.s_mid == y.s_mid && x.s_inner == y.s_inner;
}

/// Classify the kNr offsets of a full, unmasked strip.
Runs runs_of(const std::int64_t* offs) {
  for (const std::int64_t step :
       {offs[1] - offs[0], offs[kNr - 1] - offs[kNr - 2]}) {
    if (step == 0) continue;
    Runs r{step, kNr};
    bool ok = true;
    for (std::int64_t c = 1; ok && c < kNr; ++c) {
      if (offs[c] - offs[c - 1] == step) continue;
      ok = r.split == kNr;
      r.split = c;
    }
    if (ok) return r;
  }
  return Runs{};
}

/// Pack op(A)[i0:i1, p0:p1] (alpha folded in) into kMr-row strips laid out
/// [strip][kk][kMr]; rows past i1 are zero so edge strips run the full
/// micro-kernel unchanged. s.a_rows holds the rows' offsets.
void pack_a(const MatrixView<const float>& a, float alpha, std::int64_t rows,
            std::int64_t p0, std::int64_t p1, Scratch& s) {
  const std::int64_t kc = p1 - p0;
  fill_offsets(a.cols, p0, kc, s.a_cols);
  const float* base = a.base + a.off;
  for (std::int64_t s0 = 0; s0 < rows; s0 += kMr) {
    float* dst = s.ap.data() + s0 * kc;
    for (std::int64_t kk = 0; kk < kc; ++kk, dst += kMr) {
      const float* col = base + s.a_cols[kk];
      for (std::int64_t r = 0; r < kMr; ++r) {
        const std::int64_t i = s0 + r;
        dst[r] = i < rows ? alpha * col[s.a_rows[i]] : 0.0f;
      }
    }
  }
}

/// Pack op(B)[p0:p1, tile columns] into kNr-column strips laid out
/// [strip][kk][kNr]; masked columns and columns past the tile are zero and
/// never read. s.b_cols / s.valid / s.strip_full / s.b_runs describe the
/// tile's columns.
void pack_b(const MatrixView<const float>& b, std::int64_t cols,
            std::int64_t p0, std::int64_t p1, Scratch& s) {
  const std::int64_t kc = p1 - p0;
  fill_offsets(b.rows, p0, kc, s.b_rows);
  const float* base = b.base + b.off;
  for (std::int64_t t0 = 0; t0 < cols; t0 += kNr) {
    float* dst = s.bp.data() + t0 * kc;
    const std::int64_t* co = s.b_cols + t0;
    const Runs runs = s.b_runs[t0 / kNr];
    const std::int64_t step = runs.step, split = runs.split;
    if (step == 1 && split == kNr) {
      for (std::int64_t kk = 0; kk < kc; ++kk, dst += kNr) {
        std::memcpy(dst, base + s.b_rows[kk] + co[0], kNr * sizeof(float));
      }
    } else if (step == 1) {
      for (std::int64_t kk = 0; kk < kc; ++kk, dst += kNr) {
        std::memcpy(dst, base + s.b_rows[kk] + co[0], split * sizeof(float));
        std::memcpy(dst + split, base + s.b_rows[kk] + co[split],
                    (kNr - split) * sizeof(float));
      }
    } else if (step == 2 && split == kNr) {  // downsampling convolutions
      for (std::int64_t kk = 0; kk < kc; ++kk, dst += kNr) {
        const float* src = base + s.b_rows[kk] + co[0];
        for (std::int64_t c = 0; c < kNr; ++c) dst[c] = src[2 * c];
      }
    } else if (step != 0) {
      for (std::int64_t kk = 0; kk < kc; ++kk, dst += kNr) {
        const float* src0 = base + s.b_rows[kk] + co[0];
        const float* src1 = base + s.b_rows[kk] + co[split];
        for (std::int64_t c = 0; c < split; ++c) dst[c] = src0[c * step];
        for (std::int64_t c = split; c < kNr; ++c) {
          dst[c] = src1[(c - split) * step];
        }
      }
    } else if (s.strip_full[t0 / kNr]) {
      // Uneven columns (kernel taps): gather a column at a time down k,
      // where consecutive k are neighbouring positions, so reads stream.
      for (std::int64_t c = 0; c < kNr; ++c) {
        const float* src = base + co[c];
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          dst[kk * kNr + c] = src[s.b_rows[kk]];
        }
      }
    } else {
      const std::int64_t width = std::min(kNr, cols - t0);
      for (std::int64_t kk = 0; kk < kc; ++kk, dst += kNr) {
        const float* src = base + s.b_rows[kk];
        for (std::int64_t c = 0; c < kNr; ++c) {
          dst[c] = c < width && s.valid[t0 + c] ? src[co[c]] : 0.0f;
        }
      }
    }
  }
}

struct Job {
  std::int64_t m, n, k;
  float alpha, beta;
  const GemmTerm* terms;
  int n_terms;
  MatrixView<float> c;
  GemmChain chain;
};

/// ct[r][col] (row stride kNc) += z + acc[r][col] (row stride ld_acc) over
/// a rows × cols block, skipping masked columns (`full`: a whole strip, none
/// masked). z is +0 when the value is a sum formed from zero on its way in
/// (0 + acc), else -0 (x + -0 == x). Kept out of line: inlined into the
/// strip loop it costs the micro-kernel its register tile (measured ~30%
/// slower backward-filter with GCC 12).
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void accumulate(float* __restrict ct, const float* __restrict acc,
                std::int64_t ld_acc, std::int64_t rows, std::int64_t cols,
                const bool* valid, bool full, bool from_zero) {
  const float z = from_zero ? 0.0f : -0.0f;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* __restrict trow = ct + r * kNc;
    const float* __restrict arow = acc + r * ld_acc;
    if (full) {
      for (std::int64_t col = 0; col < kNr; ++col) trow[col] += z + arow[col];
    } else {
      for (std::int64_t col = 0; col < cols; ++col) {
        if (valid[col]) trow[col] += z + arow[col];
      }
    }
  }
}

/// Copy the C tile between the buffer and the contiguous tile ct (row
/// stride kNc), strip by strip: unit-stride runs as block copies, anything
/// else through the offset table.
void move_tile(const MatrixView<float>& c, Scratch& s, std::int64_t rows,
               std::int64_t cols, bool load) {
  float* cbase = c.base + c.off;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* crow = cbase + s.c_rows[i];
    float* trow = s.ct.data() + i * kNc;
    for (std::int64_t t0 = 0; t0 < cols; t0 += kNr) {
      const Runs runs = s.c_runs[t0 / kNr];
      const std::int64_t* co = s.c_cols + t0;
      float* tt = trow + t0;
      if (runs.step == 1) {
        float* c0 = crow + co[0];
        float* c1 = crow + co[runs.split];
        const std::int64_t n1 = kNr - runs.split;
        if (load) {
          std::copy(c0, c0 + runs.split, tt);
          std::copy(c1, c1 + n1, tt + runs.split);
        } else {
          std::copy(tt, tt + runs.split, c0);
          std::copy(tt + runs.split, tt + kNr, c1);
        }
      } else {
        const std::int64_t width = std::min(kNr, cols - t0);
        for (std::int64_t col = 0; col < width; ++col) {
          if (load) {
            tt[col] = crow[co[col]];
          } else {
            crow[co[col]] = tt[col];
          }
        }
      }
    }
  }
}

/// Accumulate every term into the tile copy s.ct (see GemmChain).
void accumulate_terms(const Job& job, Scratch& s, std::int64_t i0,
                      std::int64_t j0, std::int64_t rows, std::int64_t cols,
                      std::int64_t mstrips, std::int64_t nstrips) {
  s.ap.resize(static_cast<std::size_t>(mstrips) * kMr * kKc);
  s.bp.resize(static_cast<std::size_t>(nstrips) * kNr * kKc);
  const std::int64_t period = job.chain.k_period > 0 ? job.chain.k_period : job.k;
  const std::int64_t seg = job.chain.k_seg > 0 ? job.chain.k_seg : period;
  // A term whose k range is one block needs no stage: adding its block sum
  // to 0 on the way into C is the same chain.
  const bool one_block = std::min({period, seg, kKc}) >= job.k;
  const bool staged = job.chain.stage_terms && !one_block;
  const bool from_zero = job.chain.stage_terms && one_block;
  if (staged) s.stage.resize(static_cast<std::size_t>(kMc) * kNc);

  // The digit box the tile's columns span: a term whose window covers it
  // needs no per-column mask.
  const auto [mid_lo, mid_hi] = std::minmax_element(s.c_mid, s.c_mid + cols);
  const auto [in_lo, in_hi] = std::minmax_element(s.c_inner, s.c_inner + cols);
  const IndexMap* b_cols_of = nullptr;  // the map s.b_cols was filled from
  bool runs_fresh = false;  // s.b_runs describe s.b_cols unmasked
  for (int t = 0; t < job.n_terms; ++t) {
    const GemmTerm& term = job.terms[t];
    const bool whole = term.mid0 <= *mid_lo && *mid_hi < term.mid1 &&
                       term.inner0 <= *in_lo && *in_hi < term.inner1;
    bool any = whole;
    for (std::int64_t j = 0; j < cols; ++j) {
      s.valid[j] = whole || (s.c_mid[j] >= term.mid0 && s.c_mid[j] < term.mid1 &&
                             s.c_inner[j] >= term.inner0 &&
                             s.c_inner[j] < term.inner1);
      any = any || s.valid[j];
    }
    if (!any) continue;
    // Terms of one conv phase share B's column map (only `off` differs).
    const IndexMap& bm = term.b.cols;
    if (b_cols_of == nullptr || !same_map(bm, *b_cols_of)) {
      fill_offsets(bm, j0, cols, s.b_cols);
      b_cols_of = &bm;
      runs_fresh = false;
    }
    if (!whole || !runs_fresh) {
      for (std::int64_t sj = 0; sj < nstrips; ++sj) {
        const std::int64_t t0 = sj * kNr;
        bool full = t0 + kNr <= cols;
        for (std::int64_t c2 = t0; full && c2 < t0 + kNr; ++c2) full = s.valid[c2];
        s.strip_full[sj] = full;
        s.b_runs[sj] = full ? runs_of(s.b_cols + t0) : Runs{};
      }
      runs_fresh = whole;
    }
    fill_offsets(term.a.rows, i0, rows, s.a_rows);
    float* sink = staged ? s.stage.data() : s.ct.data();
    if (staged) {
      for (std::int64_t i = 0; i < rows; ++i) {
        std::fill_n(s.stage.data() + i * kNc, cols, 0.0f);
      }
    }

    for (std::int64_t q0 = 0; q0 < job.k; q0 += period) {
      const std::int64_t q1 = std::min(job.k, q0 + period);
      for (std::int64_t s0 = q0; s0 < q1; s0 += seg) {
        const std::int64_t s1 = std::min(q1, s0 + seg);
        for (std::int64_t p0 = s0; p0 < s1; p0 += kKc) {
          const std::int64_t p1 = std::min(s1, p0 + kKc);
          const std::int64_t kc = p1 - p0;
          pack_a(term.a, job.alpha, rows, p0, p1, s);
          pack_b(term.b, cols, p0, p1, s);
          for (std::int64_t si = 0; si < mstrips; ++si) {
            const float* ap = s.ap.data() + si * kMr * kc;
            const std::int64_t mr = std::min(kMr, rows - si * kMr);
            for (std::int64_t sj = 0; sj < nstrips; ++sj) {
              const float* bp = s.bp.data() + sj * kNr * kc;
              const std::int64_t nr = std::min(kNr, cols - sj * kNr);
              alignas(32) float acc[kMr][kNr];
              micro_kernel(kc, ap, bp, acc);
              accumulate(sink + si * kMr * kNc + sj * kNr, &acc[0][0], kNr, mr,
                         nr, s.valid + sj * kNr, s.strip_full[sj], from_zero);
            }
          }
        }
      }
    }
    if (staged) {
      for (std::int64_t sj = 0; sj < nstrips; ++sj) {
        const std::int64_t nr = std::min(kNr, cols - sj * kNr);
        accumulate(s.ct.data() + sj * kNr, s.stage.data() + sj * kNr, kNc, rows,
                   nr, s.valid + sj * kNr, s.strip_full[sj], false);
      }
    }
  }
}

/// Compute one MC×NC output tile: C[i0:i1, j0:j1] = beta·C + Σ_t terms.
/// The tile is accumulated in a contiguous copy (ct) and written back once,
/// so every add lands on the same value it would in place.
void compute_tile(const Job& job, std::int64_t i0, std::int64_t j0) {
  const std::int64_t rows = std::min(job.m, i0 + kMc) - i0;
  const std::int64_t cols = std::min(job.n, j0 + kNc) - j0;
  const bool multiply = job.k > 0 && job.alpha != 0.0f;
  if (!multiply && job.beta == 1.0f) return;
  const std::int64_t mstrips = ceil_div(rows, kMr);
  const std::int64_t nstrips = ceil_div(cols, kNr);
  Scratch& s = scratch();
  const MatrixView<float>& c = job.c;
  fill_offsets(c.rows, i0, rows, s.c_rows);
  fill_offsets(c.cols, j0, cols, s.c_cols, s.c_mid, s.c_inner);
  for (std::int64_t sj = 0; sj < nstrips; ++sj) {
    s.c_runs[sj] = sj * kNr + kNr <= cols ? runs_of(s.c_cols + sj * kNr) : Runs{};
  }

  // Scale C by beta first (no 0-skips: 0·NaN must stay NaN).
  s.ct.resize(static_cast<std::size_t>(kMc) * kNc);
  if (job.beta == 0.0f) {
    for (std::int64_t i = 0; i < rows; ++i) {
      std::fill_n(s.ct.data() + i * kNc, cols, 0.0f);
    }
  } else {
    move_tile(c, s, rows, cols, /*load=*/true);
    if (job.beta != 1.0f) {
      for (std::int64_t i = 0; i < rows; ++i) {
        float* trow = s.ct.data() + i * kNc;
        for (std::int64_t j = 0; j < cols; ++j) trow[j] *= job.beta;
      }
    }
  }
  if (multiply) accumulate_terms(job, s, i0, j0, rows, cols, mstrips, nstrips);
  move_tile(c, s, rows, cols, /*load=*/false);
}

}  // namespace

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const GemmTerm* terms, int n_terms, float beta,
          const MatrixView<float>& c, const GemmChain& chain) {
  if (m == 0 || n == 0) return;
  const Job job{m, n, k, alpha, beta, terms, n_terms, c, chain};
  const std::int64_t mtiles = ceil_div(m, kMc);
  const std::int64_t ntiles = ceil_div(n, kNc);
  parallel::parallel_for(0, mtiles * ntiles, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      compute_tile(job, (t / ntiles) * kMc, (t % ntiles) * kNc);
    }
  });
}

void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc) {
  const IndexMap unit = IndexMap::linear(1);
  GemmTerm term;
  term.a = {a, 0, trans_a ? unit : IndexMap::linear(lda),
            trans_a ? IndexMap::linear(lda) : unit};
  term.b = {b, 0, trans_b ? unit : IndexMap::linear(ldb),
            trans_b ? IndexMap::linear(ldb) : unit};
  gemm(m, n, k, alpha, &term, 1, beta, {c, 0, IndexMap::linear(ldc), unit});
}

}  // namespace distconv::kernels
