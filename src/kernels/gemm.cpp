// Register-tiled SGEMM with in-place (implicit) operands.
//
// Structure (BLIS-style; GCC/Clang vector extensions for the micro-kernel,
// AVX2 intrinsics where -march provides them for the transposing packers,
// masked loads/stores and masked epilogues, with scalar fallbacks):
//
//   * the output is cut into fixed MC×NC tiles; each tile is an independent
//     task on the intra-rank pool (parallel_for over the tile grid);
//   * per tile, the k dimension is walked in KC blocks; op(A) and op(B)
//     sub-panels are packed into contiguous MR-/NR-strips, with alpha
//     folded into the A panel;
//   * a 4×24 register-tile micro-kernel accumulates each strip pair, and
//     its epilogue adds the accumulators into the tile's copy of C.
//
// A GEMM may sum several terms (conv.cpp's backward data: one per tap of a
// stride phase). The tile is set up once for all of them; terms whose k
// range is a single block are packed back to back into one panel pair and
// each runs the micro-kernel over its own k-slice.
//
// The packers are the only operand-specific code. Every operand (A, B and
// C) is a MatrixView — element (i, j) at base[off + rows(i) + cols(j)] —
// so a plain matrix (sgemm, transposed or not) and a convolution lowering
// read from a margin buffer (gemm, see conv.cpp) go through the same
// gather: per tile and k-block, the row and column offsets are tabulated
// and each NR-strip is copied with a unit-stride or constant-stride loop
// when its columns are evenly spaced. Uneven strips whose k runs are
// evenly spaced (backward filter's taps × positions) are transposed from
// those runs in 8×8 register blocks; what is left goes through the table.
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
#include <numeric>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "support/intmath.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {
namespace {

constexpr std::int64_t kMr = 4;    ///< micro-tile rows (register accumulators)
constexpr std::int64_t kMc = 96;   ///< rows per task tile (multiple of kMr)
constexpr std::int64_t kNr = 24;   ///< micro-tile cols (three AVX2 vectors)
constexpr std::int64_t kNc = 192;  ///< cols per task tile (multiple of kNr)
constexpr std::int64_t kKc = 256;  ///< k-block length (fixed => fixed chains)

#if defined(__AVX2__)
/// All-ones lanes where valid[0..7] is true, zero lanes elsewhere.
inline __m256i lane_mask_i(const bool* valid) {
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(valid));
  return _mm256_cmpgt_epi32(_mm256_cvtepu8_epi32(b), _mm256_setzero_si256());
}
inline __m256 lane_mask(const bool* valid) {
  return _mm256_castsi256_ps(lane_mask_i(valid));
}

#if defined(__SANITIZE_ADDRESS__)
#define DC_GEMM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DC_GEMM_ASAN 1
#endif
#endif

/// Masked load and store of the lanes `mask` selects. AddressSanitizer does
/// not see inside the masked instructions, so sanitized builds move the
/// same lanes one at a time, where each access is checked.
inline __m256 masked_load(const float* p, __m256i mask) {
#if defined(DC_GEMM_ASAN)
  alignas(32) std::int32_t m[8];
  alignas(32) float v[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(m), mask);
  for (int i = 0; i < 8; ++i) v[i] = m[i] != 0 ? p[i] : 0.0f;
  return _mm256_load_ps(v);
#else
  return _mm256_maskload_ps(p, mask);
#endif
}

inline void masked_store(float* p, __m256i mask, __m256 value) {
#if defined(DC_GEMM_ASAN)
  alignas(32) std::int32_t m[8];
  alignas(32) float v[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(m), mask);
  _mm256_store_ps(v, value);
  for (int i = 0; i < 8; ++i) {
    if (m[i] != 0) p[i] = v[i];
  }
#else
  _mm256_maskstore_ps(p, mask, value);
#endif
}
#endif

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

/// ct[r][0:kNr] (row stride kNc) += z + acc[r] over a whole 4×24 block,
/// leaving the columns `valid` masks out (nullptr: none) untouched — the
/// epilogue of a strip, kept inline so the register tile goes straight into
/// C. z is +0 when the sum is formed from zero on its way in (0 + acc, the
/// chain of a GEMM into a zeroed buffer), else -0 (x + -0 == x). Rows and
/// columns past the tile's edge land in the spare rows and columns of ct,
/// which are never written back.
inline void add_block(float* ct, const float (*acc)[kNr], const bool* valid,
                      bool from_zero) {
  const float z = from_zero ? 0.0f : -0.0f;
  if (valid == nullptr) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      for (std::int64_t q = 0; q < kNr; q += 8) {
        vf8* c = reinterpret_cast<vf8*>(ct + r * kNc + q);
        *c += z + *reinterpret_cast<const vf8*>(acc[r] + q);
      }
    }
    return;
  }
#if defined(__AVX2__)
  __m256 keep[kNr / 8];
  for (std::int64_t q = 0; q < kNr; q += 8) keep[q / 8] = lane_mask(valid + q);
  for (std::int64_t r = 0; r < kMr; ++r) {
    for (std::int64_t q = 0; q < kNr; q += 8) {
      float* c = ct + r * kNc + q;
      const __m256 old = _mm256_loadu_ps(c);
      const __m256 term =
          _mm256_add_ps(_mm256_set1_ps(z), _mm256_loadu_ps(acc[r] + q));
      const __m256 sum = _mm256_add_ps(old, term);
      _mm256_storeu_ps(c, _mm256_blendv_ps(old, sum, keep[q / 8]));
    }
  }
#else
  for (std::int64_t r = 0; r < kMr; ++r) {
    for (std::int64_t c = 0; c < kNr; ++c) {
      if (valid[c]) ct[r * kNc + c] += z + acc[r][c];
    }
  }
#endif
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

inline void add_block(float* ct, const float (*acc)[kNr], const bool* valid,
                      bool from_zero) {
  const float z = from_zero ? 0.0f : -0.0f;
  for (std::int64_t r = 0; r < kMr; ++r) {
    for (std::int64_t c = 0; c < kNr; ++c) {
      if (valid == nullptr || valid[c]) ct[r * kNc + c] += z + acc[r][c];
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

/// One term of a batch and how it meets the tile's columns.
struct Slot {
  const GemmTerm* term = nullptr;
  const bool* valid = nullptr;  ///< per tile column: receives the term
  bool full[kNc / kNr];         ///< strip is kNr wide and wholly valid
  bool dense[kNc / kNr];        ///< every column the strip has is valid
  bool mask[kNc];               ///< `valid` when the term's window cuts the tile
};

/// Per-thread packing scratch and offset tables, reused across tasks.
struct Scratch {
  std::vector<float> ap, bp, stage, ct;
  std::vector<Slot> batch;
  bool all_valid[kNc];
  std::int64_t a_rows[kMc], a_cols[kKc], b_rows[kKc], b_cols[kNc];
  std::int64_t c_rows[kMc], c_cols[kNc];
  std::int64_t c_mid[kNc], c_inner[kNc];  ///< C column digits (term windows)
  Runs b_runs[kNc / kNr], c_runs[kNc / kNr];  ///< per column strip
  /// The maps s.a_rows / s.b_cols were filled from for the current tile.
  IndexMap a_rows_of, b_cols_of;
  bool have_a_rows = false, have_b_cols = false;
  /// A k-block cut for the transposing packers: starts of 8-long runs of
  /// evenly spaced k, and the k left over (see cut_k_blocks).
  std::int64_t k_blocks[kKc / 8], k_rest[kKc];
  std::int64_t n_blocks = 0, n_rest = 0;

  Scratch() { std::fill_n(all_valid, kNc, true); }
};
Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// out[t] = map(start + t) for t < count, a run of the inner digit at a
/// time instead of dividing per index. With `mid`/`inner` non-null, also
/// records each index's mid and inner digit.
void fill_offsets(const IndexMap& map, std::int64_t start, std::int64_t count,
                  std::int64_t* out, std::int64_t* mid = nullptr,
                  std::int64_t* inner = nullptr) {
  if (map.inner == 1 && map.mid == 1 && mid == nullptr) {
    for (std::int64_t t = 0; t < count; ++t) out[t] = (start + t) * map.s_outer;
    return;
  }
  std::int64_t e = start % map.inner;
  const std::int64_t q = start / map.inner;
  std::int64_t d = q % map.mid;
  std::int64_t o = q / map.mid;
  for (std::int64_t t = 0; t < count;) {
    const std::int64_t row = o * map.s_outer + d * map.s_mid;
    const std::int64_t n = std::min(count - t, map.inner - e);
    for (std::int64_t i = 0; i < n; ++i) out[t + i] = row + (e + i) * map.s_inner;
    if (mid != nullptr) {
      for (std::int64_t i = 0; i < n; ++i) {
        mid[t + i] = d;
        inner[t + i] = e + i;
      }
    }
    t += n;
    e = 0;
    if (++d == map.mid) {
      d = 0;
      ++o;
    }
  }
}

bool same_map(const IndexMap& x, const IndexMap& y) {
  return x.mid == y.mid && x.inner == y.inner && x.s_outer == y.s_outer &&
         x.s_mid == y.s_mid && x.s_inner == y.s_inner;
}

/// The runs of the full strip of indices [j, j + kNr) of `map`, whose
/// offsets are offs[0, kNr). Rows of at least kNr indices are read off the
/// map (the strip crosses at most one row boundary); anything else is
/// classified from the offsets.
Runs strip_runs(const IndexMap& map, std::int64_t j, const std::int64_t* offs) {
  if (map.inner == 1 && map.mid == 1) return Runs{map.s_outer, kNr};
  if (map.inner >= kNr && map.s_inner != 0) {
    return Runs{map.s_inner, std::min(kNr, map.inner - j % map.inner)};
  }
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

/// The spacing of consecutive indices of `map` inside its lowest digit that
/// has more than one value (a conv position map: the step along an output
/// row).
std::int64_t run_step(const IndexMap& map) {
  if (map.inner > 1) return map.s_inner;
  return map.mid > 1 ? map.s_mid : map.s_outer;
}

/// Cut a k-block's offsets offs[0, kc) into 8-long blocks that advance by
/// `step` (eight neighbouring positions of one output row, or eight
/// consecutive taps of a weight row) and the indices left over.
void cut_k_blocks(const std::int64_t* offs, std::int64_t kc, std::int64_t step,
                  Scratch& s) {
  s.n_blocks = s.n_rest = 0;
  for (std::int64_t kk = 0; kk < kc;) {
    std::int64_t end = kk + 1;
    while (end < kc && offs[end] - offs[end - 1] == step) ++end;
    for (; kk + 8 <= end; kk += 8) s.k_blocks[s.n_blocks++] = kk;
    for (; kk < end; ++kk) s.k_rest[s.n_rest++] = kk;
  }
}

/// dst[j][c] (row stride kNr) = src[c][j·step] for j, c < 8; columns c ≥ n
/// are zero. transpose_4x8 is its A-panel twin: dst[j][c] (row stride kMr)
/// = alpha · src[c][j·step] for c < 4. Both read only the elements they
/// copy and the ones between them.
#if defined(__AVX2__)
inline __m256 load_strided(const float* p, std::int64_t step) {
  if (step == 1) return _mm256_loadu_ps(p);
  if (step == 2) {
    // p[0..7] and p[7..14]: the even elements p[0], p[2], ..., p[14]
    // without touching p[15].
    const __m256 lo = _mm256_loadu_ps(p);
    const __m256 hi = _mm256_loadu_ps(p + 7);
    const __m256 m = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 2, 0));
    return _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(m), _MM_SHUFFLE(3, 1, 2, 0)));
  }
  return _mm256_setr_ps(p[0], p[step], p[2 * step], p[3 * step], p[4 * step],
                        p[5 * step], p[6 * step], p[7 * step]);
}

inline void transpose_8x8(const float* const* src, std::int64_t n,
                          std::int64_t step, float* dst) {
  // Stride 2 leaves each tap's positions in lane order 0 1 4 5 2 3 6 7
  // (one shuffle, no cross-lane permute); the transpose carries that order
  // to its output rows, which are stored to match.
  __m256 r[8];
  std::int64_t row[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  if (step == 2) {
    for (std::int64_t c = 0; c < 8; ++c) {
      r[c] = c < n ? _mm256_shuffle_ps(_mm256_loadu_ps(src[c]),
                                       _mm256_loadu_ps(src[c] + 7),
                                       _MM_SHUFFLE(3, 1, 2, 0))
                   : _mm256_setzero_ps();
    }
    row[2] = 4; row[3] = 5; row[4] = 2; row[5] = 3;
  } else {
    for (std::int64_t c = 0; c < 8; ++c) {
      r[c] = c < n ? load_strided(src[c], step) : _mm256_setzero_ps();
    }
  }
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  _mm256_storeu_ps(dst + row[0] * kNr, _mm256_permute2f128_ps(u0, u4, 0x20));
  _mm256_storeu_ps(dst + row[1] * kNr, _mm256_permute2f128_ps(u1, u5, 0x20));
  _mm256_storeu_ps(dst + row[2] * kNr, _mm256_permute2f128_ps(u2, u6, 0x20));
  _mm256_storeu_ps(dst + row[3] * kNr, _mm256_permute2f128_ps(u3, u7, 0x20));
  _mm256_storeu_ps(dst + row[4] * kNr, _mm256_permute2f128_ps(u0, u4, 0x31));
  _mm256_storeu_ps(dst + row[5] * kNr, _mm256_permute2f128_ps(u1, u5, 0x31));
  _mm256_storeu_ps(dst + row[6] * kNr, _mm256_permute2f128_ps(u2, u6, 0x31));
  _mm256_storeu_ps(dst + row[7] * kNr, _mm256_permute2f128_ps(u3, u7, 0x31));
}

inline void transpose_4x8(const float* const* src, std::int64_t n,
                          std::int64_t step, float alpha, float* dst) {
  __m256 r[kMr];
  for (std::int64_t c = 0; c < kMr; ++c) {
    r[c] = c < n ? _mm256_mul_ps(_mm256_set1_ps(alpha), load_strided(src[c], step))
                 : _mm256_setzero_ps();
  }
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  _mm256_storeu_ps(dst + 0, _mm256_permute2f128_ps(u0, u1, 0x20));
  _mm256_storeu_ps(dst + 8, _mm256_permute2f128_ps(u2, u3, 0x20));
  _mm256_storeu_ps(dst + 16, _mm256_permute2f128_ps(u0, u1, 0x31));
  _mm256_storeu_ps(dst + 24, _mm256_permute2f128_ps(u2, u3, 0x31));
}
#else
inline void transpose_8x8(const float* const* src, std::int64_t n,
                          std::int64_t step, float* dst) {
  for (std::int64_t j = 0; j < 8; ++j) {
    for (std::int64_t c = 0; c < 8; ++c) {
      dst[j * kNr + c] = c < n ? src[c][j * step] : 0.0f;
    }
  }
}

inline void transpose_4x8(const float* const* src, std::int64_t n,
                          std::int64_t step, float alpha, float* dst) {
  for (std::int64_t j = 0; j < 8; ++j) {
    for (std::int64_t c = 0; c < kMr; ++c) {
      dst[j * kMr + c] = c < n ? alpha * src[c][j * step] : 0.0f;
    }
  }
}
#endif

/// Pack an uneven strip (kernel-tap columns) whose `width` columns are all
/// valid: each 8-row block of s.k_blocks is read as eight positions of each
/// tap at constant stride `step` and transposed in registers into the
/// [kk][kNr] strip; the rows left over are gathered a column at a time down
/// k. Columns at or past `width` are zero.
void pack_taps(const float* base, const std::int64_t* co, std::int64_t width,
               std::int64_t step, const Scratch& s, float* dst) {
  for (std::int64_t bi = 0; bi < s.n_blocks; ++bi) {
    const std::int64_t kk = s.k_blocks[bi];
    const float* row = base + s.b_rows[kk];
    for (std::int64_t c0 = 0; c0 < kNr; c0 += 8) {
      const std::int64_t n = std::clamp<std::int64_t>(width - c0, 0, 8);
      const float* src[8] = {};
      for (std::int64_t c = 0; c < n; ++c) src[c] = row + co[c0 + c];
      transpose_8x8(src, n, step, dst + kk * kNr + c0);
    }
  }
  for (std::int64_t c = 0; c < kNr; ++c) {
    const float* src = base + (c < width ? co[c] : 0);
    for (std::int64_t i = 0; i < s.n_rest; ++i) {
      const std::int64_t kk = s.k_rest[i];
      dst[kk * kNr + c] = c < width ? src[s.b_rows[kk]] : 0.0f;
    }
  }
}

#if defined(__AVX2__)
/// Pack a strip of unit-stride runs [0, split) and [split, kNr) (offsets
/// co[0] and co[split]) that a term's window cuts: masked loads read only
/// the columns `valid` keeps and leave the others zero.
void pack_masked_runs(const float* base, const std::int64_t* co,
                      std::int64_t split, const bool* valid, std::int64_t kc,
                      const Scratch& s, float* dst) {
  __m256i m0[kNr / 8], m1[kNr / 8];
  bool use0[kNr / 8], use1[kNr / 8];
  for (std::int64_t q = 0; q < kNr; q += 8) {
    const __m256i lane = _mm256_add_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(static_cast<int>(q)));
    const __m256i second =
        _mm256_cmpgt_epi32(lane, _mm256_set1_epi32(static_cast<int>(split) - 1));
    const __m256i keep = lane_mask_i(valid + q);
    m0[q / 8] = _mm256_andnot_si256(second, keep);
    m1[q / 8] = _mm256_and_si256(second, keep);
    use0[q / 8] = !_mm256_testz_si256(m0[q / 8], m0[q / 8]);
    use1[q / 8] = !_mm256_testz_si256(m1[q / 8], m1[q / 8]);
  }
  for (std::int64_t kk = 0; kk < kc; ++kk, dst += kNr) {
    const float* src0 = base + s.b_rows[kk] + co[0];
    const float* src1 =
        split < kNr ? base + s.b_rows[kk] + co[split] - split : nullptr;
    for (std::int64_t q = 0; q < kNr; q += 8) {
      __m256 v = _mm256_setzero_ps();
      if (use0[q / 8]) v = masked_load(src0 + q, m0[q / 8]);
      if (use1[q / 8]) {
        v = _mm256_or_ps(v, masked_load(src1 + q, m1[q / 8]));
      }
      _mm256_storeu_ps(dst + q, v);
    }
  }
}
#endif

/// Pack op(A)[tile rows, p0:p1] (alpha folded in) into kMr-row strips, strip
/// si at panel + si·strip_stride, laid out [kk][kMr]; rows past `rows` are
/// zero so edge strips run the full micro-kernel unchanged. s.a_rows holds
/// the rows' offsets. Runs of eight evenly spaced k (taps of a weight row,
/// positions of a dy row) are transposed in registers.
void pack_a(const MatrixView<const float>& a, float alpha, std::int64_t rows,
            std::int64_t p0, std::int64_t p1, Scratch& s, float* panel,
            std::int64_t strip_stride) {
  const std::int64_t kc = p1 - p0;
  fill_offsets(a.cols, p0, kc, s.a_cols);
  const std::int64_t k_step = run_step(a.cols);
  cut_k_blocks(s.a_cols, kc, k_step, s);
  const float* base = a.base + a.off;
  for (std::int64_t s0 = 0; s0 < rows; s0 += kMr) {
    float* dst = panel + (s0 / kMr) * strip_stride;
    const std::int64_t n = std::min(kMr, rows - s0);
    const float* row[kMr] = {};
    for (std::int64_t r = 0; r < n; ++r) row[r] = base + s.a_rows[s0 + r];
    for (std::int64_t bi = 0; bi < s.n_blocks; ++bi) {
      const std::int64_t kk = s.k_blocks[bi];
      const float* src[kMr] = {};
      for (std::int64_t r = 0; r < n; ++r) src[r] = row[r] + s.a_cols[kk];
      transpose_4x8(src, n, k_step, alpha, dst + kk * kMr);
    }
    for (std::int64_t i = 0; i < s.n_rest; ++i) {
      const std::int64_t kk = s.k_rest[i];
      for (std::int64_t r = 0; r < kMr; ++r) {
        dst[kk * kMr + r] = r < n ? alpha * row[r][s.a_cols[kk]] : 0.0f;
      }
    }
  }
}

/// Pack op(B)[p0:p1, tile columns] into kNr-column strips, strip sj at
/// panel + sj·strip_stride, laid out [kk][kNr]; columns the slot masks out
/// and columns past the tile are zero and never read. s.b_cols / s.b_runs
/// describe the tile's columns.
void pack_b(const MatrixView<const float>& b, const Slot& slot,
            std::int64_t cols, std::int64_t p0, std::int64_t p1, Scratch& s,
            float* panel, std::int64_t strip_stride) {
  const std::int64_t kc = p1 - p0;
  fill_offsets(b.rows, p0, kc, s.b_rows);
  const std::int64_t k_step = run_step(b.rows);
  bool k_cut = false;
  const float* base = b.base + b.off;
  for (std::int64_t t0 = 0; t0 < cols; t0 += kNr) {
    const std::int64_t sj = t0 / kNr;
    float* dst = panel + sj * strip_stride;
    const std::int64_t* co = s.b_cols + t0;
    const Runs runs = slot.full[sj] ? s.b_runs[sj] : Runs{};
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
    } else if (slot.dense[sj]) {
      if (!k_cut) {
        cut_k_blocks(s.b_rows, kc, k_step, s);
        k_cut = true;
      }
      pack_taps(base, co, std::min(kNr, cols - t0), k_step, s, dst);
#if defined(__AVX2__)
    } else if (s.b_runs[sj].step == 1) {
      pack_masked_runs(base, co, s.b_runs[sj].split, slot.valid + t0, kc, s,
                       dst);
#endif
    } else {
      const std::int64_t width = std::min(kNr, cols - t0);
      const bool* valid = slot.valid + t0;
      for (std::int64_t kk = 0; kk < kc; ++kk, dst += kNr) {
        const float* src = base + s.b_rows[kk];
        for (std::int64_t c = 0; c < kNr; ++c) {
          dst[c] = c < width && valid[c] ? src[co[c]] : 0.0f;
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

/// One output tile and how its chains are cut (see GemmChain).
struct Tile {
  std::int64_t i0, j0, rows, cols, mstrips, nstrips;
  std::int64_t period, seg;
  bool staged, from_zero;
};

/// ct[r][j] += stage[r][j] (both row stride kNc) over the tile's rows and
/// the columns `valid` keeps: a staged term's total on its way into C.
void add_stage(float* __restrict ct, const float* __restrict stage,
               std::int64_t rows, std::int64_t cols, const bool* valid) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < cols; ++j) {
      if (valid[j]) ct[r * kNc + j] += stage[r * kNc + j];
    }
  }
}

/// Copy n tile values tt[0, n) to or from c[0], c[step], ...,
/// c[(n − 1)·step]. Stride-2 stores (a stride phase of backward data's dx)
/// go out eight at a time through masked stores that write only the
/// phase's own elements.
inline void move_run(float* c, float* tt, std::int64_t n, std::int64_t step,
                     bool load) {
  if (step == 1) {
    if (load) {
      std::copy(c, c + n, tt);
    } else {
      std::copy(tt, tt + n, c);
    }
    return;
  }
  std::int64_t col = 0;
#if defined(__AVX2__)
  if (step == 2 && !load) {
    const __m256i even = _mm256_setr_epi32(-1, 0, -1, 0, -1, 0, -1, 0);
    for (; col + 8 <= n; col += 8) {
      const __m256 t = _mm256_loadu_ps(tt + col);
      const __m256 lo = _mm256_unpacklo_ps(t, t);  // t0 t0 t1 t1 | t4 t4 t5 t5
      const __m256 hi = _mm256_unpackhi_ps(t, t);  // t2 t2 t3 t3 | t6 t6 t7 t7
      masked_store(c + 2 * col, even, _mm256_permute2f128_ps(lo, hi, 0x20));
      masked_store(c + 2 * col + 8, even, _mm256_permute2f128_ps(lo, hi, 0x31));
    }
  }
#endif
  for (; col < n; ++col) {
    if (load) {
      tt[col] = c[col * step];
    } else {
      c[col * step] = tt[col];
    }
  }
}

/// Copy the C tile between the buffer and the contiguous tile ct (row
/// stride kNc), strip by strip: evenly spaced runs by constant-step copies,
/// anything else through the offset table.
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
      if (runs.step != 0) {
        move_run(crow + co[0], tt, runs.split, runs.step, load);
        if (runs.split < kNr) {
          move_run(crow + co[runs.split], tt + runs.split, kNr - runs.split,
                   runs.step, load);
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

/// Point s.a_rows / s.b_cols (and s.b_runs) at the maps `term` reads; terms
/// of one conv phase share them (only `off` differs), so they are filled
/// once per tile.
void use_maps(const GemmTerm& term, const Tile& tl, Scratch& s) {
  if (!s.have_a_rows || !same_map(term.a.rows, s.a_rows_of)) {
    fill_offsets(term.a.rows, tl.i0, tl.rows, s.a_rows);
    s.a_rows_of = term.a.rows;
    s.have_a_rows = true;
  }
  if (!s.have_b_cols || !same_map(term.b.cols, s.b_cols_of)) {
    fill_offsets(term.b.cols, tl.j0, tl.cols, s.b_cols);
    for (std::int64_t sj = 0; sj < tl.nstrips; ++sj) {
      s.b_runs[sj] =
          sj * kNr + kNr <= tl.cols
              ? strip_runs(term.b.cols, tl.j0 + sj * kNr, s.b_cols + sj * kNr)
              : Runs{};
    }
    s.b_cols_of = term.b.cols;
    s.have_b_cols = true;
  }
}

/// Fill `slot` with how `term` meets the tile's columns; false when no
/// column receives it. A term whose window covers the digit box [mid_lo,
/// mid_hi] × [in_lo, in_hi] of the tile's columns needs no per-column mask.
bool fit_term(const GemmTerm& term, const Tile& tl, const Scratch& s,
              std::int64_t mid_lo, std::int64_t mid_hi, std::int64_t in_lo,
              std::int64_t in_hi, Slot& slot) {
  slot.term = &term;
  if (term.mid0 <= mid_lo && mid_hi < term.mid1 && term.inner0 <= in_lo &&
      in_hi < term.inner1) {
    slot.valid = s.all_valid;
    for (std::int64_t sj = 0; sj < tl.nstrips; ++sj) {
      slot.full[sj] = sj * kNr + kNr <= tl.cols;
      slot.dense[sj] = true;
    }
    return true;
  }
  std::int64_t count[kNc / kNr] = {};
  for (std::int64_t sj = 0; sj < tl.nstrips; ++sj) {
    const std::int64_t t1 = std::min(tl.cols, sj * kNr + kNr);
    for (std::int64_t j = sj * kNr; j < t1; ++j) {
      slot.mask[j] = (s.c_mid[j] >= term.mid0) & (s.c_mid[j] < term.mid1) &
                     (s.c_inner[j] >= term.inner0) & (s.c_inner[j] < term.inner1);
      count[sj] += slot.mask[j];
    }
  }
  if (std::accumulate(count, count + tl.nstrips, std::int64_t{0}) == 0) {
    return false;
  }
  std::fill(slot.mask + tl.cols, slot.mask + tl.nstrips * kNr, false);
  slot.valid = slot.mask;
  for (std::int64_t sj = 0; sj < tl.nstrips; ++sj) {
    slot.dense[sj] = count[sj] == std::min(kNr, tl.cols - sj * kNr);
    slot.full[sj] = count[sj] == kNr;
  }
  return true;
}

/// Accumulate a batch of terms into the tile copy s.ct: per k-block, their
/// A and B panels are packed back to back, then every strip pair runs the
/// micro-kernel once per term's k-slice and adds each sum in term order.
void run_batch(const Job& job, const Tile& tl, const Slot* batch,
               std::int64_t used, Scratch& s) {
  float* sink = tl.staged ? s.stage.data() : s.ct.data();
  if (tl.staged) {
    for (std::int64_t i = 0; i < tl.rows; ++i) {
      std::fill_n(s.stage.data() + i * kNc, tl.cols, 0.0f);
    }
  }
  for (std::int64_t q0 = 0; q0 < job.k; q0 += tl.period) {
    const std::int64_t q1 = std::min(job.k, q0 + tl.period);
    for (std::int64_t s0 = q0; s0 < q1; s0 += tl.seg) {
      const std::int64_t s1 = std::min(q1, s0 + tl.seg);
      for (std::int64_t p0 = s0; p0 < s1; p0 += kKc) {
        const std::int64_t p1 = std::min(s1, p0 + kKc);
        const std::int64_t kc = p1 - p0;
        const std::int64_t sa = used * kc * kMr, sb = used * kc * kNr;
        for (std::int64_t v = 0; v < used; ++v) {
          const GemmTerm& term = *batch[v].term;
          use_maps(term, tl, s);
          pack_a(term.a, job.alpha, tl.rows, p0, p1, s,
                 s.ap.data() + v * kc * kMr, sa);
          pack_b(term.b, batch[v], tl.cols, p0, p1, s,
                 s.bp.data() + v * kc * kNr, sb);
        }
        for (std::int64_t si = 0; si < tl.mstrips; ++si) {
          for (std::int64_t sj = 0; sj < tl.nstrips; ++sj) {
            float* out = sink + si * kMr * kNc + sj * kNr;
            for (std::int64_t v = 0; v < used; ++v) {
              alignas(32) float acc[kMr][kNr];
              micro_kernel(kc, s.ap.data() + si * sa + v * kc * kMr,
                           s.bp.data() + sj * sb + v * kc * kNr, acc);
              add_block(out, acc,
                        batch[v].full[sj] ? nullptr : batch[v].valid + sj * kNr,
                        tl.from_zero);
            }
          }
        }
      }
    }
  }
  if (tl.staged) {
    add_stage(s.ct.data(), s.stage.data(), tl.rows, tl.cols, batch[0].valid);
  }
}

/// Accumulate every term into the tile copy s.ct (see GemmChain). The tile
/// is set up once for all terms: the column digit box, and the offset tables
/// the terms share.
void accumulate_terms(const Job& job, Scratch& s, Tile tl) {
  tl.period = job.chain.k_period > 0 ? job.chain.k_period : job.k;
  tl.seg = job.chain.k_seg > 0 ? job.chain.k_seg : tl.period;
  // A term whose k range is one block needs no stage: adding its block sum
  // to 0 on the way into C is the same chain. Such terms are batched, as
  // many as fill one k-block's panels.
  const bool one_block = std::min({tl.period, tl.seg, kKc}) >= job.k;
  tl.staged = job.chain.stage_terms && !one_block;
  tl.from_zero = job.chain.stage_terms && one_block;
  const std::int64_t group =
      one_block ? std::min<std::int64_t>(job.n_terms,
                                         std::max<std::int64_t>(1, kKc / job.k))
                : 1;
  s.ap.resize(static_cast<std::size_t>(tl.mstrips) * kMr * kKc);
  s.bp.resize(static_cast<std::size_t>(tl.nstrips) * kNr * kKc);
  if (tl.staged) s.stage.resize(static_cast<std::size_t>(kMc) * kNc);
  if (static_cast<std::int64_t>(s.batch.size()) < group) s.batch.resize(group);
  s.have_a_rows = s.have_b_cols = false;

  // The digit box the tile's columns span: their first and last digits,
  // widened to the whole digit range where the columns wrap.
  const IndexMap& cm = job.c.cols;
  const std::int64_t r0 = tl.j0 / cm.inner, r1 = (tl.j0 + tl.cols - 1) / cm.inner;
  const std::int64_t mid_lo = r0 / cm.mid == r1 / cm.mid ? r0 % cm.mid : 0;
  const std::int64_t mid_hi = r0 / cm.mid == r1 / cm.mid ? r1 % cm.mid : cm.mid - 1;
  const std::int64_t in_lo = r0 == r1 ? tl.j0 % cm.inner : 0;
  const std::int64_t in_hi = r0 == r1 ? (tl.j0 + tl.cols - 1) % cm.inner : cm.inner - 1;
  std::int64_t used = 0;
  for (int t = 0; t < job.n_terms; ++t) {
    if (!fit_term(job.terms[t], tl, s, mid_lo, mid_hi, in_lo, in_hi,
                  s.batch[used])) {
      continue;
    }
    if (++used == group) {
      run_batch(job, tl, s.batch.data(), used, s);
      used = 0;
    }
  }
  if (used > 0) run_batch(job, tl, s.batch.data(), used, s);
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
    s.c_runs[sj] = sj * kNr + kNr <= cols
                       ? strip_runs(c.cols, j0 + sj * kNr, s.c_cols + sj * kNr)
                       : Runs{};
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
  if (multiply) {
    accumulate_terms(
        job, s, Tile{i0, j0, rows, cols, mstrips, nstrips, 0, 0, false, false});
  }
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
