/// \file simd.hpp
/// \brief Portable fixed-width SIMD lanes for the solver hot kernels.
///
/// One compile-time ISA is selected from the compiler's target macros —
/// AVX2, SSE2, NEON (aarch64), or a scalar 1-lane fallback — and the
/// vector kernels (LAPJV, Sinkhorn plain/log, the GW tensor product) are
/// written once against the `VecD` abstraction below, so they inline to
/// raw intrinsics. There is no run-time switch: each public entry point
/// always runs its vector kernel. The scalar twins of those kernels
/// (`detail::*Scalar`) are kept only as the references that
/// tests/simd_kernels_test.cpp and bench_micro_kernels compare against.
///
/// Semantics the kernels rely on:
///  - `VecD` arithmetic is plain IEEE double per lane: no FMA
///    contraction is emitted from these wrappers, so a vector body that
///    preserves the scalar association per lane produces bit-identical
///    lane results (the LAPJV reductions depend on this).
///  - Horizontal helpers (`HSum`, `HMin`, `HMax`) fix one reduction order
///    per ISA; float kernels that sum with `HSum` are equivalence-tested
///    to a bounded ulp tolerance instead of bit equality.
///  - `Exp` is a vector exp approximation (Cody-Waite reduction plus the
///    Cephes rational) accurate to ~1 ulp over the finite range; scalar
///    twins use std::exp, so exp-heavy kernels are also ulp-tested.
#ifndef OTGED_CORE_SIMD_HPP_
#define OTGED_CORE_SIMD_HPP_

#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__AVX2__)
#define OTGED_ISA_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define OTGED_ISA_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define OTGED_ISA_NEON 1
#include <arm_neon.h>
#else
#define OTGED_ISA_SCALAR 1
#endif

namespace otged {
namespace simd {

#if defined(OTGED_ISA_AVX2)

inline constexpr int kDoubleLanes = 4;
inline constexpr const char* kIsaName = "avx2";

/// `kDoubleLanes` IEEE doubles. Thin value wrapper over the native
/// register; all operations are lane-wise and contraction-free.
struct VecD {
  __m256d v;
  static VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecD Zero() { return {_mm256_setzero_pd()}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
};

inline VecD Min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }

/// Full-width lane mask (all-ones / all-zeros per lane).
struct MaskD {
  __m256d m;
  /// Bit i set iff lane i is true.
  int MoveMask() const { return _mm256_movemask_pd(m); }
};

inline MaskD CmpLt(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline MaskD CmpEq(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}
/// Lane-wise select: mask ? a : b.
inline VecD Blend(MaskD m, VecD a, VecD b) {
  return {_mm256_blendv_pd(b.v, a.v, m.m)};
}

inline double HSum(VecD a) {
  // Fixed order: (l0+l1) + (l2+l3).
  __m128d lo = _mm256_castpd256_pd128(a.v);
  __m128d hi = _mm256_extractf128_pd(a.v, 1);
  __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
  __m128d swap = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
}
inline double HMin(VecD a) {
  __m128d lo = _mm256_castpd256_pd128(a.v);
  __m128d hi = _mm256_extractf128_pd(a.v, 1);
  __m128d pair = _mm_min_pd(lo, hi);
  __m128d swap = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_min_sd(pair, swap));
}
inline double HMax(VecD a) {
  __m128d lo = _mm256_castpd256_pd128(a.v);
  __m128d hi = _mm256_extractf128_pd(a.v, 1);
  __m128d pair = _mm_max_pd(lo, hi);
  __m128d swap = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_max_sd(pair, swap));
}

#elif defined(OTGED_ISA_SSE2)

inline constexpr int kDoubleLanes = 2;
inline constexpr const char* kIsaName = "sse2";

struct VecD {
  __m128d v;
  static VecD Load(const double* p) { return {_mm_loadu_pd(p)}; }
  static VecD Broadcast(double x) { return {_mm_set1_pd(x)}; }
  static VecD Zero() { return {_mm_setzero_pd()}; }
  void Store(double* p) const { _mm_storeu_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm_div_pd(a.v, b.v)}; }
};

inline VecD Min(VecD a, VecD b) { return {_mm_min_pd(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {_mm_max_pd(a.v, b.v)}; }

struct MaskD {
  __m128d m;
  int MoveMask() const { return _mm_movemask_pd(m); }
};

inline MaskD CmpLt(VecD a, VecD b) { return {_mm_cmplt_pd(a.v, b.v)}; }
inline MaskD CmpEq(VecD a, VecD b) { return {_mm_cmpeq_pd(a.v, b.v)}; }
/// Lane-wise select via bitwise ops (SSE2 has no blendv).
inline VecD Blend(MaskD m, VecD a, VecD b) {
  return {_mm_or_pd(_mm_and_pd(m.m, a.v), _mm_andnot_pd(m.m, b.v))};
}

inline double HSum(VecD a) {
  __m128d swap = _mm_unpackhi_pd(a.v, a.v);
  return _mm_cvtsd_f64(_mm_add_sd(a.v, swap));
}
inline double HMin(VecD a) {
  __m128d swap = _mm_unpackhi_pd(a.v, a.v);
  return _mm_cvtsd_f64(_mm_min_sd(a.v, swap));
}
inline double HMax(VecD a) {
  __m128d swap = _mm_unpackhi_pd(a.v, a.v);
  return _mm_cvtsd_f64(_mm_max_sd(a.v, swap));
}

#elif defined(OTGED_ISA_NEON)

inline constexpr int kDoubleLanes = 2;
inline constexpr const char* kIsaName = "neon";

struct VecD {
  float64x2_t v;
  static VecD Load(const double* p) { return {vld1q_f64(p)}; }
  static VecD Broadcast(double x) { return {vdupq_n_f64(x)}; }
  static VecD Zero() { return {vdupq_n_f64(0.0)}; }
  void Store(double* p) const { vst1q_f64(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {vdivq_f64(a.v, b.v)}; }
};

inline VecD Min(VecD a, VecD b) { return {vminq_f64(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {vmaxq_f64(a.v, b.v)}; }

struct MaskD {
  uint64x2_t m;
  int MoveMask() const {
    return static_cast<int>((vgetq_lane_u64(m, 0) & 1u) |
                            ((vgetq_lane_u64(m, 1) & 1u) << 1));
  }
};

inline MaskD CmpLt(VecD a, VecD b) { return {vcltq_f64(a.v, b.v)}; }
inline MaskD CmpEq(VecD a, VecD b) { return {vceqq_f64(a.v, b.v)}; }
inline VecD Blend(MaskD m, VecD a, VecD b) {
  return {vbslq_f64(m.m, a.v, b.v)};
}

inline double HSum(VecD a) {
  return vgetq_lane_f64(a.v, 0) + vgetq_lane_f64(a.v, 1);
}
inline double HMin(VecD a) { return vminvq_f64(a.v); }
inline double HMax(VecD a) { return vmaxvq_f64(a.v); }

#else  // OTGED_ISA_SCALAR

inline constexpr int kDoubleLanes = 1;
inline constexpr const char* kIsaName = "scalar";

struct VecD {
  double v;
  static VecD Load(const double* p) { return {*p}; }
  static VecD Broadcast(double x) { return {x}; }
  static VecD Zero() { return {0.0}; }
  void Store(double* p) const { *p = v; }
  friend VecD operator+(VecD a, VecD b) { return {a.v + b.v}; }
  friend VecD operator-(VecD a, VecD b) { return {a.v - b.v}; }
  friend VecD operator*(VecD a, VecD b) { return {a.v * b.v}; }
  friend VecD operator/(VecD a, VecD b) { return {a.v / b.v}; }
};

inline VecD Min(VecD a, VecD b) { return {a.v < b.v ? a.v : b.v}; }
inline VecD Max(VecD a, VecD b) { return {a.v > b.v ? a.v : b.v}; }

struct MaskD {
  bool m;
  int MoveMask() const { return m ? 1 : 0; }
};

inline MaskD CmpLt(VecD a, VecD b) { return {a.v < b.v}; }
inline MaskD CmpEq(VecD a, VecD b) { return {a.v == b.v}; }
inline VecD Blend(MaskD m, VecD a, VecD b) { return m.m ? a : b; }

inline double HSum(VecD a) { return a.v; }
inline double HMin(VecD a) { return a.v; }
inline double HMax(VecD a) { return a.v; }

#endif  // ISA select

/// Vector exp, Cephes-style: Cody-Waite range reduction against ln 2,
/// the (2,3) rational on the reduced argument, then a 2^n scale via
/// exponent-field assembly. Accurate to ~1 ulp for arguments in
/// [-708, 709]; inputs below/above are clamped (the kernels feed it
/// non-positive shifted arguments, where the clamp is exact zero
/// territory anyway). Matches std::exp to the ulp tolerances the
/// equivalence tests pin; not bit-identical to it.
inline VecD Exp(VecD x) {
  const VecD kHi = VecD::Broadcast(709.436);
  const VecD kLo = VecD::Broadcast(-708.396);
  x = Min(Max(x, kLo), kHi);

  // n = round(x / ln 2), computed as floor(x*log2e + 0.5) so every ISA
  // (and the scalar path) rounds identically. The floor and the 2^n
  // exponent assembly below stay in vector registers — bouncing lanes
  // through memory for scalar int work costs more than the polynomial.
  const VecD kLog2e = VecD::Broadcast(1.4426950408889634074);
  VecD nf = x * kLog2e + VecD::Broadcast(0.5);
#if defined(OTGED_ISA_AVX2)
  nf = VecD{_mm256_floor_pd(nf.v)};
#elif defined(OTGED_ISA_SSE2)
  {
    // Truncate then step down where truncation rounded up (negatives).
    const __m128d tr = _mm_cvtepi32_pd(_mm_cvttpd_epi32(nf.v));
    nf = VecD{_mm_sub_pd(
        tr, _mm_and_pd(_mm_cmpgt_pd(tr, nf.v), _mm_set1_pd(1.0)))};
  }
#elif defined(OTGED_ISA_NEON)
  nf = VecD{vrndmq_f64(nf.v)};
#else
  nf.v = std::floor(nf.v);
#endif

  // r = x - n*ln2 in two pieces (Cody-Waite) keeps r exact to ~2^-60.
  const VecD kC1 = VecD::Broadcast(6.93145751953125e-1);
  const VecD kC2 = VecD::Broadcast(1.42860682030941723212e-6);
  VecD r = x - nf * kC1;
  r = r - nf * kC2;

  // Cephes expansion: exp(r) = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2)).
  VecD r2 = r * r;
  VecD p = VecD::Broadcast(1.26177193074810590878e-4);
  p = p * r2 + VecD::Broadcast(3.02994407707441961300e-2);
  p = p * r2 + VecD::Broadcast(9.99999999999999999910e-1);
  p = p * r;
  VecD q = VecD::Broadcast(3.00198505138664455042e-6);
  q = q * r2 + VecD::Broadcast(2.52448340349684104192e-3);
  q = q * r2 + VecD::Broadcast(2.27265548208155028766e-1);
  q = q * r2 + VecD::Broadcast(2.00000000000000000005e0);
  VecD e = VecD::Broadcast(1.0) + (p + p) / (q - p);

  // Scale by 2^n through the exponent field; n is in [-1075, 1025] after
  // the clamp, split in two halves (floor/ceil of n/2) so each biased
  // exponent stays positive and each factor is a normal number — the
  // product is exactly 2^n either way.
  VecD scale;
#if defined(OTGED_ISA_AVX2)
  {
    const __m128i n32 = _mm256_cvttpd_epi32(nf.v);  // nf integral: exact
    const __m128i half = _mm_srai_epi32(n32, 1);
    const __m128i bias = _mm_set1_epi32(1023);
    const __m256i h64 = _mm256_cvtepi32_epi64(_mm_add_epi32(half, bias));
    const __m256i r64 = _mm256_cvtepi32_epi64(
        _mm_add_epi32(_mm_sub_epi32(n32, half), bias));
    scale = VecD{_mm256_mul_pd(
        _mm256_castsi256_pd(_mm256_slli_epi64(h64, 52)),
        _mm256_castsi256_pd(_mm256_slli_epi64(r64, 52)))};
  }
#elif defined(OTGED_ISA_SSE2)
  {
    const __m128i n32 = _mm_cvttpd_epi32(nf.v);  // nf integral: exact
    const __m128i half = _mm_srai_epi32(n32, 1);
    const __m128i bias = _mm_set1_epi32(1023);
    const __m128i zero = _mm_setzero_si128();
    // Biased exponents are positive, so zero-extending the two low
    // int32s to int64 lanes is exact.
    const __m128i h64 =
        _mm_unpacklo_epi32(_mm_add_epi32(half, bias), zero);
    const __m128i r64 = _mm_unpacklo_epi32(
        _mm_add_epi32(_mm_sub_epi32(n32, half), bias), zero);
    scale = VecD{_mm_mul_pd(_mm_castsi128_pd(_mm_slli_epi64(h64, 52)),
                            _mm_castsi128_pd(_mm_slli_epi64(r64, 52)))};
  }
#elif defined(OTGED_ISA_NEON)
  {
    const int64x2_t n64 = vcvtq_s64_f64(nf.v);  // nf integral: exact
    const int64x2_t half = vshrq_n_s64(n64, 1);
    const int64x2_t bias = vdupq_n_s64(1023);
    const int64x2_t h = vaddq_s64(half, bias);
    const int64x2_t r = vaddq_s64(vsubq_s64(n64, half), bias);
    scale = VecD{vmulq_f64(
        vreinterpretq_f64_s64(vshlq_n_s64(h, 52)),
        vreinterpretq_f64_s64(vshlq_n_s64(r, 52)))};
  }
#else
  {
    const int64_t n = static_cast<int64_t>(nf.v);
    const int64_t half = n >> 1;
    const uint64_t bits1 = static_cast<uint64_t>(half + 1023) << 52;
    const uint64_t bits2 = static_cast<uint64_t>((n - half) + 1023) << 52;
    double s1, s2;
    std::memcpy(&s1, &bits1, sizeof s1);
    std::memcpy(&s2, &bits2, sizeof s2);
    scale.v = s1 * s2;
  }
#endif
  return e * scale;
}

/// Result of a first-argmin scan. `index == -1` iff no entry compared
/// below +inf (empty input or all entries masked out).
struct MinLoc {
  double value = std::numeric_limits<double>::infinity();
  int index = -1;
};

/// Min and *first* argmin of x[j] + excl[j] over [0..n); callers pass
/// excl[j] = +inf to mask j out, 0.0 to keep it (the add is exact for
/// finite x). Matches the scalar idiom
///   for (j) if (val[j] < best) { best = val[j]; arg = j; }
/// exactly: strict < keeps the first occurrence of the minimum, and the
/// second pass below picks the smallest index that attains the global
/// min, which is the same index the sequential scan keeps.
// otged-lint: hot-path
inline MinLoc MinFirstIndexMasked(const double* x, const double* excl,
                                  int n) {
  MinLoc r;
  // Pass 1: the min value. Min is exact in any order, so a plain vector
  // fold (no index tracking) is both cheap and equal to the sequential
  // running min.
  int j = 0;
  if constexpr (kDoubleLanes > 1) {
    if (n >= kDoubleLanes) {
      VecD vbest = VecD::Broadcast(r.value);
      for (; j + kDoubleLanes <= n; j += kDoubleLanes)
        vbest = Min(vbest, VecD::Load(x + j) + VecD::Load(excl + j));
      const double m = HMin(vbest);
      if (m < r.value) r.value = m;
    }
  }
  for (; j < n; ++j) {
    const double cur = x[j] + excl[j];
    if (cur < r.value) r.value = cur;
  }
  // All +inf (empty or fully masked): the sequential strict-< scan would
  // never fire, so the index stays -1.
  if (r.value == std::numeric_limits<double>::infinity()) return r;
  // Pass 2: first index attaining the min — the index the sequential
  // strict-< scan keeps.
  j = 0;
  if constexpr (kDoubleLanes > 1) {
    const VecD target = VecD::Broadcast(r.value);
    for (; j + kDoubleLanes <= n; j += kDoubleLanes) {
      const VecD cur = VecD::Load(x + j) + VecD::Load(excl + j);
      const int bits = CmpEq(cur, target).MoveMask();
      if (bits != 0) {
        r.index = j + __builtin_ctz(static_cast<unsigned>(bits));
        return r;
      }
    }
  }
  for (; j < n; ++j) {
    if (x[j] + excl[j] == r.value) {
      r.index = j;
      return r;
    }
  }
  return r;
}

/// First index with x[j] == value, or -1. Early-exits on the first
/// matching block, so callers that already know the min pay ~argmin/L
/// loads.
// otged-lint: hot-path
inline int FirstEqIndex(const double* x, int n, double value) {
  int j = 0;
  if constexpr (kDoubleLanes > 1) {
    const VecD target = VecD::Broadcast(value);
    for (; j + kDoubleLanes <= n; j += kDoubleLanes) {
      const int bits = CmpEq(VecD::Load(x + j), target).MoveMask();
      if (bits != 0) return j + __builtin_ctz(static_cast<unsigned>(bits));
    }
  }
  for (; j < n; ++j)
    if (x[j] == value) return j;
  return -1;
}

}  // namespace simd
}  // namespace otged

#endif  // OTGED_CORE_SIMD_HPP_
