// 4-wide double SIMD abstraction for the sensor-kernel hot loops.
//
// One vector type, `simd::Vec4d`, with three backends selected at compile
// time from architecture macros:
//   * AVX2 (+FMA when available)  — x86-64, enabled by -mavx2 (the RFID_SIMD
//     CMake option adds the flags, as does -march=native on AVX2 hardware);
//   * NEON                        — aarch64, as a pair of float64x2_t;
//   * portable scalar fallback    — a plain double[4] struct that compiles
//     everywhere and keeps the same algorithms testable on any host.
//
// The transcendentals (`Exp`, `Acos`) are written ONCE against the Vec4d
// primitives, so every backend runs the same polynomial algorithm; only the
// elementwise arithmetic differs. Their accuracy contract (see PERF.md):
//
//   |Exp(x)  - exp(x)|  <= 1e-9 * exp(x)   for x in [-700, 700]
//   |Acos(x) - acos(x)| <= 1e-9 * max(acos(x), 1e-12)   for x in [-1, 1]
//
// In practice both are accurate to a few ulp (the asin core is the fdlibm
// rational approximation, the exp core a degree-11 Taylor after Cody-Waite
// range reduction), but 1e-9 is the bound the kernels and tests rely on.
// Because polynomial results differ from libm in the last bits, SIMD kernel
// execution is opt-in (FactoredFilterConfig::use_simd_kernels) and excluded
// from the default 1e-12 scalar-parity / bit-identity contracts.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#define RFID_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define RFID_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#else
#define RFID_SIMD_BACKEND_SCALAR 1
#endif

namespace rfid {
namespace simd {

inline constexpr int kLanes = 4;

/// True when the backend actually issues vector instructions (bench labels).
inline constexpr bool kVectorized =
#if defined(RFID_SIMD_BACKEND_SCALAR)
    false;
#else
    true;
#endif

inline constexpr const char* kBackendName =
#if defined(RFID_SIMD_BACKEND_AVX2)
    "avx2";
#elif defined(RFID_SIMD_BACKEND_NEON)
    "neon";
#else
    "scalar";
#endif

#if defined(RFID_SIMD_BACKEND_AVX2)

struct Vec4d {
  __m256d v;
};

inline Vec4d Load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void Store(double* p, Vec4d a) { _mm256_storeu_pd(p, a.v); }
inline Vec4d Set1(double x) { return {_mm256_set1_pd(x)}; }
inline Vec4d Zero() { return {_mm256_setzero_pd()}; }

inline Vec4d operator+(Vec4d a, Vec4d b) { return {_mm256_add_pd(a.v, b.v)}; }
inline Vec4d operator-(Vec4d a, Vec4d b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline Vec4d operator*(Vec4d a, Vec4d b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline Vec4d operator/(Vec4d a, Vec4d b) { return {_mm256_div_pd(a.v, b.v)}; }

/// a*b + c (fused when the target has FMA).
inline Vec4d MulAdd(Vec4d a, Vec4d b, Vec4d c) {
#if defined(__FMA__)
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
  return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
#endif
}

inline Vec4d Sqrt(Vec4d a) { return {_mm256_sqrt_pd(a.v)}; }
inline Vec4d Min(Vec4d a, Vec4d b) { return {_mm256_min_pd(a.v, b.v)}; }
inline Vec4d Max(Vec4d a, Vec4d b) { return {_mm256_max_pd(a.v, b.v)}; }
inline Vec4d Abs(Vec4d a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
inline Vec4d Round(Vec4d a) {
  return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}

/// Comparisons return all-ones/all-zeros lane masks (usable with Select/And).
inline Vec4d CmpLt(Vec4d a, Vec4d b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline Vec4d CmpGe(Vec4d a, Vec4d b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
inline Vec4d And(Vec4d a, Vec4d b) { return {_mm256_and_pd(a.v, b.v)}; }
/// mask ? a : b, per lane.
inline Vec4d Select(Vec4d mask, Vec4d a, Vec4d b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}
inline bool AnyTrue(Vec4d mask) { return _mm256_movemask_pd(mask.v) != 0; }

/// x * 2^k for integral-valued k in [-1022, 1023], via exponent-bit insertion.
inline Vec4d ScaleByPow2(Vec4d x, Vec4d k) {
  const __m128i k32 = _mm256_cvtpd_epi32(k.v);
  const __m256i k64 = _mm256_cvtepi32_epi64(k32);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
  return {_mm256_mul_pd(x.v, _mm256_castsi256_pd(bits))};
}

/// Four 32-bit element indices (for table gathers).
struct Idx4 {
  __m128i v;
};

inline Idx4 LoadIdx(const uint32_t* p) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
}
inline Idx4 MulIdx(Idx4 a, int32_t m) {
  return {_mm_mullo_epi32(a.v, _mm_set1_epi32(m))};
}
/// out[i] = base[idx[i]] — a hardware vgatherdpd; tables that fit L1 (the
/// ~100-frame reader table) gather at a few cycles per element. The masked
/// form with a zero source and an all-ones mask is the same instruction;
/// the unmasked intrinsic passes GCC an uninitialized source register,
/// which -Werror=maybe-uninitialized rejects once inlined.
inline Vec4d Gather(const double* base, Idx4 idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx.v, all, 8)};
}

#elif defined(RFID_SIMD_BACKEND_NEON)

struct Vec4d {
  float64x2_t lo;
  float64x2_t hi;
};

inline Vec4d Load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
inline void Store(double* p, Vec4d a) {
  vst1q_f64(p, a.lo);
  vst1q_f64(p + 2, a.hi);
}
inline Vec4d Set1(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
inline Vec4d Zero() { return Set1(0.0); }

inline Vec4d operator+(Vec4d a, Vec4d b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline Vec4d operator-(Vec4d a, Vec4d b) {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline Vec4d operator*(Vec4d a, Vec4d b) {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
inline Vec4d operator/(Vec4d a, Vec4d b) {
  return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
}
inline Vec4d MulAdd(Vec4d a, Vec4d b, Vec4d c) {
  return {vfmaq_f64(c.lo, a.lo, b.lo), vfmaq_f64(c.hi, a.hi, b.hi)};
}
inline Vec4d Sqrt(Vec4d a) { return {vsqrtq_f64(a.lo), vsqrtq_f64(a.hi)}; }
inline Vec4d Min(Vec4d a, Vec4d b) {
  return {vminq_f64(a.lo, b.lo), vminq_f64(a.hi, b.hi)};
}
inline Vec4d Max(Vec4d a, Vec4d b) {
  return {vmaxq_f64(a.lo, b.lo), vmaxq_f64(a.hi, b.hi)};
}
inline Vec4d Abs(Vec4d a) { return {vabsq_f64(a.lo), vabsq_f64(a.hi)}; }
inline Vec4d Round(Vec4d a) { return {vrndnq_f64(a.lo), vrndnq_f64(a.hi)}; }

inline Vec4d CmpLt(Vec4d a, Vec4d b) {
  return {vreinterpretq_f64_u64(vcltq_f64(a.lo, b.lo)),
          vreinterpretq_f64_u64(vcltq_f64(a.hi, b.hi))};
}
inline Vec4d CmpGe(Vec4d a, Vec4d b) {
  return {vreinterpretq_f64_u64(vcgeq_f64(a.lo, b.lo)),
          vreinterpretq_f64_u64(vcgeq_f64(a.hi, b.hi))};
}
inline Vec4d And(Vec4d a, Vec4d b) {
  return {vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(a.lo),
                                          vreinterpretq_u64_f64(b.lo))),
          vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(a.hi),
                                          vreinterpretq_u64_f64(b.hi)))};
}
inline Vec4d Select(Vec4d mask, Vec4d a, Vec4d b) {
  return {vbslq_f64(vreinterpretq_u64_f64(mask.lo), a.lo, b.lo),
          vbslq_f64(vreinterpretq_u64_f64(mask.hi), a.hi, b.hi)};
}
inline bool AnyTrue(Vec4d mask) {
  const uint64x2_t m = vorrq_u64(vreinterpretq_u64_f64(mask.lo),
                                 vreinterpretq_u64_f64(mask.hi));
  return (vgetq_lane_u64(m, 0) | vgetq_lane_u64(m, 1)) != 0;
}

inline Vec4d ScaleByPow2(Vec4d x, Vec4d k) {
  const int64x2_t klo = vcvtnq_s64_f64(k.lo);
  const int64x2_t khi = vcvtnq_s64_f64(k.hi);
  const int64x2_t bias = vdupq_n_s64(1023);
  const float64x2_t slo =
      vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(klo, bias), 52));
  const float64x2_t shi =
      vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(khi, bias), 52));
  return {vmulq_f64(x.lo, slo), vmulq_f64(x.hi, shi)};
}

/// Four 32-bit element indices. NEON has no hardware gather; lanes load
/// individually (still profits from the surrounding vector arithmetic).
struct Idx4 {
  uint32_t v[4];
};

inline Idx4 LoadIdx(const uint32_t* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline Idx4 MulIdx(Idx4 a, int32_t m) {
  Idx4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * static_cast<uint32_t>(m);
  return r;
}
inline Vec4d Gather(const double* base, Idx4 idx) {
  const double lo[2] = {base[idx.v[0]], base[idx.v[1]]};
  const double hi[2] = {base[idx.v[2]], base[idx.v[3]]};
  return {vld1q_f64(lo), vld1q_f64(hi)};
}

#else  // RFID_SIMD_BACKEND_SCALAR

struct Vec4d {
  double v[4];
};

inline Vec4d Load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void Store(double* p, Vec4d a) {
  for (int i = 0; i < 4; ++i) p[i] = a.v[i];
}
inline Vec4d Set1(double x) { return {{x, x, x, x}}; }
inline Vec4d Zero() { return Set1(0.0); }

#define RFID_SIMD_LANEWISE(name, expr)                 \
  inline Vec4d name(Vec4d a, Vec4d b) {                \
    Vec4d r;                                           \
    for (int i = 0; i < 4; ++i) r.v[i] = (expr);       \
    return r;                                          \
  }
RFID_SIMD_LANEWISE(operator+, a.v[i] + b.v[i])
RFID_SIMD_LANEWISE(operator-, a.v[i] - b.v[i])
RFID_SIMD_LANEWISE(operator*, a.v[i] * b.v[i])
RFID_SIMD_LANEWISE(operator/, a.v[i] / b.v[i])
RFID_SIMD_LANEWISE(Min, a.v[i] < b.v[i] ? a.v[i] : b.v[i])
RFID_SIMD_LANEWISE(Max, a.v[i] > b.v[i] ? a.v[i] : b.v[i])
#undef RFID_SIMD_LANEWISE

inline Vec4d MulAdd(Vec4d a, Vec4d b, Vec4d c) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}
inline Vec4d Sqrt(Vec4d a) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}
inline Vec4d Abs(Vec4d a) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) r.v[i] = std::fabs(a.v[i]);
  return r;
}
inline Vec4d Round(Vec4d a) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) r.v[i] = std::nearbyint(a.v[i]);
  return r;
}

namespace detail {
inline double MaskBits(bool b) {
  uint64_t bits = b ? ~uint64_t{0} : 0;
  double d;
  __builtin_memcpy(&d, &bits, sizeof(d));
  return d;
}
inline bool MaskSet(double d) {
  uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits != 0;
}
}  // namespace detail

inline Vec4d CmpLt(Vec4d a, Vec4d b) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) r.v[i] = detail::MaskBits(a.v[i] < b.v[i]);
  return r;
}
inline Vec4d CmpGe(Vec4d a, Vec4d b) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) r.v[i] = detail::MaskBits(a.v[i] >= b.v[i]);
  return r;
}
inline Vec4d And(Vec4d a, Vec4d b) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) {
    uint64_t x, y;
    __builtin_memcpy(&x, &a.v[i], sizeof(x));
    __builtin_memcpy(&y, &b.v[i], sizeof(y));
    const uint64_t z = x & y;
    __builtin_memcpy(&r.v[i], &z, sizeof(z));
  }
  return r;
}
inline Vec4d Select(Vec4d mask, Vec4d a, Vec4d b) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) {
    r.v[i] = detail::MaskSet(mask.v[i]) ? a.v[i] : b.v[i];
  }
  return r;
}
inline bool AnyTrue(Vec4d mask) {
  for (int i = 0; i < 4; ++i) {
    if (detail::MaskSet(mask.v[i])) return true;
  }
  return false;
}

inline Vec4d ScaleByPow2(Vec4d x, Vec4d k) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) {
    r.v[i] = std::ldexp(x.v[i], static_cast<int>(k.v[i]));
  }
  return r;
}

/// Four 32-bit element indices; lanes load individually.
struct Idx4 {
  uint32_t v[4];
};

inline Idx4 LoadIdx(const uint32_t* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline Idx4 MulIdx(Idx4 a, int32_t m) {
  Idx4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * static_cast<uint32_t>(m);
  return r;
}
inline Vec4d Gather(const double* base, Idx4 idx) {
  return {{base[idx.v[0]], base[idx.v[1]], base[idx.v[2]], base[idx.v[3]]}};
}

#endif  // backend selection

// --------------------------------------------------------------------------
// Transcendentals, written once against the primitives above.
// --------------------------------------------------------------------------

/// exp(x) with x clamped to [-700, 700] (outside that range the result
/// saturates to exp(+-700); the sensor kernels never leave it — far-field
/// lanes are cut off before the exponent can grow). Cody-Waite reduction
/// x = k*ln2 + r, degree-11 Taylor on |r| <= ln2/2, exponent-bit scaling.
inline Vec4d Exp(Vec4d x) {
  x = Min(Max(x, Set1(-700.0)), Set1(700.0));
  const Vec4d log2e = Set1(1.4426950408889634074);
  const Vec4d neg_ln2_hi = Set1(-6.93147180369123816490e-01);
  const Vec4d neg_ln2_lo = Set1(-1.90821492927058770002e-10);
  const Vec4d k = Round(x * log2e);
  // r = x - k*ln2, in two parts so the reduction itself is exact to ~1e-19.
  Vec4d r = MulAdd(k, neg_ln2_hi, x);
  r = MulAdd(k, neg_ln2_lo, r);
  // Horner over 1/11! .. 1/0!.
  Vec4d p = Set1(1.0 / 39916800.0);
  p = MulAdd(p, r, Set1(1.0 / 3628800.0));
  p = MulAdd(p, r, Set1(1.0 / 362880.0));
  p = MulAdd(p, r, Set1(1.0 / 40320.0));
  p = MulAdd(p, r, Set1(1.0 / 5040.0));
  p = MulAdd(p, r, Set1(1.0 / 720.0));
  p = MulAdd(p, r, Set1(1.0 / 120.0));
  p = MulAdd(p, r, Set1(1.0 / 24.0));
  p = MulAdd(p, r, Set1(1.0 / 6.0));
  p = MulAdd(p, r, Set1(0.5));
  p = MulAdd(p, r, Set1(1.0));
  p = MulAdd(p, r, Set1(1.0));
  return ScaleByPow2(p, k);
}

namespace detail {

/// fdlibm asin rational core: asin(x) = x + x * R(x^2) for |x| <= 0.5,
/// R(t) = t*P(t)/Q(t). Accurate to well under a double ulp on that domain.
inline Vec4d AsinCore(Vec4d x) {
  const Vec4d t = x * x;
  Vec4d p = Set1(3.47933107596021167570e-05);
  p = MulAdd(p, t, Set1(7.91534994289814532176e-04));
  p = MulAdd(p, t, Set1(-4.00555345006794114027e-02));
  p = MulAdd(p, t, Set1(2.01212532134862925881e-01));
  p = MulAdd(p, t, Set1(-3.25565818622400915405e-01));
  p = MulAdd(p, t, Set1(1.66666666666666657415e-01));
  p = p * t;
  Vec4d q = Set1(7.70381505559019352791e-02);
  q = MulAdd(q, t, Set1(-6.88283971605453293030e-01));
  q = MulAdd(q, t, Set1(2.02094576023350569471e+00));
  q = MulAdd(q, t, Set1(-2.40339491173441421878e+00));
  q = MulAdd(q, t, Set1(1.0));
  return MulAdd(x, p / q, x);
}

}  // namespace detail

/// acos(x) for x in [-1, 1] (callers clamp). |x| <= 0.5 uses
/// pi/2 - asin(x); |x| > 0.5 uses the half-angle identity
/// 2*asin(sqrt((1-|x|)/2)), reflected to pi - . for negative x. The
/// half-angle form keeps *relative* accuracy as acos -> 0 near x = 1.
inline Vec4d Acos(Vec4d x) {
  const Vec4d half = Set1(0.5);
  const Vec4d one = Set1(1.0);
  const Vec4d pi = Set1(3.14159265358979311600e+00);
  const Vec4d pio2 = Set1(1.57079632679489661923e+00);

  const Vec4d a = Abs(x);
  const Vec4d neg = CmpLt(x, Zero());
  const Vec4d big = CmpGe(a, half);

  // Small branch: acos(x) = pi/2 - asin(x), x signed.
  const Vec4d small_result = pio2 - detail::AsinCore(x);

  // Big branch: s = sqrt((1-|x|)/2); acos(|x|) = 2*asin(s).
  const Vec4d s = Sqrt(Max((one - a) * half, Zero()));
  const Vec4d big_pos = Set1(2.0) * detail::AsinCore(s);
  const Vec4d big_result = Select(neg, pi - big_pos, big_pos);

  return Select(big, big_result, small_result);
}

}  // namespace simd
}  // namespace rfid
