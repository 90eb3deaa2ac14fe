// Vectorized lane-word backend for the batched kernels (ROADMAP item 3).
//
// The batch engine's state is already SIMD-shaped: a 64-bit lane word per
// vertex selects up to 64 queries, and every per-lane payload (distances,
// depths, enqueue-time labels, tallies) is a contiguous B-wide slice at
// the word's lane base. The kernels here operate on exactly that shape —
// one 64-lane word plus the u32/u64 slices it masks — so the scalar
// ctz-loops in primitives/batch.cpp and core/priority_queue.hpp collapse
// into a handful of masked vector ops.
//
// Three backends share one contract:
//
//  * kScalar — the reference ctz-loops (always available; also the
//    semantics every vector variant must reproduce bit-for-bit).
//  * kAvx2   — 8 x u32 / 4 x u64 groups via maskload/maskstore (both
//    fault-suppressing on masked-out elements, so partial tail words of a
//    non-multiple-of-64 batch never touch out-of-bounds memory).
//  * kAvx512 — 16 x u32 / 8 x u64 groups with native mask registers.
//
// Every variant carries a function-level `target` attribute, so the
// translation units build without global -mavx2/-mavx512f and the choice
// is made at runtime: `resolve_backend` consults `__builtin_cpu_supports`
// once and honors the GRX_DISABLE_VEC environment kill switch (any
// non-empty value other than "0" forces scalar, overriding explicit
// requests — the escape hatch for miscompiles in the field). On non-x86
// builds everything resolves to kScalar.
//
// Correctness contract (asserted by tests/test_vec.cpp and the backend
// axis of tests/test_determinism.cpp): for every kernel and every input,
// each backend returns byte-identical results — including the exact
// wrapping u32 arithmetic of the scalar relax and the exact early-exit
// probe count of the scalar pull loop. Alignment contract: all vector
// loads/stores are unaligned-safe (loadu/maskload); the lane matrices are
// 64-byte aligned anyway (util/aligned.hpp) so full-width accesses never
// split cache lines.
#pragma once

#include <cstdint>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GRX_VEC_X86 1
#include <immintrin.h>
#endif

namespace grx::simt {

/// Kernel backend selector. kAuto resolves to the best CPU-supported
/// backend at enact time; the rest force a specific path (clamped down to
/// what the CPU supports — requesting kAvx512 on an AVX2-only machine runs
/// AVX2, never faults).
enum class VecBackend : std::uint8_t { kAuto = 0, kScalar, kAvx2, kAvx512 };

inline const char* to_string(VecBackend b) {
  switch (b) {
    case VecBackend::kAuto: return "auto";
    case VecBackend::kScalar: return "scalar";
    case VecBackend::kAvx2: return "avx2";
    case VecBackend::kAvx512: return "avx512";
  }
  return "?";
}

namespace vec_detail {

/// GRX_DISABLE_VEC semantics, factored pure for unit testing: set and not
/// "0" disables every vector path.
inline bool disable_env_set(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace vec_detail

/// Best backend this process may use: CPU feature detection gated by the
/// GRX_DISABLE_VEC kill switch, computed once (the env var is read at
/// first call and latched — consistent for the process lifetime).
inline VecBackend detect_backend() {
  static const VecBackend best = [] {
#ifdef GRX_VEC_X86
    if (!vec_detail::disable_env_set(std::getenv("GRX_DISABLE_VEC"))) {
      if (__builtin_cpu_supports("avx512f")) return VecBackend::kAvx512;
      if (__builtin_cpu_supports("avx2")) return VecBackend::kAvx2;
    }
#endif
    return VecBackend::kScalar;
  }();
  return best;
}

/// Resolves a requested backend to a runnable one: kAuto takes the best
/// detected; explicit requests clamp down to detected support (and to
/// scalar under GRX_DISABLE_VEC). Never returns kAuto.
inline VecBackend resolve_backend(VecBackend requested) {
  const VecBackend best = detect_backend();
  switch (requested) {
    case VecBackend::kAuto: return best;
    case VecBackend::kScalar: return VecBackend::kScalar;
    case VecBackend::kAvx2:
      return best >= VecBackend::kAvx2 ? VecBackend::kAvx2
                                       : VecBackend::kScalar;
    case VecBackend::kAvx512: return best;
  }
  return VecBackend::kScalar;
}

namespace vec_detail {

inline constexpr std::uint32_t kU32Inf = 0xFFFFFFFFu;

// --- scalar reference variants ----------------------------------------------
// These are the semantics. Every vector variant below must match them
// bit-for-bit on every input (tests/test_vec.cpp fuzzes exactly that).

inline void masked_store_u32_scalar(std::uint32_t* dst, std::uint64_t mask,
                                    std::uint32_t value) {
  while (mask) {
    dst[__builtin_ctzll(mask)] = value;
    mask &= mask - 1;
  }
}

inline void masked_copy_u32_scalar(std::uint32_t* dst,
                                   const std::uint32_t* src,
                                   std::uint64_t mask) {
  while (mask) {
    const unsigned q = static_cast<unsigned>(__builtin_ctzll(mask));
    mask &= mask - 1;
    dst[q] = src[q];
  }
}

inline std::uint64_t relax_min_u32_scalar(std::uint32_t* dist,
                                          const std::uint32_t* labels,
                                          std::uint32_t wt,
                                          std::uint64_t active) {
  std::uint64_t improved = 0;
  while (active) {
    const unsigned q = static_cast<unsigned>(__builtin_ctzll(active));
    active &= active - 1;
    const std::uint32_t ds = labels[q];
    if (ds == kU32Inf) continue;  // stale lane, nothing to relax
    const std::uint32_t cand = ds + wt;  // wraps like the scalar kernel
    if (cand < dist[q]) {
      dist[q] = cand;
      improved |= 1ull << q;
    }
  }
  return improved;
}

inline std::uint64_t lt_bounds_u32_scalar(const std::uint32_t* vals,
                                          const std::uint32_t* bounds,
                                          std::uint64_t active) {
  std::uint64_t out = 0;
  while (active) {
    const unsigned q = static_cast<unsigned>(__builtin_ctzll(active));
    active &= active - 1;
    if (vals[q] < bounds[q]) out |= 1ull << q;
  }
  return out;
}

inline void masked_inc_u64_scalar(std::uint64_t* counters,
                                  std::uint64_t mask) {
  while (mask) {
    counters[__builtin_ctzll(mask)]++;
    mask &= mask - 1;
  }
}

inline void masked_min_u32_scalar(std::uint32_t* dst,
                                  const std::uint32_t* src,
                                  std::uint64_t mask) {
  while (mask) {
    const unsigned q = static_cast<unsigned>(__builtin_ctzll(mask));
    mask &= mask - 1;
    if (src[q] < dst[q]) dst[q] = src[q];
  }
}

inline std::uint64_t pull_probe_u64_scalar(const std::uint64_t* cur,
                                           const std::uint32_t* cols,
                                           std::uint64_t count,
                                           std::uint64_t pend,
                                           std::uint64_t* got) {
  std::uint64_t g = 0;
  std::uint64_t probes = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ++probes;
    const std::uint64_t d = cur[cols[i]] & pend;
    if (d) {
      g |= d;
      pend &= ~d;
      if (!pend) break;
    }
  }
  *got = g;
  return probes;
}

#ifdef GRX_VEC_X86

// --- AVX2 variants -----------------------------------------------------------
// 8 x u32 / 4 x u64 groups. Loads and stores are maskload/maskstore: both
// suppress faults on masked-out elements, so a partial trailing lane word
// (B not a multiple of 64) never reads or writes past the row end.

/// Expands the low 8 bits of `m` to a per-element all-ones/all-zeros
/// epi32 vector mask (element j = bit j), the maskload/maskstore shape.
__attribute__((target("avx2"))) inline __m256i expand_mask8_epi32(
    std::uint32_t m) {
  const __m256i sel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  return _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(
                                static_cast<int>(m)), sel), sel);
}

/// Expands the low 4 bits of `m` to a per-element epi64 vector mask.
__attribute__((target("avx2"))) inline __m256i expand_mask4_epi64(
    std::uint32_t m) {
  const __m256i sel = _mm256_setr_epi64x(1, 2, 4, 8);
  return _mm256_cmpeq_epi64(_mm256_and_si256(_mm256_set1_epi64x(
                                static_cast<long long>(m)), sel), sel);
}

__attribute__((target("avx2"))) inline void masked_store_u32_avx2(
    std::uint32_t* dst, std::uint64_t mask, std::uint32_t value) {
  const __m256i v = _mm256_set1_epi32(static_cast<int>(value));
  for (int g = 0; g < 8; ++g) {
    const std::uint32_t m = (mask >> (8 * g)) & 0xFFu;
    if (!m) continue;
    _mm256_maskstore_epi32(reinterpret_cast<int*>(dst + 8 * g),
                           expand_mask8_epi32(m), v);
  }
}

__attribute__((target("avx2"))) inline void masked_copy_u32_avx2(
    std::uint32_t* dst, const std::uint32_t* src, std::uint64_t mask) {
  for (int g = 0; g < 8; ++g) {
    const std::uint32_t m = (mask >> (8 * g)) & 0xFFu;
    if (!m) continue;
    const __m256i vm = expand_mask8_epi32(m);
    const __m256i v = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(src + 8 * g), vm);
    _mm256_maskstore_epi32(reinterpret_cast<int*>(dst + 8 * g), vm, v);
  }
}

__attribute__((target("avx2"))) inline std::uint64_t relax_min_u32_avx2(
    std::uint32_t* dist, const std::uint32_t* labels, std::uint32_t wt,
    std::uint64_t active) {
  std::uint64_t improved = 0;
  const __m256i vinf = _mm256_set1_epi32(-1);
  const __m256i vwt = _mm256_set1_epi32(static_cast<int>(wt));
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  for (int g = 0; g < 8; ++g) {
    const std::uint32_t m = (active >> (8 * g)) & 0xFFu;
    if (!m) continue;
    const __m256i vm = expand_mask8_epi32(m);
    const __m256i lab = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(labels + 8 * g), vm);
    const __m256i dd = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(dist + 8 * g), vm);
    const __m256i cand = _mm256_add_epi32(lab, vwt);  // wraps like scalar
    // Unsigned cand < dd via the sign-flip trick (AVX2 compares signed).
    const __m256i lt = _mm256_cmpgt_epi32(_mm256_xor_si256(dd, sign),
                                          _mm256_xor_si256(cand, sign));
    __m256i imp = _mm256_andnot_si256(_mm256_cmpeq_epi32(lab, vinf), lt);
    imp = _mm256_and_si256(imp, vm);
    const auto impm = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(imp)));
    if (!impm) continue;
    _mm256_maskstore_epi32(reinterpret_cast<int*>(dist + 8 * g), imp, cand);
    improved |= static_cast<std::uint64_t>(impm) << (8 * g);
  }
  return improved;
}

__attribute__((target("avx2"))) inline std::uint64_t lt_bounds_u32_avx2(
    const std::uint32_t* vals, const std::uint32_t* bounds,
    std::uint64_t active) {
  std::uint64_t out = 0;
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  for (int g = 0; g < 8; ++g) {
    const std::uint32_t m = (active >> (8 * g)) & 0xFFu;
    if (!m) continue;
    const __m256i vm = expand_mask8_epi32(m);
    const __m256i v = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(vals + 8 * g), vm);
    const __m256i b = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(bounds + 8 * g), vm);
    const __m256i lt = _mm256_cmpgt_epi32(_mm256_xor_si256(b, sign),
                                          _mm256_xor_si256(v, sign));
    const auto ltm = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(lt, vm))));
    out |= static_cast<std::uint64_t>(ltm) << (8 * g);
  }
  return out;
}

__attribute__((target("avx2"))) inline void masked_inc_u64_avx2(
    std::uint64_t* counters, std::uint64_t mask) {
  const __m256i one = _mm256_set1_epi64x(1);
  for (int g = 0; g < 16; ++g) {
    const std::uint32_t m = (mask >> (4 * g)) & 0xFu;
    if (!m) continue;
    const __m256i vm = expand_mask4_epi64(m);
    const __m256i v = _mm256_maskload_epi64(
        reinterpret_cast<const long long*>(counters + 4 * g), vm);
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(counters + 4 * g),
                           vm, _mm256_add_epi64(v, one));
  }
}

__attribute__((target("avx2"))) inline void masked_min_u32_avx2(
    std::uint32_t* dst, const std::uint32_t* src, std::uint64_t mask) {
  for (int g = 0; g < 8; ++g) {
    const std::uint32_t m = (mask >> (8 * g)) & 0xFFu;
    if (!m) continue;
    const __m256i vm = expand_mask8_epi32(m);
    const __m256i d = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(dst + 8 * g), vm);
    const __m256i s = _mm256_maskload_epi32(
        reinterpret_cast<const int*>(src + 8 * g), vm);
    _mm256_maskstore_epi32(reinterpret_cast<int*>(dst + 8 * g), vm,
                           _mm256_min_epu32(d, s));
  }
}

/// 4-wide gather form of the scalar probe loop. Exactness hinges on the
/// prefix-OR identity: after probing edges 0..k, pend = pend0 & ~OR(cur
/// words 0..k) and got = pend0 & OR(...) — so the scalar's early exit is
/// "first k where pend0 is covered", recoverable from in-register prefix
/// ORs without replaying the per-edge updates. Probe counts (which feed
/// the cost model and EnactSummary) match the scalar loop exactly.
__attribute__((target("avx2"))) inline std::uint64_t pull_probe_u64_avx2(
    const std::uint64_t* cur, const std::uint32_t* cols, std::uint64_t count,
    std::uint64_t pend, std::uint64_t* got) {
  const std::uint64_t pend0 = pend;
  std::uint64_t acc = 0;  // OR of every cur word probed so far
  std::uint64_t probes = 0;
  std::uint64_t i = 0;
  // Scalar head: on saturated pull levels the scalar loop covers pend
  // within a probe or two, and an unconditional 4-wide gather pays full
  // gather latency for those. Probe a short head one edge at a time and
  // only enter the gather loop once pend survives it; the prefix-OR
  // identity below holds for any accumulated `acc` at entry.
  const std::uint64_t head = count < 16 ? count : 4;
  for (; i < head; ++i) {
    ++probes;
    const std::uint64_t d = cur[cols[i]] & pend;
    if (d) {
      acc |= cur[cols[i]];
      pend &= ~d;
      if (!pend) {
        *got = pend0 & acc;
        return probes;
      }
    }
  }
  const __m256i zero = _mm256_setzero_si256();
  const __m256i vpend = _mm256_set1_epi64x(static_cast<long long>(pend0));
  for (; i + 4 <= count; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + i));
    const __m256i w = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(cur), idx, 8);
    // Cheap coverage test first: a horizontal OR tells whether this block
    // can empty pend at all. Only a covering block — once per probe scan —
    // pays the prefix-OR machinery to locate the exact exit lane.
    const __m128i h =
        _mm_or_si128(_mm256_castsi256_si128(w), _mm256_extracti128_si256(w, 1));
    const auto blk = static_cast<std::uint64_t>(_mm_cvtsi128_si64(
        _mm_or_si128(h, _mm_unpackhi_epi64(h, h))));
    if (pend0 & ~(acc | blk)) {
      acc |= blk;
      probes += 4;
      continue;
    }
    // In-register prefix OR: lane j = OR of gathered words 0..j.
    __m256i s1 = _mm256_permute4x64_epi64(w, _MM_SHUFFLE(2, 1, 0, 0));
    s1 = _mm256_blend_epi32(s1, zero, 0x03);  // lane 0 -> 0
    __m256i t = _mm256_or_si256(w, s1);
    __m256i s2 = _mm256_permute4x64_epi64(t, _MM_SHUFFLE(1, 0, 0, 0));
    s2 = _mm256_blend_epi32(s2, zero, 0x0F);  // lanes 0,1 -> 0
    t = _mm256_or_si256(t, s2);
    const __m256i full = _mm256_or_si256(
        t, _mm256_set1_epi64x(static_cast<long long>(acc)));
    // First lane where pend0 & ~full == 0: the scalar loop's break point.
    const __m256i left = _mm256_andnot_si256(full, vpend);
    const auto done = static_cast<std::uint32_t>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(left, zero))));
    const unsigned j = static_cast<unsigned>(__builtin_ctz(done));
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), full);
    *got = pend0 & tmp[j];
    return probes + j + 1;
  }
  pend = pend0 & ~acc;
  for (; i < count; ++i) {
    ++probes;
    const std::uint64_t d = cur[cols[i]] & pend;
    if (d) {
      acc |= cur[cols[i]];
      pend &= ~d;
      if (!pend) break;
    }
  }
  *got = pend0 & acc;
  return probes;
}

// --- AVX-512 variants --------------------------------------------------------
// 16 x u32 / 8 x u64 groups with native __mmask registers; masked loads
// and stores suppress faults on masked-out elements (same partial-word
// safety as the AVX2 maskload path). avx512f alone suffices — everything
// here is 512-bit epi32/epi64.

__attribute__((target("avx512f"))) inline void masked_store_u32_avx512(
    std::uint32_t* dst, std::uint64_t mask, std::uint32_t value) {
  const __m512i v = _mm512_set1_epi32(static_cast<int>(value));
  for (int g = 0; g < 4; ++g) {
    const auto m = static_cast<__mmask16>(mask >> (16 * g));
    if (!m) continue;
    _mm512_mask_storeu_epi32(dst + 16 * g, m, v);
  }
}

__attribute__((target("avx512f"))) inline void masked_copy_u32_avx512(
    std::uint32_t* dst, const std::uint32_t* src, std::uint64_t mask) {
  for (int g = 0; g < 4; ++g) {
    const auto m = static_cast<__mmask16>(mask >> (16 * g));
    if (!m) continue;
    _mm512_mask_storeu_epi32(dst + 16 * g, m,
                             _mm512_maskz_loadu_epi32(m, src + 16 * g));
  }
}

__attribute__((target("avx512f"))) inline std::uint64_t relax_min_u32_avx512(
    std::uint32_t* dist, const std::uint32_t* labels, std::uint32_t wt,
    std::uint64_t active) {
  std::uint64_t improved = 0;
  const __m512i vinf = _mm512_set1_epi32(-1);
  const __m512i vwt = _mm512_set1_epi32(static_cast<int>(wt));
  for (int g = 0; g < 4; ++g) {
    const auto am = static_cast<__mmask16>(active >> (16 * g));
    if (!am) continue;
    const __m512i lab = _mm512_maskz_loadu_epi32(am, labels + 16 * g);
    const __m512i dd = _mm512_maskz_loadu_epi32(am, dist + 16 * g);
    const __mmask16 ok = _mm512_mask_cmpneq_epu32_mask(am, lab, vinf);
    const __m512i cand = _mm512_add_epi32(lab, vwt);  // wraps like scalar
    const __mmask16 imp = _mm512_mask_cmplt_epu32_mask(ok, cand, dd);
    if (!imp) continue;
    _mm512_mask_storeu_epi32(dist + 16 * g, imp, cand);
    improved |= static_cast<std::uint64_t>(imp) << (16 * g);
  }
  return improved;
}

__attribute__((target("avx512f"))) inline std::uint64_t lt_bounds_u32_avx512(
    const std::uint32_t* vals, const std::uint32_t* bounds,
    std::uint64_t active) {
  std::uint64_t out = 0;
  for (int g = 0; g < 4; ++g) {
    const auto am = static_cast<__mmask16>(active >> (16 * g));
    if (!am) continue;
    const __m512i v = _mm512_maskz_loadu_epi32(am, vals + 16 * g);
    const __m512i b = _mm512_maskz_loadu_epi32(am, bounds + 16 * g);
    out |= static_cast<std::uint64_t>(
               _mm512_mask_cmplt_epu32_mask(am, v, b))
           << (16 * g);
  }
  return out;
}

__attribute__((target("avx512f"))) inline void masked_inc_u64_avx512(
    std::uint64_t* counters, std::uint64_t mask) {
  const __m512i one = _mm512_set1_epi64(1);
  for (int g = 0; g < 8; ++g) {
    const auto m = static_cast<__mmask8>(mask >> (8 * g));
    if (!m) continue;
    const __m512i v = _mm512_maskz_loadu_epi64(m, counters + 8 * g);
    _mm512_mask_storeu_epi64(counters + 8 * g, m, _mm512_add_epi64(v, one));
  }
}

__attribute__((target("avx512f"))) inline void masked_min_u32_avx512(
    std::uint32_t* dst, const std::uint32_t* src, std::uint64_t mask) {
  for (int g = 0; g < 4; ++g) {
    const auto m = static_cast<__mmask16>(mask >> (16 * g));
    if (!m) continue;
    const __m512i d = _mm512_maskz_loadu_epi32(m, dst + 16 * g);
    const __m512i s = _mm512_maskz_loadu_epi32(m, src + 16 * g);
    _mm512_mask_storeu_epi32(dst + 16 * g, m, _mm512_min_epu32(d, s));
  }
}

/// 8-wide gather probe; see the AVX2 variant for the prefix-OR argument.
__attribute__((target("avx512f"))) inline std::uint64_t pull_probe_u64_avx512(
    const std::uint64_t* cur, const std::uint32_t* cols, std::uint64_t count,
    std::uint64_t pend, std::uint64_t* got) {
  const std::uint64_t pend0 = pend;
  std::uint64_t acc = 0;
  std::uint64_t probes = 0;
  std::uint64_t i = 0;
  // Scalar head before the gather loop; see the AVX2 variant.
  const std::uint64_t head = count < 16 ? count : 4;
  for (; i < head; ++i) {
    ++probes;
    const std::uint64_t d = cur[cols[i]] & pend;
    if (d) {
      acc |= cur[cols[i]];
      pend &= ~d;
      if (!pend) {
        *got = pend0 & acc;
        return probes;
      }
    }
  }
  const __m512i zero = _mm512_setzero_si512();
  const __m512i vpend = _mm512_set1_epi64(static_cast<long long>(pend0));
  for (; i + 8 <= count; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + i));
    const __m512i w = _mm512_i32gather_epi64(idx, cur, 8);
    // Cheap coverage test first (see the AVX2 variant): only the covering
    // block pays the prefix-OR to locate the exact exit lane.
    const auto blk =
        static_cast<std::uint64_t>(_mm512_reduce_or_epi64(w));
    if (pend0 & ~(acc | blk)) {
      acc |= blk;
      probes += 8;
      continue;
    }
    // Prefix OR across 8 lanes: shift-up-by-k via valignq against zero.
    __m512i t = _mm512_or_si512(w, _mm512_alignr_epi64(w, zero, 7));
    t = _mm512_or_si512(t, _mm512_alignr_epi64(t, zero, 6));
    t = _mm512_or_si512(t, _mm512_alignr_epi64(t, zero, 4));
    const __m512i full = _mm512_or_si512(
        t, _mm512_set1_epi64(static_cast<long long>(acc)));
    const __m512i left = _mm512_andnot_si512(full, vpend);
    const __mmask8 done = _mm512_cmpeq_epi64_mask(left, zero);
    const unsigned j = static_cast<unsigned>(
        __builtin_ctz(static_cast<unsigned>(done)));
    alignas(64) std::uint64_t tmp[8];
    _mm512_store_si512(tmp, full);
    *got = pend0 & tmp[j];
    return probes + j + 1;
  }
  pend = pend0 & ~acc;
  for (; i < count; ++i) {
    ++probes;
    const std::uint64_t d = cur[cols[i]] & pend;
    if (d) {
      acc |= cur[cols[i]];
      pend &= ~d;
      if (!pend) break;
    }
  }
  *got = pend0 & acc;
  return probes;
}

#endif  // GRX_VEC_X86

}  // namespace vec_detail

// --- dispatchers -------------------------------------------------------------
// Callers resolve the backend once per enact (resolve_backend) and pass it
// down; dispatch per 64-lane word is one predictable switch. `vb` must
// never be kAuto here (kAuto falls through to scalar defensively).

/// dst[q] = value for every set bit q of `mask` (lane-depth commits).
inline void masked_store_u32(VecBackend vb, std::uint32_t* dst,
                             std::uint64_t mask, std::uint32_t value) {
  if (!mask) return;
  switch (vb) {
#ifdef GRX_VEC_X86
    case VecBackend::kAvx512:
      vec_detail::masked_store_u32_avx512(dst, mask, value);
      return;
    case VecBackend::kAvx2:
      vec_detail::masked_store_u32_avx2(dst, mask, value);
      return;
#endif
    default: vec_detail::masked_store_u32_scalar(dst, mask, value); return;
  }
}

/// dst[q] = src[q] for every set bit q of `mask` (enqueue-label commits).
inline void masked_copy_u32(VecBackend vb, std::uint32_t* dst,
                            const std::uint32_t* src, std::uint64_t mask) {
  if (!mask) return;
  switch (vb) {
#ifdef GRX_VEC_X86
    case VecBackend::kAvx512:
      vec_detail::masked_copy_u32_avx512(dst, src, mask);
      return;
    case VecBackend::kAvx2:
      vec_detail::masked_copy_u32_avx2(dst, src, mask);
      return;
#endif
    default: vec_detail::masked_copy_u32_scalar(dst, src, mask); return;
  }
}

/// The serial batch relax word: for every active lane with a finite label,
/// dist[q] = min(dist[q], labels[q] + wt); returns the improved-lane mask.
/// Arithmetic (including u32 wrap of labels+wt) matches the scalar kernel
/// exactly. Single-writer only — the caller guarantees no concurrent
/// access to this dist slice (the batch problems' `serial` mode).
inline std::uint64_t relax_min_u32(VecBackend vb, std::uint32_t* dist,
                                   const std::uint32_t* labels,
                                   std::uint32_t wt, std::uint64_t active) {
  if (!active) return 0;
  switch (vb) {
#ifdef GRX_VEC_X86
    case VecBackend::kAvx512:
      return vec_detail::relax_min_u32_avx512(dist, labels, wt, active);
    case VecBackend::kAvx2:
      return vec_detail::relax_min_u32_avx2(dist, labels, wt, active);
#endif
    default:
      return vec_detail::relax_min_u32_scalar(dist, labels, wt, active);
  }
}

/// Mask of active lanes where vals[q] < bounds[q] (u32 compare) — the
/// near/far cutoff test of claim_split and the wake pass.
inline std::uint64_t lt_bounds_u32(VecBackend vb, const std::uint32_t* vals,
                                   const std::uint32_t* bounds,
                                   std::uint64_t active) {
  if (!active) return 0;
  switch (vb) {
#ifdef GRX_VEC_X86
    case VecBackend::kAvx512:
      return vec_detail::lt_bounds_u32_avx512(vals, bounds, active);
    case VecBackend::kAvx2:
      return vec_detail::lt_bounds_u32_avx2(vals, bounds, active);
#endif
    default:
      return vec_detail::lt_bounds_u32_scalar(vals, bounds, active);
  }
}

/// counters[q]++ for every set bit q (per-lane near/far tallies).
inline void masked_inc_u64(VecBackend vb, std::uint64_t* counters,
                           std::uint64_t mask) {
  if (!mask) return;
  switch (vb) {
#ifdef GRX_VEC_X86
    case VecBackend::kAvx512:
      vec_detail::masked_inc_u64_avx512(counters, mask);
      return;
    case VecBackend::kAvx2:
      vec_detail::masked_inc_u64_avx2(counters, mask);
      return;
#endif
    default: vec_detail::masked_inc_u64_scalar(counters, mask); return;
  }
}

/// dst[q] = min(dst[q], src[q]) for every set bit q (min-dist tallies).
inline void masked_min_u32(VecBackend vb, std::uint32_t* dst,
                           const std::uint32_t* src, std::uint64_t mask) {
  if (!mask) return;
  switch (vb) {
#ifdef GRX_VEC_X86
    case VecBackend::kAvx512:
      vec_detail::masked_min_u32_avx512(dst, src, mask);
      return;
    case VecBackend::kAvx2:
      vec_detail::masked_min_u32_avx2(dst, src, mask);
      return;
#endif
    default: vec_detail::masked_min_u32_scalar(dst, src, mask); return;
  }
}

/// The wpv==1 pull probe: scans cur[cols[0..count)] against `pend`,
/// stopping as soon as every pending lane found a parent. Sets *got to
/// the discovered lanes and returns the number of edges probed — exactly
/// the scalar early-exit count (it feeds the cost model and
/// EnactSummary::edges_processed, so it must not drift across backends).
inline std::uint64_t pull_probe_u64(VecBackend vb, const std::uint64_t* cur,
                                    const std::uint32_t* cols,
                                    std::uint64_t count, std::uint64_t pend,
                                    std::uint64_t* got) {
  switch (vb) {
#ifdef GRX_VEC_X86
    case VecBackend::kAvx512:
      return vec_detail::pull_probe_u64_avx512(cur, cols, count, pend, got);
    case VecBackend::kAvx2:
      return vec_detail::pull_probe_u64_avx2(cur, cols, count, pend, got);
#endif
    default:
      return vec_detail::pull_probe_u64_scalar(cur, cols, count, pend, got);
  }
}

}  // namespace grx::simt

namespace grx {

/// Per-enact backend knob, threaded QueryOptions -> BatchEnactor -> the
/// lane kernels.
struct BackendOptions {
  /// Vector backend for the batched lane kernels. kAuto (the default)
  /// resolves to the best CPU-supported path at enact time; kScalar forces
  /// the reference loops (results are byte-identical either way).
  simt::VecBackend vec = simt::VecBackend::kAuto;

  friend bool operator==(const BackendOptions&,
                         const BackendOptions&) = default;
};

}  // namespace grx
