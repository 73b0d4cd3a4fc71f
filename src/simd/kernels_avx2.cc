/// AVX2 bodies of the simd kernel twins. This translation unit is the only
/// one compiled with -mavx2 (see src/simd/CMakeLists.txt); everything here
/// runs only after runtime dispatch confirmed the CPU supports AVX2, so the
/// rest of the binary stays executable on baseline x86-64. On toolchains
/// without AVX2 the #else branch at the bottom forwards every twin to its
/// scalar sibling and reports Avx2Compiled() == false.

#include "simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "util/page_allocator.h"

namespace twrs {
namespace simd {
namespace internal {

namespace {

// AVX2 has no native 64-bit min/max; synthesize them from the signed
// compare, which matches Key = int64_t ordering exactly.
inline __m256i MinEpi64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

inline __m256i MaxEpi64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

// [a0 a1 a2 a3] -> [a3 a2 a1 a0]
inline __m256i Reverse4(__m256i v) {
  return _mm256_permute4x64_epi64(v, _MM_SHUFFLE(0, 1, 2, 3));
}

// Sorts a bitonic 4-sequence held in one vector: compare-exchange at
// stride 2 (cross-lane permute + blend of the high 128-bit half), then at
// stride 1 (in-lane swap + blend of the odd 64-bit elements).
inline __m256i BitonicMerge4(__m256i v) {
  __m256i w = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(1, 0, 3, 2));
  __m256i mn = MinEpi64(v, w);
  __m256i mx = MaxEpi64(v, w);
  v = _mm256_blend_epi32(mn, mx, 0xF0);
  w = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(2, 3, 0, 1));
  mn = MinEpi64(v, w);
  mx = MaxEpi64(v, w);
  return _mm256_blend_epi32(mn, mx, 0xCC);
}

// Merges two sorted 4-vectors into one sorted 8-sequence: reversing the
// second operand makes (lo, hi) bitonic, one cross compare-exchange splits
// it into a low and high bitonic half, each finished by BitonicMerge4.
inline void Merge8(__m256i a, __m256i b, __m256i* lo, __m256i* hi) {
  b = Reverse4(b);
  __m256i mn = MinEpi64(a, b);
  __m256i mx = MaxEpi64(a, b);
  *lo = BitonicMerge4(mn);
  *hi = BitonicMerge4(mx);
}

// Sorts a bitonic 8-sequence spread over two vectors.
inline void BitonicMerge8(__m256i* x0, __m256i* x1) {
  __m256i mn = MinEpi64(*x0, *x1);
  __m256i mx = MaxEpi64(*x0, *x1);
  *x0 = BitonicMerge4(mn);
  *x1 = BitonicMerge4(mx);
}

// Merges two sorted 8-sequences (a0|a1 and b0|b1) into a sorted 16.
inline void MergeTwo8(__m256i a0, __m256i a1, __m256i b0, __m256i b1,
                      __m256i* x0, __m256i* x1, __m256i* x2, __m256i* x3) {
  __m256i rb0 = Reverse4(b1);
  __m256i rb1 = Reverse4(b0);
  *x0 = MinEpi64(a0, rb0);
  *x1 = MinEpi64(a1, rb1);
  *x2 = MaxEpi64(a0, rb0);
  *x3 = MaxEpi64(a1, rb1);
  BitonicMerge8(x0, x1);
  BitonicMerge8(x2, x3);
}

// Sorts 16 keys held in four registers: a 5-comparator column network
// sorts the four 4-key columns, a 4x4 transpose turns the sorted columns
// into sorted rows, and two bitonic merge rounds combine the rows. On
// return *o0..*o3 concatenate to the ascending permutation.
inline void Sort16Regs(__m256i* o0, __m256i* o1, __m256i* o2, __m256i* o3) {
  __m256i v0 = *o0;
  __m256i v1 = *o1;
  __m256i v2 = *o2;
  __m256i v3 = *o3;

  __m256i t;
  t = MinEpi64(v0, v1);
  v1 = MaxEpi64(v0, v1);
  v0 = t;
  t = MinEpi64(v2, v3);
  v3 = MaxEpi64(v2, v3);
  v2 = t;
  t = MinEpi64(v0, v2);
  v2 = MaxEpi64(v0, v2);
  v0 = t;
  t = MinEpi64(v1, v3);
  v3 = MaxEpi64(v1, v3);
  v1 = t;
  t = MinEpi64(v1, v2);
  v2 = MaxEpi64(v1, v2);
  v1 = t;

  __m256i t0 = _mm256_unpacklo_epi64(v0, v1);
  __m256i t1 = _mm256_unpackhi_epi64(v0, v1);
  __m256i t2 = _mm256_unpacklo_epi64(v2, v3);
  __m256i t3 = _mm256_unpackhi_epi64(v2, v3);
  __m256i r0 = _mm256_permute2x128_si256(t0, t2, 0x20);
  __m256i r1 = _mm256_permute2x128_si256(t1, t3, 0x20);
  __m256i r2 = _mm256_permute2x128_si256(t0, t2, 0x31);
  __m256i r3 = _mm256_permute2x128_si256(t1, t3, 0x31);

  __m256i s0;
  __m256i s1;
  __m256i s2;
  __m256i s3;
  Merge8(r0, r1, &s0, &s1);
  Merge8(r2, r3, &s2, &s3);
  MergeTwo8(s0, s1, s2, s3, o0, o1, o2, o3);
}

inline void Sort16(Key* p) {
  __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
  __m256i v2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8));
  __m256i v3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 12));
  Sort16Regs(&v0, &v1, &v2, &v3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 4), v1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 8), v2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 12), v3);
}

// Sorts a bitonic 16-sequence spread over four vectors.
inline void BitonicMerge16(__m256i* x0, __m256i* x1, __m256i* x2,
                           __m256i* x3) {
  const __m256i mn0 = MinEpi64(*x0, *x2);
  const __m256i mx0 = MaxEpi64(*x0, *x2);
  const __m256i mn1 = MinEpi64(*x1, *x3);
  const __m256i mx1 = MaxEpi64(*x1, *x3);
  *x0 = mn0;
  *x1 = mn1;
  *x2 = mx0;
  *x3 = mx1;
  BitonicMerge8(x0, x1);
  BitonicMerge8(x2, x3);
}

// Sorts 32 keys entirely in registers: two Sort16Regs halves joined by a
// 16-vs-16 bitonic merge. Widening the in-register base block to 32 saves
// one full load/store merge pass in SortKeysBlockAvx2.
inline void Sort32(Key* p) {
  __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
  __m256i a2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8));
  __m256i a3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 12));
  __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 16));
  __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 20));
  __m256i b2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 24));
  __m256i b3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 28));
  Sort16Regs(&a0, &a1, &a2, &a3);
  Sort16Regs(&b0, &b1, &b2, &b3);
  const __m256i rb0 = Reverse4(b3);
  const __m256i rb1 = Reverse4(b2);
  const __m256i rb2 = Reverse4(b1);
  const __m256i rb3 = Reverse4(b0);
  __m256i lo0 = MinEpi64(a0, rb0);
  __m256i lo1 = MinEpi64(a1, rb1);
  __m256i lo2 = MinEpi64(a2, rb2);
  __m256i lo3 = MinEpi64(a3, rb3);
  __m256i hi0 = MaxEpi64(a0, rb0);
  __m256i hi1 = MaxEpi64(a1, rb1);
  __m256i hi2 = MaxEpi64(a2, rb2);
  __m256i hi3 = MaxEpi64(a3, rb3);
  BitonicMerge16(&lo0, &lo1, &lo2, &lo3);
  BitonicMerge16(&hi0, &hi1, &hi2, &hi3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), lo0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 4), lo1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 8), lo2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 12), lo3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 16), hi0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 20), hi1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 24), hi2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 28), hi3);
}

void ScalarMergeInto(const Key* a, size_t na, const Key* b, size_t nb,
                     Key* out) {
  std::merge(a, a + na, b, b + nb, out);
}

// Streaming merge of two sorted runs. Keeps a working 8-sequence in two
// vectors: each round emits its low half and refills from whichever run
// has the smaller next head, which guarantees every emitted key is <= all
// keys still unloaded. When the preferred run cannot supply a full vector,
// the pending high half spills to a stack buffer and a scalar three-way
// merge finishes the tails.
void MergeIntoAvx2(const Key* a, size_t na, const Key* b, size_t nb,
                   Key* out) {
  if (na < 4 || nb < 4) {
    ScalarMergeInto(a, na, b, nb, out);
    return;
  }
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  size_t ai = 4;
  size_t bi = 4;
  size_t oi = 0;
  for (;;) {
    __m256i lo;
    __m256i hi;
    Merge8(v, w, &lo, &hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + oi), lo);
    oi += 4;
    w = hi;
    if (ai + 4 <= na && bi + 4 <= nb) {
      // Hot path: both runs can supply a full vector. The head compare is
      // data-dependent and would mispredict half the time on random keys,
      // so the refill source is selected with conditional moves instead.
      const size_t ta = a[ai] <= b[bi] ? 1 : 0;
      const Key* p = ta != 0 ? a + ai : b + bi;
      v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      ai += 4 * ta;
      bi += 4 * (1 - ta);
    } else {
      const bool take_a = bi >= nb || (ai < na && a[ai] <= b[bi]);
      if (take_a) {
        if (ai + 4 > na) break;
        v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + ai));
        ai += 4;
      } else {
        if (bi + 4 > nb) break;
        v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + bi));
        bi += 4;
      }
    }
  }
  Key tmp[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp), w);
  size_t ti = 0;
  while (ti < 4 || ai < na || bi < nb) {
    const Key ta = ai < na ? a[ai] : 0;
    const Key tb = bi < nb ? b[bi] : 0;
    const Key tt = ti < 4 ? tmp[ti] : 0;
    const bool has_a = ai < na;
    const bool has_b = bi < nb;
    const bool has_t = ti < 4;
    if (has_t && (!has_a || tt <= ta) && (!has_b || tt <= tb)) {
      out[oi++] = tt;
      ++ti;
    } else if (has_a && (!has_b || ta <= tb)) {
      out[oi++] = ta;
      ++ai;
    } else {
      out[oi++] = tb;
      ++bi;
    }
  }
}

}  // namespace

bool Avx2Compiled() { return true; }

void SortKeysBlockAvx2(Key* keys, size_t n) {
  if (n < 32) {
    if (n == 16) {
      Sort16(keys);
    } else {
      std::sort(keys, keys + n);
    }
    return;
  }
  const size_t full = n & ~static_cast<size_t>(31);
  for (size_t i = 0; i < full; i += 32) Sort32(keys + i);
  if (full < n) std::sort(keys + full, keys + n);

  PageVector<Key> scratch(n);
  Key* src = keys;
  Key* dst = scratch.data();
  for (size_t width = 32; width < n; width *= 2) {
    for (size_t i = 0; i < n; i += 2 * width) {
      const size_t mid = std::min(i + width, n);
      const size_t end = std::min(i + 2 * width, n);
      if (mid < end) {
        MergeIntoAvx2(src + i, mid - i, src + mid, end - mid, dst + i);
      } else {
        std::memcpy(dst + i, src + i, (end - i) * sizeof(Key));
      }
    }
    std::swap(src, dst);
  }
  if (src != keys) std::memcpy(keys, src, n * sizeof(Key));
}

void PartitionBySplittersAvx2(const Key* keys, size_t n, const Key* splitters,
                              size_t num_splitters, uint32_t* bucket) {
  const auto s_count = static_cast<int64_t>(num_splitters);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    __m256i cnt = _mm256_setzero_si256();
    for (size_t s = 0; s < num_splitters; ++s) {
      // cmpgt lanes are -1 where splitter > key; subtracting accumulates
      // the count of splitters strictly greater than each key.
      cnt = _mm256_sub_epi64(
          cnt, _mm256_cmpgt_epi64(_mm256_set1_epi64x(splitters[s]), k));
    }
    alignas(32) int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), cnt);
    for (size_t l = 0; l < 4; ++l) {
      // upper_bound index = total splitters minus those greater than key.
      bucket[i + l] = static_cast<uint32_t>(s_count - lanes[l]);
    }
  }
  for (; i < n; ++i) {
    bucket[i] = static_cast<uint32_t>(
        std::upper_bound(splitters, splitters + num_splitters, keys[i]) -
        splitters);
  }
}

}  // namespace internal
}  // namespace simd
}  // namespace twrs

#else  // !defined(__AVX2__)

namespace twrs {
namespace simd {
namespace internal {

// Scalar-only build (non-x86 target or a compiler without -mavx2): the
// vector twins forward to their scalar siblings so callers never need to
// know, and CpuSupportsAvx2() reports false via Avx2Compiled().

bool Avx2Compiled() { return false; }

void SortKeysBlockAvx2(Key* keys, size_t n) { SortKeysBlockScalar(keys, n); }

void PartitionBySplittersAvx2(const Key* keys, size_t n, const Key* splitters,
                              size_t num_splitters, uint32_t* bucket) {
  PartitionBySplittersScalar(keys, n, splitters, num_splitters, bucket);
}

}  // namespace internal
}  // namespace simd
}  // namespace twrs

#endif  // defined(__AVX2__)
