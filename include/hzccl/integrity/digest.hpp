// Homomorphic ABFT digests over the quantized-integer domain.
//
// The co-design insight the collectives exploit for *speed* — fZ-light
// quantizes each element independently, so compressed streams compose
// linearly under hz_add — makes algorithm-based fault tolerance nearly
// free: any linear functional of the quantized values commutes with the
// homomorphic combine.  We carry two, both modular 64-bit:
//
//   sum  = Σ q_i                (mod 2^64)
//   wsum = Σ (i + 1) · q_i      (mod 2^64)
//
// where q_i is the absolute quantized value of element i *within its
// chunk* (the running prefix-sum chain the decoder reconstructs) and the
// position weight is chunk-local.  The plain sum catches any corruption
// that changes total mass; the position-weighted sum catches compensating
// and transposition errors the plain sum is blind to, and localizes a
// single-element error to its position.  Together a uniformly random
// payload corruption escapes both with probability ~2^-128 per chunk.
//
// Algebra (element-wise over chunk pairs, all mod 2^64):
//   digest(a + b)   = digest(a) + digest(b)        — hz_add fast path
//   digest(a - b)   = digest(a) - digest(b)        — hz_sub
//   digest(-a)      = -digest(a)                   — hz_negate
//   digest(k · a)   = k · digest(a)                — hz_scale
//
// Raw (verbatim-float) fallback blocks sit outside the quantized chain and
// contribute zero; streams whose raw-block patterns may differ between
// operands (the PR-5 chain-tracking combine) *recompute* output digests
// from the tracked chains instead of folding, because a residual operand's
// contribution at positions that become raw output blocks must not leak
// into the folded value.
//
// Verify walk: fz_verify_digests re-derives each chunk's digest from its
// encoded residual chain without the per-value prefix sum, in one call of
// the kernel table's fold_chunk slot per chunk (kernels/dispatch.hpp).  With
// g the 0-based chunk index of residual r_g, N values and chain start q0,
// summing the chain over every position gives
//
//   sum  = N·q0 + N·S0 − S1                   S1 = Σ g·r_g
//   wsum = T(N)·q0 + T(N)·S0 − S2             S2 = Σ T(g)·r_g
//
// with T(x) = x(x+1)/2 and S0 = Σ r_g; a raw block at [b, b + n) then takes
// back n·q_B and (n·b + T(n))·q_B, q_B being the chain it carries over.
// Block k of length L starts at b = k·L, and g = b + j splits each weight
// into block-local parts (T(b + j) = T(b) + b·j + T(j)), so the sums of r,
// j·r and T(j)·r run over the chunk with weights that never change, and
// the block offsets come from running sums of those lane sums, added once
// per block.  Every term is an exact integer mod 2^64, so the words equal
// the per-value loop's; the AVX-512 slot keeps the sums in registers and
// reduces them once per chunk, the scalar slot (the oracle) folds block by
// block.
//
// Everything here is trivially copyable, allocation-free and HZCCL_HOT —
// fZ-light's digest emission rides its compress walk (the compress_chunk
// kernel slot sums each chunk's chain in locals or lanes and returns the
// words), and folding is O(1) per chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hzccl/util/contracts.hpp"

namespace hzccl::integrity {

/// One chunk's (or one stream's) linear checksum pair.  Wire layout is two
/// little-endian u64 words; arithmetic is naturally modular (unsigned
/// wraparound is the intended ring).
struct Digest {
  uint64_t sum = 0;
  uint64_t wsum = 0;

  /// Fold one quantized value at 1-based chunk-local position `pos`.
  HZCCL_HOT void accumulate(int64_t q, uint64_t pos) {
    const uint64_t u = static_cast<uint64_t>(q);
    sum += u;
    wsum += pos * u;
  }

  /// Fold a run of `n` identical values at positions [pos, pos + n)
  /// (1-based) in O(1) — the constant-block fast path.  The position sum
  /// pos + (pos+1) + ... + (pos+n-1) wraps mod 2^64 like everything else.
  HZCCL_HOT void accumulate_run(int64_t q, uint64_t pos, uint64_t n) {
    const uint64_t u = static_cast<uint64_t>(q);
    sum += u * n;
    // n*pos + n(n-1)/2; one of n, n-1 is even so the halving is exact.
    const uint64_t tri = (n % 2 == 0) ? (n / 2) * (n - 1) : n * ((n - 1) / 2);
    wsum += u * (n * pos + tri);
  }

  Digest& operator+=(const Digest& o) {
    sum += o.sum;
    wsum += o.wsum;
    return *this;
  }
  Digest& operator-=(const Digest& o) {
    sum -= o.sum;
    wsum -= o.wsum;
    return *this;
  }
  friend Digest operator+(Digest a, const Digest& b) { return a += b; }
  friend Digest operator-(Digest a, const Digest& b) { return a -= b; }
  friend Digest operator-(const Digest& a) { return Digest{0 - a.sum, 0 - a.wsum}; }

  /// digest(k · x): both components scale by k in the mod-2^64 ring.
  friend Digest operator*(int64_t k, const Digest& d) {
    const uint64_t u = static_cast<uint64_t>(k);
    return Digest{u * d.sum, u * d.wsum};
  }

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.sum == b.sum && a.wsum == b.wsum;
  }
  friend bool operator!=(const Digest& a, const Digest& b) { return !(a == b); }
};
static_assert(sizeof(Digest) == 16, "digest wire entries are two u64 words");

/// Content digest for byte streams with no quantized domain (the SZx-style
/// truncated-float payloads, and the raw float stack's verify trailer):
/// the same sum/weighted-sum pair over the *bytes*.  Not homomorphic — it
/// detects transport/memory corruption of a stream that is never combined
/// in its compressed form.
HZCCL_HOT inline Digest content_digest(const uint8_t* data, size_t n) {
  Digest d;
  for (size_t i = 0; i < n; ++i) d.accumulate(data[i], i + 1);
  return d;
}

/// Same digest over a `std::as_bytes` view of a typed payload (the raw
/// float stack's trailer) — byte-identical to the `uint8_t*` overload, via
/// the standard object-representation view instead of a pointer pun.
HZCCL_HOT inline Digest content_digest(std::span<const std::byte> data) {
  Digest d;
  uint64_t pos = 1;
  for (const std::byte b : data) d.accumulate(std::to_integer<uint8_t>(b), pos++);
  return d;
}

}  // namespace hzccl::integrity
