#include "bignum/montgomery.h"

#include <cassert>
#include <cstring>

#include "common/cpuinfo.h"

namespace embellish::bignum {

namespace {

using u128 = unsigned __int128;

// Inverse of odd x modulo 2^64 by Newton iteration; 6 steps double the
// precision from the 3 correct low bits of x itself.
uint64_t InverseMod2_64(uint64_t x) {
  assert(x & 1);
  uint64_t inv = x;  // correct mod 2^3
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - x * inv;
  }
  return inv;
}

// Fixed-width CIOS kernel: the loop bounds are compile-time constants, so
// the compiler fully unrolls the limb loops and keeps the accumulator in
// registers. Crypto-sized moduli hit this path (k = 4 for 256-bit keys,
// k = 8 for 512-bit / Paillier n^2); odd widths fall back to the generic
// scratch loop. `out` may alias `a`/`b` — the result is staged in `res`.
template <size_t K>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline)) inline
#else
inline
#endif
void MontMulFixed(const uint64_t* a, const uint64_t* b, const uint64_t* n,
                  uint64_t n_prime, uint64_t* out) {
  uint64_t t[K + 2] = {0};
  for (size_t i = 0; i < K; ++i) {
    const uint64_t ai = a[i];
    u128 carry = 0;
    for (size_t j = 0; j < K; ++j) {
      u128 cur =
          static_cast<u128>(ai) * b[j] + t[j] + static_cast<uint64_t>(carry);
      t[j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    u128 cur = static_cast<u128>(t[K]) + static_cast<uint64_t>(carry);
    t[K] = static_cast<uint64_t>(cur);
    t[K + 1] = static_cast<uint64_t>(cur >> 64);

    const uint64_t m_val = t[0] * n_prime;
    u128 acc = static_cast<u128>(m_val) * n[0] + t[0];
    carry = acc >> 64;
    for (size_t j = 1; j < K; ++j) {
      acc = static_cast<u128>(m_val) * n[j] + t[j] +
            static_cast<uint64_t>(carry);
      t[j - 1] = static_cast<uint64_t>(acc);
      carry = acc >> 64;
    }
    acc = static_cast<u128>(t[K]) + static_cast<uint64_t>(carry);
    t[K - 1] = static_cast<uint64_t>(acc);
    t[K] = t[K + 1] + static_cast<uint64_t>(acc >> 64);
    t[K + 1] = 0;
  }

  bool geq = t[K] != 0;
  if (!geq) {
    geq = true;
    for (size_t i = K; i-- > 0;) {
      if (t[i] != n[i]) {
        geq = t[i] > n[i];
        break;
      }
    }
  }
  if (geq) {
    u128 borrow = 0;
    for (size_t i = 0; i < K; ++i) {
      u128 diff =
          static_cast<u128>(t[i]) - n[i] - static_cast<uint64_t>(borrow);
      out[i] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) != 0 ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < K; ++i) out[i] = t[i];
  }
}

// ASan's/TSan's instrumentation raises register pressure enough that the
// 14-operand asm constraints below become unsatisfiable, so sanitizer builds
// fall back to the portable fixed-width kernels (the dispatch sites check
// the macro).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EMBELLISH_SANITIZER_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EMBELLISH_SANITIZER_BUILD 1
#endif
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(EMBELLISH_SANITIZER_BUILD)
#define EMBELLISH_HAVE_X86_ADX_KERNEL 1

// True when the dispatch selects the ADX tier: the CPU has MULX (BMI2) and
// ADCX/ADOX (ADX), and neither EMBELLISH_KERNEL nor a bench override pinned
// the process to the scalar tier. The kernel is inline asm, so it needs no
// compile-time -march flags — only this runtime check.
bool CpuHasAdx() {
  return SelectedKernel() == MontKernel::kAdx;
}

// 256-bit (k = 4) CIOS round with dual carry chains: MULX leaves flags
// untouched, so the low-limb additions ride the CF chain (ADCX) while the
// high-limb additions ride the OF chain (ADOX) — twice the add throughput of
// the compiler's single-adc code, which is what the generic kernel is bound
// by. The accumulator x0..x3 and modulus n0..n3 stay in registers across an
// entire fold chain; only the factor `b` is read from memory.
//
// In: x = value in Montgomery form, b = factor in Montgomery form.
// Out: x = x * b * R^{-1} mod n, fully reduced (branchless final subtract).
__attribute__((always_inline)) inline void MontMul4Adx(
    uint64_t& x0, uint64_t& x1, uint64_t& x2, uint64_t& x3, const uint64_t* b,
    uint64_t n0, uint64_t n1, uint64_t n2, uint64_t n3, uint64_t n_prime) {
  uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  const uint64_t xs[4] = {x0, x1, x2, x3};
  for (int i = 0; i < 4; ++i) {
    const uint64_t ai = xs[i];
    uint64_t t5 = 0;
    // t += ai * b
    __asm__(
        "xor %%r11d, %%r11d\n\t"  // clear CF and OF
        "movq %[ai], %%rdx\n\t"
        "mulxq 0(%[b]), %%r8, %%r9\n\t"
        "adcxq %%r8, %[t0]\n\t"
        "adoxq %%r9, %[t1]\n\t"
        "mulxq 8(%[b]), %%r8, %%r9\n\t"
        "adcxq %%r8, %[t1]\n\t"
        "adoxq %%r9, %[t2]\n\t"
        "mulxq 16(%[b]), %%r8, %%r9\n\t"
        "adcxq %%r8, %[t2]\n\t"
        "adoxq %%r9, %[t3]\n\t"
        "mulxq 24(%[b]), %%r8, %%r9\n\t"
        "adcxq %%r8, %[t3]\n\t"
        "adoxq %%r9, %[t4]\n\t"
        "adcxq %%r11, %[t4]\n\t"  // fold CF into t4
        "adoxq %%r11, %[t5]\n\t"  // fold OF into t5
        "adcxq %%r11, %[t5]\n\t"  // plus t4's CF overflow
        : [t0] "+r"(t0), [t1] "+r"(t1), [t2] "+r"(t2), [t3] "+r"(t3),
          [t4] "+r"(t4), [t5] "+r"(t5)
        : [ai] "r"(ai), [b] "r"(b)
        : "rdx", "r8", "r9", "r11", "cc");
    // t = (t + m*n) / 2^64 with m = t0 * n'
    const uint64_t m = t0 * n_prime;
    __asm__(
        "xor %%r11d, %%r11d\n\t"
        "movq %[m], %%rdx\n\t"
        "mulxq %[n0], %%r8, %%r9\n\t"
        "adcxq %%r8, %[t0]\n\t"  // t0 -> 0 by construction; CF carries on
        "adoxq %%r9, %[t1]\n\t"
        "mulxq %[n1], %%r8, %%r9\n\t"
        "adcxq %%r8, %[t1]\n\t"
        "adoxq %%r9, %[t2]\n\t"
        "mulxq %[n2], %%r8, %%r9\n\t"
        "adcxq %%r8, %[t2]\n\t"
        "adoxq %%r9, %[t3]\n\t"
        "mulxq %[n3], %%r8, %%r9\n\t"
        "adcxq %%r8, %[t3]\n\t"
        "adoxq %%r9, %[t4]\n\t"
        "adcxq %%r11, %[t4]\n\t"
        "adoxq %%r11, %[t5]\n\t"
        "adcxq %%r11, %[t5]\n\t"
        : [t0] "+r"(t0), [t1] "+r"(t1), [t2] "+r"(t2), [t3] "+r"(t3),
          [t4] "+r"(t4), [t5] "+r"(t5)
        : [m] "r"(m), [n0] "r"(n0), [n1] "r"(n1), [n2] "r"(n2), [n3] "r"(n3)
        : "rdx", "r8", "r9", "r11", "cc");
    t0 = t1;  // drop the now-zero low limb
    t1 = t2;
    t2 = t3;
    t3 = t4;
    t4 = t5;
  }
  // Branchless conditional subtract: the select outcome is data-random in
  // the PIR workload, so a cmov-style mask beats a 50%-mispredicted branch.
  uint64_t s0, s1, s2, s3, nb;
  __asm__(
      "movq %[t0], %[s0]\n\t"
      "movq %[t1], %[s1]\n\t"
      "movq %[t2], %[s2]\n\t"
      "movq %[t3], %[s3]\n\t"
      "subq %[n0], %[s0]\n\t"
      "sbbq %[n1], %[s1]\n\t"
      "sbbq %[n2], %[s2]\n\t"
      "sbbq %[n3], %[s3]\n\t"
      "sbbq %[nb], %[nb]\n\t"  // nb = borrow ? ~0 : 0
      : [s0] "=&r"(s0), [s1] "=&r"(s1), [s2] "=&r"(s2), [s3] "=&r"(s3),
        [nb] "=&r"(nb)
      : [t0] "r"(t0), [t1] "r"(t1), [t2] "r"(t2), [t3] "r"(t3), [n0] "r"(n0),
        [n1] "r"(n1), [n2] "r"(n2), [n3] "r"(n3)
      : "cc");
  // Keep t only when it borrowed and the overflow limb is clear.
  const uint64_t keep_t = nb & (t4 == 0 ? ~uint64_t{0} : 0);
  x0 = (s0 & ~keep_t) | (t0 & keep_t);
  x1 = (s1 & ~keep_t) | (t1 & keep_t);
  x2 = (s2 & ~keep_t) | (t2 & keep_t);
  x3 = (s3 & ~keep_t) | (t3 & keep_t);
}

// Select-and-fold chain on the ADX kernel (see MontMulSelectInto).
void MontMulSelect4Adx(const uint64_t* factors, const uint64_t* selector,
                       size_t count, const uint64_t* n, uint64_t n_prime,
                       uint64_t* acc) {
  uint64_t x0 = acc[0], x1 = acc[1], x2 = acc[2], x3 = acc[3];
  const uint64_t n0 = n[0], n1 = n[1], n2 = n[2], n3 = n[3];
  for (size_t j = 0; j < count; ++j) {
    const uint64_t bit = (selector[j >> 6] >> (j & 63)) & 1;
    MontMul4Adx(x0, x1, x2, x3, factors + (2 * j + bit) * 4, n0, n1, n2, n3,
                n_prime);
  }
  acc[0] = x0;
  acc[1] = x1;
  acc[2] = x2;
  acc[3] = x3;
}

#endif  // x86-64 ADX kernel

// Select-and-fold chain with the fixed kernel inlined (see
// MontMulSelectInto).
template <size_t K>
void MontMulSelectFixed(const uint64_t* factors, const uint64_t* selector,
                        size_t count, const uint64_t* n, uint64_t n_prime,
                        uint64_t* acc) {
  // The accumulator lives in a local array across the whole chain so the
  // inlined kernel keeps it in registers instead of storing/reloading
  // through `acc` every multiplication.
  uint64_t local[K];
  for (size_t i = 0; i < K; ++i) local[i] = acc[i];
  for (size_t j = 0; j < count; ++j) {
    const uint64_t bit = (selector[j >> 6] >> (j & 63)) & 1;
    MontMulFixed<K>(local, factors + (2 * j + bit) * K, n, n_prime, local);
  }
  for (size_t i = 0; i < K; ++i) acc[i] = local[i];
}

}  // namespace

MontgomeryContext::Scratch::Scratch(const MontgomeryContext& ctx)
    : k_(ctx.limb_count()), t_(k_ + 2, 0) {}

void MontgomeryContext::Scratch::EnsureExpBuffers(size_t k) {
  if (sq_.size() < k) sq_.resize(k);
  if (window_.size() < kExpWindowTableSize * k) {
    window_.resize(kExpWindowTableSize * k);
  }
}

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus) {
  if (modulus.IsZero() || modulus.IsOne()) {
    return Status::InvalidArgument("Montgomery modulus must be > 1");
  }
  if (!modulus.IsOdd()) {
    return Status::InvalidArgument("Montgomery modulus must be odd");
  }
  MontgomeryContext ctx;
  ctx.modulus_ = modulus;
  ctx.n_limbs_ = modulus.limbs();
  ctx.k_ = ctx.n_limbs_.size();
  ctx.n_prime_ = ~InverseMod2_64(ctx.n_limbs_[0]) + 1;  // -n^{-1} mod 2^64
  BigInt r = BigInt::PowerOfTwo(64 * ctx.k_);
  BigInt r_mod = r % modulus;
  ctx.r_mod_n_ = r_mod.limbs();
  ctx.r_mod_n_.resize(ctx.k_, 0);
  ctx.r2_mod_n_ = r_mod * r_mod % modulus;
  ctx.r2_limbs_ = ctx.r2_mod_n_.limbs();
  ctx.r2_limbs_.resize(ctx.k_, 0);
  ctx.one_plain_.assign(ctx.k_, 0);
  ctx.one_plain_[0] = 1;
  return ctx;
}

void MontgomeryContext::MontMulInto(const uint64_t* a, const uint64_t* b,
                                    uint64_t* out, Scratch* scratch) const {
  const size_t k = k_;
  assert(scratch != nullptr && scratch->k_ >= k);
  const uint64_t* n = n_limbs_.data();
  switch (k) {
    case 2: return MontMulFixed<2>(a, b, n, n_prime_, out);
    case 3: return MontMulFixed<3>(a, b, n, n_prime_, out);
    case 4:
#ifdef EMBELLISH_HAVE_X86_ADX_KERNEL
      if (CpuHasAdx()) {
        uint64_t x0 = a[0], x1 = a[1], x2 = a[2], x3 = a[3];
        MontMul4Adx(x0, x1, x2, x3, b, n[0], n[1], n[2], n[3], n_prime_);
        out[0] = x0;
        out[1] = x1;
        out[2] = x2;
        out[3] = x3;
        return;
      }
#endif
      return MontMulFixed<4>(a, b, n, n_prime_, out);
    case 6: return MontMulFixed<6>(a, b, n, n_prime_, out);
    case 8: return MontMulFixed<8>(a, b, n, n_prime_, out);
    case 16: return MontMulFixed<16>(a, b, n, n_prime_, out);
    default: break;
  }
  uint64_t* t = scratch->t_.data();
  std::memset(t, 0, (k + 2) * sizeof(uint64_t));

  // CIOS: t has k+2 limbs.
  for (size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    const uint64_t ai = a[i];
    u128 carry = 0;
    for (size_t j = 0; j < k; ++j) {
      u128 cur =
          static_cast<u128>(ai) * b[j] + t[j] + static_cast<uint64_t>(carry);
      t[j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    u128 cur = static_cast<u128>(t[k]) + static_cast<uint64_t>(carry);
    t[k] = static_cast<uint64_t>(cur);
    t[k + 1] = static_cast<uint64_t>(cur >> 64);

    // Reduction: make t divisible by 2^64.
    const uint64_t m_val = t[0] * n_prime_;
    u128 acc = static_cast<u128>(m_val) * n[0] + t[0];
    carry = acc >> 64;
    for (size_t j = 1; j < k; ++j) {
      acc = static_cast<u128>(m_val) * n[j] + t[j] +
            static_cast<uint64_t>(carry);
      t[j - 1] = static_cast<uint64_t>(acc);
      carry = acc >> 64;
    }
    acc = static_cast<u128>(t[k]) + static_cast<uint64_t>(carry);
    t[k - 1] = static_cast<uint64_t>(acc);
    t[k] = t[k + 1] + static_cast<uint64_t>(acc >> 64);
    t[k + 1] = 0;
  }

  // Final conditional subtraction: t is in [0, 2n).
  bool geq = t[k] != 0;
  if (!geq) {
    geq = true;
    for (size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        geq = t[i] > n[i];
        break;
      }
    }
  }
  if (geq) {
    u128 borrow = 0;
    for (size_t i = 0; i < k; ++i) {
      u128 diff =
          static_cast<u128>(t[i]) - n[i] - static_cast<uint64_t>(borrow);
      out[i] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) != 0 ? 1 : 0;
    }
  } else {
    std::memcpy(out, t, k * sizeof(uint64_t));
  }
}

void MontgomeryContext::MontMulSelectInto(const uint64_t* factors,
                                          const uint64_t* selector,
                                          size_t count, uint64_t* acc,
                                          Scratch* scratch) const {
  const uint64_t* n = n_limbs_.data();
  switch (k_) {
    case 2: return MontMulSelectFixed<2>(factors, selector, count, n,
                                         n_prime_, acc);
    case 3: return MontMulSelectFixed<3>(factors, selector, count, n,
                                         n_prime_, acc);
    case 4:
#ifdef EMBELLISH_HAVE_X86_ADX_KERNEL
      if (CpuHasAdx()) {
        return MontMulSelect4Adx(factors, selector, count, n, n_prime_, acc);
      }
#endif
      return MontMulSelectFixed<4>(factors, selector, count, n,
                                   n_prime_, acc);
    case 6: return MontMulSelectFixed<6>(factors, selector, count, n,
                                         n_prime_, acc);
    case 8: return MontMulSelectFixed<8>(factors, selector, count, n,
                                         n_prime_, acc);
    case 16: return MontMulSelectFixed<16>(factors, selector, count, n,
                                           n_prime_, acc);
    default: break;
  }
  for (size_t j = 0; j < count; ++j) {
    const uint64_t bit = (selector[j >> 6] >> (j & 63)) & 1;
    MontMulInto(acc, factors + (2 * j + bit) * k_, acc, scratch);
  }
}

void MontgomeryContext::ToMontgomeryInto(const BigInt& a, uint64_t* out,
                                         Scratch* scratch) const {
  // A zero BigInt has no limbs and a null data(); memcpy from a null
  // pointer is UB even for zero bytes, so guard the empty case.
  const auto copy_limbs = [this, out](const std::vector<uint64_t>& limbs) {
    if (!limbs.empty()) {
      std::memcpy(out, limbs.data(), limbs.size() * sizeof(uint64_t));
    }
    std::memset(out + limbs.size(), 0,
                (k_ - limbs.size()) * sizeof(uint64_t));
  };
  const std::vector<uint64_t>& limbs = a.limbs();
  if (limbs.size() <= k_) {
    copy_limbs(limbs);
  } else {
    const BigInt reduced = a % modulus_;  // slow path: wider than the modulus
    copy_limbs(reduced.limbs());
  }
  MontMulInto(out, r2_limbs_.data(), out, scratch);
}

void MontgomeryContext::ModExpInto(const uint64_t* base_mont, const BigInt& e,
                                   uint64_t* out, Scratch* scratch) const {
  const size_t k = k_;
  assert(scratch != nullptr && scratch->k_ >= k);
  assert(out != base_mont && "out must not alias the base");
  std::memcpy(out, r_mod_n_.data(), k * sizeof(uint64_t));  // Montgomery 1
  if (e.IsZero()) return;
  const size_t bits = e.BitLength();

  if (bits <= static_cast<size_t>(kExpWindowBits)) {
    // Tiny exponent: plain square-and-multiply, no table setup.
    for (size_t i = bits; i-- > 0;) {
      MontMulInto(out, out, out, scratch);
      if (e.Bit(i)) MontMulInto(out, base_mont, out, scratch);
    }
    return;
  }

  // Odd-power table: window_[i] = base^(2i+1) in Montgomery form.
  scratch->EnsureExpBuffers(k);
  uint64_t* win = scratch->window_.data();
  uint64_t* sq = scratch->sq_.data();
  std::memcpy(win, base_mont, k * sizeof(uint64_t));
  MontMulInto(base_mont, base_mont, sq, scratch);
  for (size_t i = 1; i < kExpWindowTableSize; ++i) {
    MontMulInto(win + (i - 1) * k, sq, win + i * k, scratch);
  }

  // Left-to-right sliding window.
  ptrdiff_t i = static_cast<ptrdiff_t>(bits) - 1;
  while (i >= 0) {
    if (!e.Bit(static_cast<size_t>(i))) {
      MontMulInto(out, out, out, scratch);
      --i;
      continue;
    }
    // Window [l, i], chosen so bit l is set and the width is at most
    // kExpWindowBits; the window value is therefore odd.
    ptrdiff_t l = i - (kExpWindowBits - 1);
    if (l < 0) l = 0;
    while (!e.Bit(static_cast<size_t>(l))) ++l;
    uint32_t w = 0;
    for (ptrdiff_t j = i; j >= l; --j) {
      w = (w << 1) | static_cast<uint32_t>(e.Bit(static_cast<size_t>(j)));
    }
    for (ptrdiff_t j = i; j >= l; --j) {
      MontMulInto(out, out, out, scratch);
    }
    MontMulInto(out, win + ((w - 1) / 2) * k, out, scratch);
    i = l - 1;
  }
}

void MontgomeryContext::FromMontgomeryInto(const uint64_t* a, uint64_t* out,
                                           Scratch* scratch) const {
  MontMulInto(a, one_plain_.data(), out, scratch);
}

std::vector<uint64_t> MontgomeryContext::MontMul(
    const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) const {
  assert(a.size() == k_ && b.size() == k_);
  Scratch scratch(*this);
  std::vector<uint64_t> out(k_);
  MontMulInto(a.data(), b.data(), out.data(), &scratch);
  return out;
}

std::vector<uint64_t> MontgomeryContext::ToMontgomery(const BigInt& a) const {
  const BigInt* reduced = &a;
  BigInt tmp;
  if (a >= modulus_) {
    tmp = a % modulus_;
    reduced = &tmp;
  }
  std::vector<uint64_t> limbs = reduced->limbs();
  limbs.resize(k_, 0);
  Scratch scratch(*this);
  std::vector<uint64_t> out(k_);
  MontMulInto(limbs.data(), r2_limbs_.data(), out.data(), &scratch);
  return out;
}

BigInt MontgomeryContext::FromMontgomery(
    const std::vector<uint64_t>& a) const {
  Scratch scratch(*this);
  std::vector<uint64_t> plain(k_);
  MontMulInto(a.data(), one_plain_.data(), plain.data(), &scratch);
  return BigInt::FromLimbs(std::move(plain));
}

BigInt MontgomeryContext::Mul(const BigInt& a, const BigInt& b) const {
  return FromMontgomery(MontMul(ToMontgomery(a), ToMontgomery(b)));
}

BigInt MontgomeryContext::ModExp(const BigInt& a, const BigInt& e) const {
  if (e.IsZero()) return BigInt(1) % modulus_;
  std::vector<uint64_t> base = ToMontgomery(a);
  Scratch scratch(*this);
  std::vector<uint64_t> result(k_);
  ModExpInto(base.data(), e, result.data(), &scratch);
  FromMontgomeryInto(result.data(), result.data(), &scratch);
  return BigInt::FromLimbs(std::move(result));
}

}  // namespace embellish::bignum
