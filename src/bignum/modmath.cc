#include "bignum/modmath.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "bignum/montgomery.h"

namespace embellish::bignum {

namespace {

// Reduces `v` only when needed; already-reduced values (the common case for
// chained modular arithmetic) cost one comparison instead of a division.
const BigInt& ReduceInto(const BigInt& v, const BigInt& m, BigInt* storage) {
  if (v < m) return v;
  *storage = v % m;
  return *storage;
}

// Limb helpers for Gcd. A value is `n` little-endian limbs, the top one
// nonzero (n >= 1: Gcd only works on nonzero values).

// Trailing zero bits of a nonzero value.
size_t TrailingZeroBits(const uint64_t* a) {
  size_t i = 0;
  while (a[i] == 0) ++i;
  return 64 * i + static_cast<size_t>(std::countr_zero(a[i]));
}

// a >>= bits in place, for bits below a's bit length; returns a's new
// length.
size_t ShiftRightLimbs(uint64_t* a, size_t n, size_t bits) {
  const size_t limbs = bits / 64;
  const unsigned shift = static_cast<unsigned>(bits % 64);
  const size_t out = n - limbs;
  for (size_t i = 0; i < out; ++i) {
    uint64_t v = a[i + limbs] >> shift;
    if (shift != 0 && i + limbs + 1 < n) v |= a[i + limbs + 1] << (64 - shift);
    a[i] = v;
  }
  return a[out - 1] == 0 ? out - 1 : out;
}

// Three-way comparison of two values.
int CompareLimbs(const uint64_t* a, size_t na, const uint64_t* b, size_t nb) {
  if (na != nb) return na < nb ? -1 : 1;
  for (size_t i = na; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// One limb of a - b, updating the borrow it takes in and passes on.
uint64_t SubtractLimb(uint64_t a, uint64_t b, uint64_t* borrow) {
  const uint64_t d = a - b - *borrow;
  *borrow = (a < b || (a == b && *borrow != 0)) ? 1 : 0;
  return d;
}

// a = (a - b) >> (its trailing zero bits), in place, for odd a > odd b;
// returns a's new length. One pass when the low limbs differ (the shift is
// then below 64), else a subtraction pass and a shift pass.
size_t SubtractAndStripTwos(uint64_t* a, size_t na, const uint64_t* b,
                            size_t nb) {
  uint64_t borrow = 0;
  if (a[0] == b[0]) {
    for (size_t i = 0; i < na; ++i) {
      a[i] = SubtractLimb(a[i], i < nb ? b[i] : 0, &borrow);
    }
    while (a[na - 1] == 0) --na;
    return ShiftRightLimbs(a, na, TrailingZeroBits(a));
  }
  // Odd minus odd is even, so the shift is in [1, 63].
  const unsigned shift = static_cast<unsigned>(std::countr_zero(a[0] - b[0]));
  uint64_t low = SubtractLimb(a[0], b[0], &borrow);
  for (size_t i = 1; i < na; ++i) {
    const uint64_t high = SubtractLimb(a[i], i < nb ? b[i] : 0, &borrow);
    a[i - 1] = (low >> shift) | (high << (64 - shift));
    low = high;
  }
  a[na - 1] = low >> shift;
  while (a[na - 1] == 0) --na;
  return na;
}

}  // namespace

BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt sa, sb;
  const BigInt& ra = ReduceInto(a, m, &sa);
  const BigInt& rb = ReduceInto(b, m, &sb);
  BigInt sum = ra + rb;
  // ra, rb < m, so sum < 2m: one subtraction replaces the final division.
  if (sum >= m) sum -= m;
  return sum;
}

BigInt ModSub(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt sa, sb;
  const BigInt& ra = ReduceInto(a, m, &sa);
  const BigInt& rb = ReduceInto(b, m, &sb);
  if (ra >= rb) return ra - rb;
  return ra + m - rb;
}

BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt sa, sb;
  const BigInt& ra = ReduceInto(a, m, &sa);
  const BigInt& rb = ReduceInto(b, m, &sb);
  return ra * rb % m;
}

BigInt ModMulReduced(const BigInt& a, const BigInt& b, const BigInt& m) {
  assert(a < m && b < m);
  return a * b % m;
}

BigInt ModExp(const BigInt& a, const BigInt& e, const BigInt& m) {
  assert(!m.IsZero());
  if (m.IsOne()) return BigInt();
  if (m.IsOdd() && m.LimbCount() >= 2) {
    auto ctx = MontgomeryContext::Create(m);
    if (ctx.ok()) return ctx->ModExp(a, e);
  }
  BigInt base = a % m;
  BigInt result(1);
  for (size_t i = e.BitLength(); i-- > 0;) {
    result = result * result % m;
    if (e.Bit(i)) result = result * base % m;
  }
  return result;
}

BigInt Gcd(const BigInt& a, const BigInt& b) {
  // Binary GCD (Stein) in two working copies of the limbs: every step is a
  // compare, a subtraction and a shift in place, where Euclid allocates a
  // quotient and a remainder per step. RandomUnit runs it on every draw.
  if (a.IsZero()) return b;
  if (b.IsZero()) return a;
  std::vector<uint64_t> u = a.limbs();
  std::vector<uint64_t> v = b.limbs();
  const size_t u_twos = TrailingZeroBits(u.data());
  const size_t v_twos = TrailingZeroBits(v.data());
  size_t nu = ShiftRightLimbs(u.data(), u.size(), u_twos);
  size_t nv = ShiftRightLimbs(v.data(), v.size(), v_twos);
  // Both odd from here on, and gcd(a, b) = gcd(u, v) * 2^min(twos). The
  // odd difference v - u is even, and halving it keeps the gcd.
  for (;;) {
    const int order = CompareLimbs(u.data(), nu, v.data(), nv);
    if (order == 0) break;
    if (order > 0) {
      std::swap(u, v);
      std::swap(nu, nv);
    }
    nv = SubtractAndStripTwos(v.data(), nv, u.data(), nu);
  }
  u.resize(nu);
  BigInt g = BigInt::FromLimbs(std::move(u));
  const size_t twos = std::min(u_twos, v_twos);
  return twos == 0 ? g : g << twos;
}

Result<BigInt> ModInverse(const BigInt& a, const BigInt& m) {
  if (m.IsZero() || m.IsOne()) {
    return Status::InvalidArgument("modulus must be > 1");
  }
  // Extended Euclid tracking only the coefficient of `a`, with values kept
  // non-negative by representing the sign separately.
  BigInt r0 = m;
  BigInt r1 = a % m;
  BigInt t0;        // coefficient for m  (starts 0)
  BigInt t1(1);     // coefficient for a  (starts 1)
  bool t0_neg = false;
  bool t1_neg = false;
  while (!r1.IsZero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    // t2 = t0 - q*t1, in sign-magnitude form.
    BigInt qt1 = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!r0.IsOne()) {
    return Status::InvalidArgument("value is not invertible (gcd != 1)");
  }
  BigInt inv = t0 % m;
  if (t0_neg && !inv.IsZero()) inv = m - inv;
  return inv;
}

int Jacobi(const BigInt& a_in, const BigInt& n_in) {
  assert(n_in.IsOdd() && !n_in.IsZero());
  BigInt a = a_in % n_in;
  BigInt n = n_in;
  int result = 1;
  while (!a.IsZero()) {
    // Pull out factors of two; each contributes (2/n) = (-1)^((n^2-1)/8).
    while (a.IsEven()) {
      a = a >> 1;
      uint64_t n_mod8 = n.Low64() & 7;
      if (n_mod8 == 3 || n_mod8 == 5) result = -result;
    }
    std::swap(a, n);
    // Quadratic reciprocity: flip sign when both are 3 (mod 4).
    if ((a.Low64() & 3) == 3 && (n.Low64() & 3) == 3) result = -result;
    a = a % n;
  }
  if (n.IsOne()) return result;
  return 0;
}

BigInt RandomBelow(const BigInt& bound, Rng* rng) {
  assert(!bound.IsZero());
  size_t bits = bound.BitLength();
  size_t nbytes = (bits + 7) / 8;
  std::vector<uint8_t> buf(nbytes);
  // Rejection sampling: mask the top byte to the bound's width, retry on
  // overshoot. Expected < 2 iterations.
  const uint8_t top_mask =
      static_cast<uint8_t>(0xFF >> ((8 - bits % 8) % 8));
  while (true) {
    rng->FillBytes(buf.data(), buf.size());
    buf[0] &= top_mask;
    BigInt candidate = BigInt::FromBigEndianBytes(buf);
    if (candidate < bound) return candidate;
  }
}

BigInt RandomBits(size_t bits, Rng* rng) {
  assert(bits > 0);
  size_t nbytes = (bits + 7) / 8;
  std::vector<uint8_t> buf(nbytes);
  rng->FillBytes(buf.data(), buf.size());
  const uint8_t top_mask =
      static_cast<uint8_t>(0xFF >> ((8 - bits % 8) % 8));
  buf[0] &= top_mask;
  // Force the top bit so the value has exactly `bits` bits.
  buf[0] |= static_cast<uint8_t>(1u << ((bits - 1) % 8));
  return BigInt::FromBigEndianBytes(buf);
}

BigInt RandomUnit(const BigInt& n, Rng* rng) {
  assert(n > BigInt(1));
  while (true) {
    BigInt candidate = RandomBelow(n, rng);
    if (candidate.IsZero()) continue;
    if (Gcd(candidate, n).IsOne()) return candidate;
  }
}

}  // namespace embellish::bignum
