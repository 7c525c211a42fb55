// Modular arithmetic over BigInt: the number theory needed by the crypto
// module — modular exponentiation, GCD/inverse, Jacobi symbol, and uniform
// sampling from residue classes.

#ifndef EMBELLISH_BIGNUM_MODMATH_H_
#define EMBELLISH_BIGNUM_MODMATH_H_

#include "bignum/bigint.h"
#include "common/rng.h"
#include "common/status.h"

namespace embellish::bignum {

/// \brief (a + b) mod m. Operands need not be reduced; operands that already
///        are skip their division entirely (the sum needs at most one
///        subtraction of m, never a full reduction).
BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m);

/// \brief (a - b) mod m, with the usual wrap into [0, m).
BigInt ModSub(const BigInt& a, const BigInt& b, const BigInt& m);

/// \brief (a * b) mod m. Operands need not be reduced; operands that already
///        are skip the pre-reduction division.
BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);

/// \brief (a * b) mod m for operands known to be reduced (a, b < m): the
///        fast path for hot callers, skipping both pre-reduction compares.
///        Asserts reducedness in debug builds.
BigInt ModMulReduced(const BigInt& a, const BigInt& b, const BigInt& m);

/// \brief a^e mod m via left-to-right square-and-multiply. For odd m of two
///        or more limbs, dispatches to the Montgomery path (montgomery.h),
///        which is ~3-4x faster on crypto-sized moduli.
BigInt ModExp(const BigInt& a, const BigInt& e, const BigInt& m);

/// \brief Greatest common divisor, by binary GCD (Stein) over the limbs.
///        Gcd(0, b) is b.
BigInt Gcd(const BigInt& a, const BigInt& b);

/// \brief Multiplicative inverse of a modulo m, if gcd(a, m) == 1.
Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

/// \brief Jacobi symbol (a/n) for odd n > 0. Returns -1, 0, or +1.
///
/// For n = p*q a product of two odd primes, a is a quadratic residue mod n
/// iff it is a QR mod both p and q; Jacobi(a, n) == 1 is necessary but not
/// sufficient — exactly the gap the KO-PIR protocol's security rests on.
int Jacobi(const BigInt& a, const BigInt& n);

/// \brief Uniform value in [0, bound). `bound` must be nonzero.
BigInt RandomBelow(const BigInt& bound, Rng* rng);

/// \brief Uniform value with exactly `bits` significant bits (top bit set).
BigInt RandomBits(size_t bits, Rng* rng);

/// \brief Uniform unit of Z*_n, i.e. gcd(result, n) == 1, result in [1, n).
BigInt RandomUnit(const BigInt& n, Rng* rng);

}  // namespace embellish::bignum

#endif  // EMBELLISH_BIGNUM_MODMATH_H_
