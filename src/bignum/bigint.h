// Arbitrary-precision unsigned integer arithmetic.
//
// BigInt is the numeric substrate for the crypto module (Benaloh, Paillier,
// KO-PIR all work in Z*_n for an RSA-style modulus n). Values are
// non-negative; magnitudes are stored as little-endian 64-bit limbs with no
// trailing zero limbs (canonical form). The class is value-semantic and
// deterministic; nothing here allocates global state.
//
// Algorithms: schoolbook add/sub/mul with a Karatsuba path for large
// operands, Knuth Algorithm D division (TAOCP vol. 2, 4.3.1), binary
// left-to-right exponentiation (modexp lives in modmath.h / montgomery.h).

#ifndef EMBELLISH_BIGNUM_BIGINT_H_
#define EMBELLISH_BIGNUM_BIGINT_H_

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace embellish::bignum {

/// \brief Arbitrary-precision unsigned integer.
class BigInt {
 public:
  /// \brief Constructs zero.
  BigInt() = default;

  /// \brief Constructs from a machine word.
  BigInt(uint64_t v);  // NOLINT(runtime/explicit): numeric promotion intended

  /// \brief Parses a decimal string ("12345"). Rejects empty/invalid input.
  static Result<BigInt> FromDecimalString(std::string_view s);

  /// \brief Parses a hexadecimal string without 0x prefix ("deadBEEF").
  static Result<BigInt> FromHexString(std::string_view s);

  /// \brief Builds from big-endian bytes (empty => zero).
  static BigInt FromBigEndianBytes(std::span<const uint8_t> bytes);

  /// \brief Value with only bit `bit` set (i.e. 2^bit).
  static BigInt PowerOfTwo(size_t bit);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1) != 0; }
  bool IsEven() const { return !IsOdd(); }

  /// \brief Number of significant bits; 0 for zero.
  size_t BitLength() const;

  /// \brief Number of limbs in canonical form.
  size_t LimbCount() const { return limbs_.size(); }

  /// \brief Bit value at position `i` (0 = least significant).
  bool Bit(size_t i) const;

  /// \brief Low 64 bits of the value (truncating).
  uint64_t Low64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  /// \brief True if the value fits in a uint64_t.
  bool FitsUint64() const { return limbs_.size() <= 1; }

  std::string ToDecimalString() const;
  std::string ToHexString() const;

  /// \brief Big-endian byte serialization, no leading zero bytes (zero => {}).
  std::vector<uint8_t> ToBigEndianBytes() const;

  /// \brief Big-endian serialization padded to exactly `n` bytes. The value
  ///        is expected to fit in `n` bytes (asserted in Debug); a wider
  ///        value is reduced mod 2^(8n) so the result width always holds.
  std::vector<uint8_t> ToBigEndianBytesPadded(size_t n) const;

  /// \brief ToBigEndianBytesPadded(n), written to `out[0, n)` in place.
  void ToBigEndianBytesInto(uint8_t* out, size_t n) const;

  // -- Arithmetic (value-returning; all operands unsigned) --

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  /// \brief Requires a >= b (asserts in debug builds).
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);
  friend BigInt operator<<(const BigInt& a, size_t shift);
  friend BigInt operator>>(const BigInt& a, size_t shift);

  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }
  BigInt& operator%=(const BigInt& b) { return *this = *this % b; }

  /// \brief Simultaneous quotient and remainder. `b` must be nonzero.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);
  friend bool operator==(const BigInt& a, const BigInt& b) = default;

  /// \brief Access to raw limbs (little-endian), for Montgomery internals.
  const std::vector<uint64_t>& limbs() const { return limbs_; }

  /// \brief Constructs from raw limbs; normalizes trailing zeros.
  static BigInt FromLimbs(std::vector<uint64_t> limbs);

 private:
  void Normalize();

  static BigInt MulSchoolbook(const BigInt& a, const BigInt& b);
  static BigInt MulKaratsuba(const BigInt& a, const BigInt& b);

  // Little-endian limbs; canonical (no trailing zeros). Empty == 0.
  std::vector<uint64_t> limbs_;
};

}  // namespace embellish::bignum

#endif  // EMBELLISH_BIGNUM_BIGINT_H_
