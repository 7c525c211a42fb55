#include "bignum/bigint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>

#include "common/strings.h"

namespace embellish::bignum {

namespace {

using u128 = unsigned __int128;

constexpr size_t kKaratsubaThresholdLimbs = 24;

}  // namespace

BigInt::BigInt(uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::FromLimbs(std::vector<uint64_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.Normalize();
  return out;
}

Result<BigInt> BigInt::FromDecimalString(std::string_view s) {
  if (s.empty()) {
    return Status::InvalidArgument("empty decimal string");
  }
  BigInt out;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(
          StringPrintf("invalid decimal digit '%c'", c));
    }
    out = out * BigInt(10) + BigInt(static_cast<uint64_t>(c - '0'));
  }
  return out;
}

Result<BigInt> BigInt::FromHexString(std::string_view s) {
  if (s.empty()) {
    return Status::InvalidArgument("empty hex string");
  }
  BigInt out;
  for (char c : s) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return Status::InvalidArgument(
          StringPrintf("invalid hex digit '%c'", c));
    }
    out = (out << 4) + BigInt(digit);
  }
  return out;
}

BigInt BigInt::FromBigEndianBytes(std::span<const uint8_t> bytes) {
  BigInt out;
  size_t n = bytes.size();
  if (n == 0) return out;
  out.limbs_.assign((n + 7) / 8, 0);
  for (size_t i = 0; i < n; ++i) {
    // bytes[i] is the (n-1-i)-th byte from the least-significant end.
    size_t pos = n - 1 - i;
    out.limbs_[pos / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (pos % 8));
  }
  out.Normalize();
  return out;
}

BigInt BigInt::PowerOfTwo(size_t bit) {
  BigInt out;
  out.limbs_.assign(bit / 64 + 1, 0);
  out.limbs_.back() = 1ULL << (bit % 64);
  return out;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) +
         (64 - static_cast<size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::Bit(size_t i) const {
  size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return ((limbs_[limb] >> (i % 64)) & 1) != 0;
}

std::vector<uint8_t> BigInt::ToBigEndianBytes() const {
  std::vector<uint8_t> out;
  size_t bits = BitLength();
  if (bits == 0) return out;
  size_t nbytes = (bits + 7) / 8;
  out.resize(nbytes);
  for (size_t i = 0; i < nbytes; ++i) {
    size_t pos = nbytes - 1 - i;
    out[i] = static_cast<uint8_t>(limbs_[pos / 8] >> (8 * (pos % 8)));
  }
  return out;
}

std::vector<uint8_t> BigInt::ToBigEndianBytesPadded(size_t n) const {
  std::vector<uint8_t> out(n);
  ToBigEndianBytesInto(out.data(), n);
  return out;
}

void BigInt::ToBigEndianBytesInto(uint8_t* out, size_t n) const {
  assert((BitLength() + 7) / 8 <= n && "value does not fit in requested width");
  // Byte pos counts from the least-significant end; bytes past the limbs
  // are zero. A wider value keeps its low-order n bytes (the value mod
  // 2^(8n)) in Release builds.
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = n - 1 - i;
    out[i] = pos / 8 < limbs_.size()
                 ? static_cast<uint8_t>(limbs_[pos / 8] >> (8 * (pos % 8)))
                 : 0;
  }
}

std::string BigInt::ToHexString() const {
  if (limbs_.empty()) return "0";
  std::string out;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(limbs_.back()));
  out += buf;
  for (size_t i = limbs_.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(limbs_[i]));
    out += buf;
  }
  return out;
}

std::string BigInt::ToDecimalString() const {
  if (limbs_.empty()) return "0";
  // Repeated division by 10^19 (largest power of ten in a uint64).
  constexpr uint64_t kChunk = 10000000000000000000ULL;
  constexpr int kChunkDigits = 19;
  std::vector<uint64_t> chunks;
  BigInt tmp = *this;
  const BigInt divisor(kChunk);
  while (!tmp.IsZero()) {
    BigInt q, r;
    DivMod(tmp, divisor, &q, &r);
    chunks.push_back(r.Low64());
    tmp = std::move(q);
  }
  std::string out = std::to_string(chunks.back());
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out += std::string(kChunkDigits - part.size(), '0') + part;
  }
  return out;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  BigInt out;
  const auto& x = a.limbs_.size() >= b.limbs_.size() ? a.limbs_ : b.limbs_;
  const auto& y = a.limbs_.size() >= b.limbs_.size() ? b.limbs_ : a.limbs_;
  out.limbs_.resize(x.size());
  uint64_t carry = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    u128 sum = static_cast<u128>(x[i]) + (i < y.size() ? y[i] : 0) + carry;
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  if (carry) out.limbs_.push_back(carry);
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) {
  assert(a >= b && "BigInt subtraction would underflow");
  BigInt out;
  out.limbs_.resize(a.limbs_.size());
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    u128 diff = static_cast<u128>(a.limbs_[i]) - bi - borrow;
    out.limbs_[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) != 0 ? 1 : 0;  // two's-complement high bits on wrap
  }
  out.Normalize();
  return out;
}

BigInt BigInt::MulSchoolbook(const BigInt& a, const BigInt& b) {
  BigInt out;
  if (a.IsZero() || b.IsZero()) return out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    if (ai == 0) continue;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(ai) * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limbs_[i + b.limbs_.size()] += carry;
  }
  out.Normalize();
  return out;
}

BigInt BigInt::MulKaratsuba(const BigInt& a, const BigInt& b) {
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  if (std::min(a.limbs_.size(), b.limbs_.size()) < kKaratsubaThresholdLimbs) {
    return MulSchoolbook(a, b);
  }
  size_t half = n / 2;
  auto split = [half](const BigInt& v) {
    BigInt lo, hi;
    if (v.limbs_.size() <= half) {
      lo = v;
    } else {
      lo.limbs_.assign(v.limbs_.begin(), v.limbs_.begin() + half);
      lo.Normalize();
      hi.limbs_.assign(v.limbs_.begin() + half, v.limbs_.end());
      hi.Normalize();
    }
    return std::pair<BigInt, BigInt>(std::move(lo), std::move(hi));
  };
  auto [a_lo, a_hi] = split(a);
  auto [b_lo, b_hi] = split(b);
  BigInt z0 = MulKaratsuba(a_lo, b_lo);
  BigInt z2 = MulKaratsuba(a_hi, b_hi);
  BigInt z1 = MulKaratsuba(a_lo + a_hi, b_lo + b_hi) - z0 - z2;
  return (z2 << (128 * half)) + (z1 << (64 * half)) + z0;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  if (std::min(a.limbs_.size(), b.limbs_.size()) >= kKaratsubaThresholdLimbs) {
    return BigInt::MulKaratsuba(a, b);
  }
  return BigInt::MulSchoolbook(a, b);
}

BigInt operator<<(const BigInt& a, size_t shift) {
  if (a.IsZero() || shift == 0) return a;
  size_t limb_shift = shift / 64;
  size_t bit_shift = shift % 64;
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= a.limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= a.limbs_[i] >> (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

BigInt operator>>(const BigInt& a, size_t shift) {
  size_t limb_shift = shift / 64;
  size_t bit_shift = shift % 64;
  if (limb_shift >= a.limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      out.limbs_[i] |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  assert(!b.IsZero() && "division by zero");
  if (a < b) {
    if (quotient) *quotient = BigInt();
    if (remainder) *remainder = a;
    return;
  }
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor via 128/64 division.
    uint64_t d = b.limbs_[0];
    BigInt q;
    q.limbs_.assign(a.limbs_.size(), 0);
    u128 rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint64_t>(cur / d);
      rem = cur % d;
    }
    q.Normalize();
    if (quotient) *quotient = std::move(q);
    if (remainder) *remainder = BigInt(static_cast<uint64_t>(rem));
    return;
  }

  // Knuth Algorithm D (TAOCP 4.3.1) with 64-bit digits.
  const int shift = std::countl_zero(b.limbs_.back());
  BigInt u = a << static_cast<size_t>(shift);
  BigInt v = b << static_cast<size_t>(shift);
  const size_t n = v.limbs_.size();
  const size_t m = u.limbs_.size() >= n ? u.limbs_.size() - n : 0;
  u.limbs_.resize(u.limbs_.size() + 1, 0);  // u has m+n+1 digits

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t v_hi = v.limbs_[n - 1];
  const uint64_t v_lo = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate qhat = (u[j+n]*B + u[j+n-1]) / v[n-1].
    u128 numerator = (static_cast<u128>(u.limbs_[j + n]) << 64) |
                     u.limbs_[j + n - 1];
    u128 qhat = numerator / v_hi;
    u128 rhat = numerator % v_hi;
    constexpr u128 kBase = static_cast<u128>(1) << 64;
    while (qhat >= kBase ||
           qhat * v_lo > ((rhat << 64) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_hi;
      if (rhat >= kBase) break;
    }

    // Multiply-and-subtract: u[j..j+n] -= qhat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 prod = qhat * v.limbs_[i] + carry;
      carry = prod >> 64;
      uint64_t prod_lo = static_cast<uint64_t>(prod);
      u128 diff = static_cast<u128>(u.limbs_[j + i]) - prod_lo - borrow;
      u.limbs_[j + i] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) != 0 ? 1 : 0;
    }
    u128 diff = static_cast<u128>(u.limbs_[j + n]) - carry - borrow;
    u.limbs_[j + n] = static_cast<uint64_t>(diff);
    bool negative = (diff >> 64) != 0;

    if (negative) {
      // qhat was one too large; add v back.
      --qhat;
      u128 add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u.limbs_[j + i]) + v.limbs_[i] + add_carry;
        u.limbs_[j + i] = static_cast<uint64_t>(sum);
        add_carry = sum >> 64;
      }
      u.limbs_[j + n] += static_cast<uint64_t>(add_carry);
    }
    q.limbs_[j] = static_cast<uint64_t>(qhat);
  }

  q.Normalize();
  if (quotient) *quotient = std::move(q);
  if (remainder) {
    BigInt r;
    r.limbs_.assign(u.limbs_.begin(), u.limbs_.begin() + n);
    r.Normalize();
    *remainder = r >> static_cast<size_t>(shift);
  }
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  BigInt q;
  BigInt::DivMod(a, b, &q, nullptr);
  return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  BigInt r;
  BigInt::DivMod(a, b, nullptr, &r);
  return r;
}

}  // namespace embellish::bignum
