#include "crypto/benaloh.h"

#include <cassert>
#include <cmath>

#include "bignum/modmath.h"
#include "bignum/prime.h"
#include "common/strings.h"

namespace embellish::crypto {

using bignum::BigInt;

uint64_t ExactPowerOfThree(uint64_t v) {
  if (v < 3) return 0;
  uint64_t k = 0;
  while (v % 3 == 0) {
    v /= 3;
    ++k;
  }
  return v == 1 ? k : 0;
}

std::vector<uint64_t> DistinctPrimeFactors(uint64_t v) {
  std::vector<uint64_t> factors;
  for (uint64_t p = 2; p * p <= v; p += (p == 2 ? 1 : 2)) {
    if (v % p == 0) {
      factors.push_back(p);
      while (v % p == 0) v /= p;
    }
  }
  if (v > 1) factors.push_back(v);
  return factors;
}

Status BenalohKeyOptions::Validate() const {
  if (key_bits < 128) {
    return Status::InvalidArgument("key_bits must be >= 128");
  }
  if (key_bits > 4096) {
    return Status::InvalidArgument("key_bits must be <= 4096");
  }
  if (r < 2) {
    return Status::InvalidArgument("message space r must be >= 2");
  }
  if (r % 2 == 0) {
    // p2 is an odd prime, so p2 - 1 is even and gcd(r, p2 - 1) = 1 is
    // unsatisfiable for even r. Benaloh deployments use odd r (e.g. 3^k).
    return Status::InvalidArgument("message space r must be odd");
  }
  if (r > (1ULL << 32)) {
    return Status::InvalidArgument(
        "message space r above 2^32 (BSGS/decryption impractical)");
  }
  if (BigInt(r).BitLength() + 16 > key_bits / 2) {
    return Status::InvalidArgument(
        "message space r too large relative to key_bits");
  }
  return Status::OK();
}

BenalohPublicKey::BenalohPublicKey(BigInt n, BigInt g, uint64_t r)
    : n_(std::move(n)), g_(std::move(g)), r_(r) {
  auto ctx = bignum::MontgomeryContext::Create(n_);
  assert(ctx.ok() && "modulus from keygen is odd");
  mont_ = std::make_shared<bignum::MontgomeryContext>(std::move(ctx).value());
}

Result<BenalohCiphertext> BenalohPublicKey::Encrypt(uint64_t m,
                                                    Rng* rng) const {
  if (m >= r_) {
    return Status::InvalidArgument(
        StringPrintf("message %llu outside Z_%llu",
                     static_cast<unsigned long long>(m),
                     static_cast<unsigned long long>(r_)));
  }
  BigInt u = bignum::RandomUnit(n_, rng);
  BigInt gm = mont_->ModExp(g_, BigInt(m));
  BigInt ur = mont_->ModExp(u, BigInt(r_));
  return BenalohCiphertext{mont_->Mul(gm, ur)};
}

Result<std::vector<BenalohCiphertext>> BenalohPublicKey::EncryptBatch(
    const std::vector<uint64_t>& ms, Rng* rng, ThreadPool* pool) const {
  for (uint64_t m : ms) {
    if (m >= r_) {
      return Status::InvalidArgument(
          StringPrintf("message %llu outside Z_%llu",
                       static_cast<unsigned long long>(m),
                       static_cast<unsigned long long>(r_)));
    }
  }
  // Nonces come out of the (non-thread-safe) rng up front, in message order.
  std::vector<BigInt> nonces;
  nonces.reserve(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    nonces.push_back(bignum::RandomUnit(n_, rng));
  }

  std::vector<BenalohCiphertext> out(ms.size());
  const bignum::MontgomeryContext& mont = *mont_;
  const size_t k = mont.limb_count();
  const std::vector<uint64_t> g_mont = mont.ToMontgomery(g_);
  const BigInt r_exp(r_);

  // Each message runs the scalar chain Encrypt runs: g^m, u^r, one product.
  auto encrypt_range = [&](size_t begin, size_t end) {
    bignum::MontgomeryContext::Scratch scratch(mont);
    std::vector<uint64_t> gm(k);
    std::vector<uint64_t> u_mont(k);
    std::vector<uint64_t> ur(k);
    for (size_t i = begin; i < end; ++i) {
      mont.ModExpInto(g_mont.data(), BigInt(ms[i]), gm.data(), &scratch);
      mont.ToMontgomeryInto(nonces[i], u_mont.data(), &scratch);
      mont.ModExpInto(u_mont.data(), r_exp, ur.data(), &scratch);
      mont.MontMulInto(gm.data(), ur.data(), gm.data(), &scratch);
      mont.FromMontgomeryInto(gm.data(), ur.data(), &scratch);
      out[i].value = BigInt::FromLimbs(ur);
    }
  };

  if (pool != nullptr) {
    pool->ParallelFor(0, ms.size(), /*min_grain=*/1, encrypt_range);
  } else {
    encrypt_range(0, ms.size());
  }
  return out;
}

BenalohCiphertext BenalohPublicKey::Add(const BenalohCiphertext& a,
                                        const BenalohCiphertext& b) const {
  return BenalohCiphertext{mont_->Mul(a.value, b.value)};
}

BenalohCiphertext BenalohPublicKey::ScalarMul(const BenalohCiphertext& c,
                                              uint64_t s) const {
  return BenalohCiphertext{mont_->ModExp(c.value, BigInt(s))};
}

std::vector<uint8_t> BenalohPublicKey::Serialize(
    const BenalohCiphertext& c) const {
  return c.value.ToBigEndianBytesPadded(CiphertextBytes());
}

Result<BenalohCiphertext> BenalohPublicKey::Deserialize(
    const std::vector<uint8_t>& bytes) const {
  if (bytes.size() != CiphertextBytes()) {
    return Status::Corruption("ciphertext wire size mismatch");
  }
  BigInt v = BigInt::FromBigEndianBytes(bytes);
  if (v >= n_) {
    return Status::Corruption("ciphertext not a residue mod n");
  }
  return BenalohCiphertext{std::move(v)};
}

Result<BenalohKeyPair> BenalohKeyPair::Generate(
    const BenalohKeyOptions& options, Rng* rng) {
  EMB_RETURN_NOT_OK(options.Validate());
  const BigInt r_big(options.r);
  const size_t half_bits = options.key_bits / 2;

  EMB_ASSIGN_OR_RETURN(
      BigInt p1, bignum::RandomPrimeCongruentOneModR(half_bits, r_big, rng));
  EMB_ASSIGN_OR_RETURN(
      BigInt p2, bignum::RandomPrimeCoprimePMinus1(
                     options.key_bits - half_bits, r_big, rng));

  BigInt n = p1 * p2;
  BigInt phi = (p1 - BigInt(1)) * (p2 - BigInt(1));
  BigInt phi_over_r = phi / r_big;

  // Select g whose image x = g^{phi/r} has order exactly r: for every prime
  // q | r we need x^{r/q} != 1, i.e. g^{phi/q} != 1 (mod n).
  std::vector<uint64_t> r_factors = DistinctPrimeFactors(options.r);
  auto mont_res = bignum::MontgomeryContext::Create(n);
  if (!mont_res.ok()) return mont_res.status();
  auto mont = std::make_shared<bignum::MontgomeryContext>(
      std::move(mont_res).value());

  BigInt g;
  bool found_g = false;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    g = bignum::RandomUnit(n, rng);
    bool all_nontrivial = true;
    for (uint64_t q : r_factors) {
      BigInt exp = phi / BigInt(q);
      if (mont->ModExp(g, exp).IsOne()) {
        all_nontrivial = false;
        break;
      }
    }
    if (all_nontrivial) {
      found_g = true;
      break;
    }
  }
  if (!found_g) {
    return Status::Internal("failed to find generator g");
  }

  BenalohKeyPair pair;
  pair.public_key_ = std::make_shared<BenalohPublicKey>(n, g, options.r);

  auto priv = std::make_shared<BenalohPrivateKey>();
  priv->p1_ = std::move(p1);
  priv->p2_ = std::move(p2);
  priv->n_ = n;
  priv->phi_ = phi;
  priv->phi_over_r_ = phi_over_r;
  priv->r_ = options.r;
  priv->mont_ = mont;
  priv->x_ = mont->ModExp(g, phi_over_r);
  EMB_ASSIGN_OR_RETURN(priv->x_inv_, bignum::ModInverse(priv->x_, n));
  priv->three_k_ = ExactPowerOfThree(options.r);

  // BSGS baby table: x^j for j in [0, t), t = ceil(sqrt(r)).
  priv->bsgs_t_ = static_cast<uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(options.r))));
  BigInt cur(1);
  priv->baby_.reserve(priv->bsgs_t_ * 2);
  for (uint64_t j = 0; j < priv->bsgs_t_; ++j) {
    priv->baby_.emplace(cur.ToHexString(), j);
    cur = mont->Mul(cur, priv->x_);
  }
  // giant = x^{-t} mod n.
  priv->giant_ = mont->ModExp(priv->x_inv_, BigInt(priv->bsgs_t_));

  pair.private_key_ = priv;
  return pair;
}

Result<uint64_t> BenalohPrivateKey::Decrypt(const BenalohCiphertext& c) const {
  return DecryptWith(c, BenalohDecryptMode::kAuto);
}

Result<uint64_t> BenalohPrivateKey::DecryptWith(
    const BenalohCiphertext& c, BenalohDecryptMode mode) const {
  if (c.value.IsZero() || c.value >= n_) {
    return Status::CryptoError("ciphertext outside Z*_n");
  }
  if (mode == BenalohDecryptMode::kAuto) {
    mode = three_k_ > 0 ? BenalohDecryptMode::kPowerOfThreeDigits
                        : BenalohDecryptMode::kBabyStepGiantStep;
  }
  if (mode == BenalohDecryptMode::kPowerOfThreeDigits && three_k_ == 0) {
    return Status::InvalidArgument("r is not a power of three");
  }

  // a = c^{phi/r} = x^m (mod n).
  BigInt a = mont_->ModExp(c.value, phi_over_r_);

  if (mode == BenalohDecryptMode::kBabyStepGiantStep) {
    // Find m = i*t + j with x^{m} = a  =>  a * (x^{-t})^i = x^j.
    BigInt gamma = a;
    for (uint64_t i = 0; i * bsgs_t_ < r_ + bsgs_t_; ++i) {
      auto it = baby_.find(gamma.ToHexString());
      if (it != baby_.end()) {
        uint64_t m = i * bsgs_t_ + it->second;
        if (m < r_) return m;
      }
      gamma = mont_->Mul(gamma, giant_);
    }
    return Status::CryptoError("BSGS discrete log not found (invalid ciphertext)");
  }

  // Digit-by-digit base-3 recovery: k modular exponentiations (App. A.2).
  const uint64_t k = three_k_;
  // w = x^{3^{k-1}} has order 3; precompute w and w^2 for digit matching.
  BigInt pow3_km1(1);
  for (uint64_t i = 0; i + 1 < k; ++i) pow3_km1 = pow3_km1 * BigInt(3);
  BigInt w = mont_->ModExp(x_, pow3_km1);
  BigInt w2 = mont_->Mul(w, w);

  uint64_t m = 0;
  uint64_t pow3_i = 1;   // 3^i
  BigInt residual = a;   // x^{m - (recovered digits)}
  BigInt exp = pow3_km1; // 3^{k-1-i}
  for (uint64_t i = 0; i < k; ++i) {
    BigInt probe = mont_->ModExp(residual, exp);
    uint64_t digit;
    if (probe.IsOne()) {
      digit = 0;
    } else if (probe == w) {
      digit = 1;
    } else if (probe == w2) {
      digit = 2;
    } else {
      return Status::CryptoError("digit recovery failed (invalid ciphertext)");
    }
    if (digit != 0) {
      m += digit * pow3_i;
      BigInt strip = mont_->ModExp(x_inv_, BigInt(digit * pow3_i));
      residual = mont_->Mul(residual, strip);
    }
    pow3_i *= 3;
    exp = exp / BigInt(3);
  }
  return m;
}

}  // namespace embellish::crypto
