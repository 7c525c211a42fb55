#include "crypto/paillier.h"

#include <cassert>

#include "bignum/modmath.h"
#include "bignum/prime.h"

namespace embellish::crypto {

using bignum::BigInt;

PaillierPublicKey::PaillierPublicKey(BigInt n) : n_(std::move(n)) {
  n2_ = n_ * n_;
  auto ctx = bignum::MontgomeryContext::Create(n2_);
  assert(ctx.ok());
  mont_ = std::make_shared<bignum::MontgomeryContext>(std::move(ctx).value());
}

Result<PaillierCiphertext> PaillierPublicKey::Encrypt(const BigInt& m,
                                                      Rng* rng) const {
  if (m >= n_) {
    return Status::InvalidArgument("Paillier message must be < n");
  }
  // g = n+1 => g^m = 1 + m*n (mod n^2); avoids one modexp.
  BigInt gm = (BigInt(1) + m * n_) % n2_;
  BigInt u = bignum::RandomUnit(n_, rng);
  BigInt un = mont_->ModExp(u, n_);
  return PaillierCiphertext{mont_->Mul(gm, un)};
}

Result<std::vector<PaillierCiphertext>> PaillierPublicKey::EncryptBatch(
    const std::vector<BigInt>& ms, Rng* rng, ThreadPool* pool) const {
  for (const BigInt& m : ms) {
    if (m >= n_) {
      return Status::InvalidArgument("Paillier message must be < n");
    }
  }
  std::vector<BigInt> nonces;
  nonces.reserve(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    nonces.push_back(bignum::RandomUnit(n_, rng));
  }

  std::vector<PaillierCiphertext> out(ms.size());
  const bignum::MontgomeryContext& mont = *mont_;
  const size_t k = mont.limb_count();

  auto encrypt_range = [&](size_t begin, size_t end) {
    bignum::MontgomeryContext::Scratch scratch(mont);
    std::vector<uint64_t> gm_mont(k);
    std::vector<uint64_t> u_mont(k);
    std::vector<uint64_t> un(k);
    for (size_t i = begin; i < end; ++i) {
      // g = n+1 => g^m = 1 + m*n (mod n^2); avoids one modexp.
      const BigInt gm = (BigInt(1) + ms[i] * n_) % n2_;
      mont.ToMontgomeryInto(gm, gm_mont.data(), &scratch);
      mont.ToMontgomeryInto(nonces[i], u_mont.data(), &scratch);
      mont.ModExpInto(u_mont.data(), n_, un.data(), &scratch);
      mont.MontMulInto(gm_mont.data(), un.data(), un.data(), &scratch);
      mont.FromMontgomeryInto(un.data(), un.data(), &scratch);
      out[i].value = BigInt::FromLimbs(un);
    }
  };

  if (pool != nullptr) {
    pool->ParallelFor(0, ms.size(), /*min_grain=*/1, encrypt_range);
  } else {
    encrypt_range(0, ms.size());
  }
  return out;
}

PaillierCiphertext PaillierPublicKey::Add(const PaillierCiphertext& a,
                                          const PaillierCiphertext& b) const {
  return PaillierCiphertext{mont_->Mul(a.value, b.value)};
}

PaillierCiphertext PaillierPublicKey::ScalarMul(const PaillierCiphertext& c,
                                                uint64_t s) const {
  return PaillierCiphertext{mont_->ModExp(c.value, BigInt(s))};
}

Result<PaillierKeyPair> PaillierKeyPair::Generate(size_t key_bits, Rng* rng) {
  if (key_bits < 128 || key_bits > 4096) {
    return Status::InvalidArgument("key_bits out of supported range");
  }
  const size_t half = key_bits / 2;
  BigInt p = bignum::RandomPrime(half, rng);
  BigInt q;
  do {
    q = bignum::RandomPrime(key_bits - half, rng);
  } while (q == p);

  BigInt n = p * q;
  BigInt p1 = p - BigInt(1);
  BigInt q1 = q - BigInt(1);
  BigInt lambda = (p1 * q1) / bignum::Gcd(p1, q1);  // lcm(p-1, q-1)

  PaillierKeyPair pair;
  pair.public_key_ = std::make_shared<PaillierPublicKey>(n);

  auto priv = std::make_shared<PaillierPrivateKey>();
  priv->n_ = n;
  priv->n2_ = n * n;
  priv->lambda_ = lambda;
  auto ctx = bignum::MontgomeryContext::Create(priv->n2_);
  if (!ctx.ok()) return ctx.status();
  priv->mont_ = std::make_shared<bignum::MontgomeryContext>(
      std::move(ctx).value());

  // mu = (L(g^lambda mod n^2))^{-1} mod n, with g = n+1.
  BigInt g_lambda = priv->mont_->ModExp(n + BigInt(1), lambda);
  BigInt l_val = (g_lambda - BigInt(1)) / n;
  EMB_ASSIGN_OR_RETURN(priv->mu_, bignum::ModInverse(l_val, n));

  pair.private_key_ = priv;
  return pair;
}

Result<BigInt> PaillierPrivateKey::Decrypt(const PaillierCiphertext& c) const {
  if (c.value.IsZero() || c.value >= n2_) {
    return Status::CryptoError("ciphertext outside Z*_{n^2}");
  }
  if (!bignum::Gcd(c.value, n_).IsOne()) {
    return Status::CryptoError("ciphertext shares a factor with n");
  }
  BigInt c_lambda = mont_->ModExp(c.value, lambda_);
  // Valid ciphertexts satisfy c^lambda = 1 (mod n), so L() divides exactly.
  if (c_lambda.IsZero() || !((c_lambda - BigInt(1)) % n_).IsZero()) {
    return Status::CryptoError("malformed ciphertext");
  }
  BigInt l_val = (c_lambda - BigInt(1)) / n_;
  return l_val * mu_ % n_;
}

}  // namespace embellish::crypto
