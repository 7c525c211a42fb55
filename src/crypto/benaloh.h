// Benaloh "dense probabilistic encryption" (Workshop on Selected Areas of
// Cryptography, 1994) — the additively homomorphic cryptosystem used by the
// paper's Private Retrieval scheme (Algorithm 3/4/5 and Appendix A.2).
//
// Messages live in Z_r. Key generation picks primes p1, p2 with
//   r | (p1 - 1),  gcd(r, (p1-1)/r) = 1,  gcd(r, p2 - 1) = 1,
// modulus n = p1*p2, and g in Z*_n with g^{phi/r} != 1 (mod n) — strengthened
// here to g^{phi/q} != 1 for every prime q | r so that g^{phi/r} has order
// exactly r and decryption is unambiguous.
//
//   E(m) = g^m * u^r mod n           (u random unit)
//   E(m1) * E(m2) = E(m1 + m2 mod r) (additively homomorphic)
//   E(m)^s = E(m * s mod r)          (scalar multiplication)
//
// Two decryption procedures are provided, as in the paper's Appendix A.2:
// baby-step/giant-step in O(sqrt(r)) for arbitrary r, and the digit-by-digit
// procedure needing only k modular exponentiations when r = 3^k.
//
// NOTE ON RANDOMNESS: protocol nonces are drawn from the deterministic Rng so
// experiments are reproducible. A production deployment would substitute a
// CSPRNG; nothing in the interfaces would change.

#ifndef EMBELLISH_CRYPTO_BENALOH_H_
#define EMBELLISH_CRYPTO_BENALOH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace embellish::crypto {

/// \brief A Benaloh ciphertext; a residue modulo the public n.
struct BenalohCiphertext {
  bignum::BigInt value;

  bool operator==(const BenalohCiphertext&) const = default;
};

/// \brief Key-generation parameters.
struct BenalohKeyOptions {
  /// Modulus size in bits (the paper's KeyLen). 512 keeps benches fast while
  /// exercising multi-limb arithmetic; production would use >= 2048.
  size_t key_bits = 512;

  /// Message-space size r. The default 3^10 = 59049 admits the optimized
  /// k-exponentiation decryption and comfortably bounds the discretized
  /// relevance scores accumulated by Algorithm 4.
  uint64_t r = 59049;

  Status Validate() const;
};

/// \brief Public key: (n, g) plus the message-space size r.
class BenalohPublicKey {
 public:
  BenalohPublicKey(bignum::BigInt n, bignum::BigInt g, uint64_t r);

  const bignum::BigInt& n() const { return n_; }
  const bignum::BigInt& g() const { return g_; }
  uint64_t r() const { return r_; }

  /// \brief Ciphertext wire size in bytes (= KeyLen / 8, padded).
  size_t CiphertextBytes() const { return (n_.BitLength() + 7) / 8; }

  /// \brief E(m) = g^m u^r mod n. `m` must be < r.
  Result<BenalohCiphertext> Encrypt(uint64_t m, Rng* rng) const;

  /// \brief Encrypts every message in `ms`, fanning the modexps out over
  ///        `pool` (null => serial). Nonces are drawn from `rng` serially in
  ///        message order, so the output is identical to calling Encrypt in
  ///        a loop — threading changes only the wall clock.
  Result<std::vector<BenalohCiphertext>> EncryptBatch(
      const std::vector<uint64_t>& ms, Rng* rng,
      ThreadPool* pool = nullptr) const;

  /// \brief Homomorphic addition: E(m1)*E(m2) = E(m1+m2 mod r).
  BenalohCiphertext Add(const BenalohCiphertext& a,
                        const BenalohCiphertext& b) const;

  /// \brief Scalar multiplication: E(m)^s = E(m*s mod r).
  BenalohCiphertext ScalarMul(const BenalohCiphertext& c, uint64_t s) const;

  /// \brief Montgomery-form handle for hot loops (Algorithm 4's inner loop).
  const bignum::MontgomeryContext& mont() const { return *mont_; }

  /// \brief Fixed-width serialization, for traffic accounting.
  std::vector<uint8_t> Serialize(const BenalohCiphertext& c) const;
  Result<BenalohCiphertext> Deserialize(std::span<const uint8_t> bytes) const;

  /// \brief Serialize(c), written to `out[0, CiphertextBytes())` in place.
  void SerializeInto(const BenalohCiphertext& c, uint8_t* out) const;

 private:
  bignum::BigInt n_;
  bignum::BigInt g_;
  uint64_t r_;
  std::shared_ptr<bignum::MontgomeryContext> mont_;
};

/// \brief Decryption strategy; kAuto picks k-exponentiation when r = 3^k.
enum class BenalohDecryptMode {
  kAuto,
  kBabyStepGiantStep,
  kPowerOfThreeDigits,
};

/// \brief Private key: factorization plus precomputed decryption tables.
class BenalohPrivateKey {
 public:
  /// \brief Decrypts; returns the message in [0, r).
  Result<uint64_t> Decrypt(const BenalohCiphertext& c) const;

  /// \brief Decrypts with an explicit strategy (for the decryption ablation).
  Result<uint64_t> DecryptWith(const BenalohCiphertext& c,
                               BenalohDecryptMode mode) const;

  const bignum::BigInt& p1() const { return p1_; }
  const bignum::BigInt& p2() const { return p2_; }

 private:
  friend class BenalohKeyPair;

  bignum::BigInt p1_;
  bignum::BigInt p2_;
  bignum::BigInt n_;
  bignum::BigInt phi_;
  bignum::BigInt phi_over_r_;
  bignum::BigInt x_;       // g^{phi/r} mod n; generator of the order-r group
  bignum::BigInt x_inv_;   // x^{-1} mod n
  uint64_t r_ = 0;
  uint64_t three_k_ = 0;   // k when r == 3^k, else 0

  // BSGS tables: baby[x^j] = j for j < t; giant_ = x^{-t}.
  uint64_t bsgs_t_ = 0;
  std::unordered_map<std::string, uint64_t> baby_;
  bignum::BigInt giant_;
  std::shared_ptr<bignum::MontgomeryContext> mont_;
};

/// \brief A generated keypair.
class BenalohKeyPair {
 public:
  /// \brief Generates keys per BenalohKeyOptions. Deterministic given `rng`.
  static Result<BenalohKeyPair> Generate(const BenalohKeyOptions& options,
                                         Rng* rng);

  const BenalohPublicKey& public_key() const { return *public_key_; }
  const BenalohPrivateKey& private_key() const { return *private_key_; }

 private:
  BenalohKeyPair() = default;
  std::shared_ptr<BenalohPublicKey> public_key_;
  std::shared_ptr<BenalohPrivateKey> private_key_;
};

/// \brief Returns k if v == 3^k (k >= 1), otherwise 0.
uint64_t ExactPowerOfThree(uint64_t v);

/// \brief Prime factorization by trial division; `v` is a small message-space
///        size (fits comfortably; not for cryptographic operands).
std::vector<uint64_t> DistinctPrimeFactors(uint64_t v);

}  // namespace embellish::crypto

#endif  // EMBELLISH_CRYPTO_BENALOH_H_
