#include "bignum/modmath.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bignum/prime.h"
#include "common/rng.h"

namespace embellish::bignum {
namespace {

TEST(ModMathTest, ModAddSubMulBasics) {
  BigInt m(97);
  EXPECT_EQ(ModAdd(BigInt(90), BigInt(10), m), BigInt(3));
  EXPECT_EQ(ModSub(BigInt(5), BigInt(10), m), BigInt(92));
  EXPECT_EQ(ModSub(BigInt(10), BigInt(5), m), BigInt(5));
  EXPECT_EQ(ModMul(BigInt(96), BigInt(96), m), BigInt(1));
}

TEST(ModMathTest, ModExpSmallKnownValues) {
  EXPECT_EQ(ModExp(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(ModExp(BigInt(3), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(ModExp(BigInt(0), BigInt(5), BigInt(7)), BigInt(0));
  EXPECT_EQ(ModExp(BigInt(5), BigInt(3), BigInt(13)), BigInt(8));
}

TEST(ModMathTest, ModExpModulusOneIsZero) {
  EXPECT_EQ(ModExp(BigInt(5), BigInt(3), BigInt(1)), BigInt());
}

TEST(ModMathTest, FermatLittleTheorem) {
  Rng rng(100);
  BigInt p = RandomPrime(192, &rng);
  for (int i = 0; i < 30; ++i) {
    BigInt a = RandomBelow(p - BigInt(1), &rng) + BigInt(1);
    EXPECT_TRUE(ModExp(a, p - BigInt(1), p).IsOne());
  }
}

TEST(ModMathTest, ModExpLawOfExponents) {
  Rng rng(101);
  BigInt m = RandomBits(128, &rng);
  if (m.IsEven()) m += BigInt(1);
  BigInt a = RandomBelow(m, &rng);
  BigInt e1(12345), e2(67890);
  // a^(e1+e2) == a^e1 * a^e2 (mod m)
  EXPECT_EQ(ModExp(a, e1 + e2, m),
            ModMul(ModExp(a, e1, m), ModExp(a, e2, m), m));
  // (a^e1)^e2 == a^(e1*e2)
  EXPECT_EQ(ModExp(ModExp(a, e1, m), e2, m), ModExp(a, e1 * e2, m));
}

TEST(ModMathTest, ModExpEvenModulusFallback) {
  // Even modulus cannot use Montgomery; exercises the generic path.
  BigInt m(1 << 20);
  EXPECT_EQ(ModExp(BigInt(3), BigInt(7), m), BigInt(2187));
  Rng rng(102);
  BigInt big_even = RandomBits(128, &rng) << 1;
  BigInt a = RandomBelow(big_even, &rng);
  BigInt r1 = ModExp(a, BigInt(5), big_even);
  BigInt expect = a % big_even;
  BigInt acc(1);
  for (int i = 0; i < 5; ++i) acc = acc * expect % big_even;
  EXPECT_EQ(r1, acc);
}

TEST(GcdTest, KnownValues) {
  EXPECT_EQ(Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(Gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(Gcd(BigInt(5), BigInt(0)), BigInt(5));
}

TEST(GcdTest, DividesBothAndIsMaximal) {
  Rng rng(103);
  for (int i = 0; i < 100; ++i) {
    BigInt g = RandomBits(40, &rng);
    BigInt a = g * RandomBits(60, &rng);
    BigInt b = g * RandomBits(60, &rng);
    BigInt d = Gcd(a, b);
    EXPECT_TRUE((a % d).IsZero());
    EXPECT_TRUE((b % d).IsZero());
    EXPECT_TRUE((d % g).IsZero());  // g divides the gcd
  }
}

// Euclid through BigInt division: the reference the binary GCD must match.
BigInt EuclidGcd(BigInt x, BigInt y) {
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

TEST(GcdTest, MatchesEuclidReference) {
  std::vector<std::pair<BigInt, BigInt>> cases;
  // Zero, one and equal operands, in both orders.
  const BigInt big = BigInt::PowerOfTwo(200) + BigInt(12345);
  for (const BigInt& x : {BigInt(0), BigInt(1), BigInt(2), BigInt(9), big}) {
    for (const BigInt& y : {BigInt(0), BigInt(1), BigInt(2), BigInt(9), big}) {
      cases.push_back({x, y});
    }
  }
  // Powers of two against powers of two and against odd multiples of them,
  // across limb boundaries.
  for (size_t i : {0, 1, 63, 64, 65, 127, 128, 1000, 4095}) {
    for (size_t j : {0, 5, 64, 200, 4095}) {
      cases.push_back({BigInt::PowerOfTwo(i), BigInt::PowerOfTwo(j)});
      cases.push_back({BigInt::PowerOfTwo(i),
                       BigInt::PowerOfTwo(j) * BigInt(0xFFFFFFFFFFFFFFC5ull)});
    }
  }
  // 1 to 64 limbs: random pairs, pairs sharing a factor, both operands even
  // (a shared power of two on top of the shared factor), and equal pairs.
  Rng rng(111);
  for (size_t limbs = 1; limbs <= 64; ++limbs) {
    const size_t bits = 64 * limbs;
    const BigInt a = RandomBits(bits, &rng);
    const BigInt b = RandomBits(1 + rng.Uniform(bits), &rng);
    const BigInt g = RandomBits(1 + rng.Uniform(bits / 2 + 1), &rng);
    cases.push_back({a, b});
    cases.push_back({b, a});
    cases.push_back({g * a, g * b});
    cases.push_back({(g * a) << (1 + rng.Uniform(130)),
                     (g * b) << (1 + rng.Uniform(130))});
    cases.push_back({a, a});
  }
  for (const auto& [x, y] : cases) {
    EXPECT_EQ(Gcd(x, y), EuclidGcd(x, y))
        << "gcd(" << x.ToHexString() << ", " << y.ToHexString() << ")";
  }
}

TEST(ModInverseTest, ProducesInverse) {
  Rng rng(104);
  for (int i = 0; i < 200; ++i) {
    BigInt m = RandomBits(100, &rng) + BigInt(2);
    BigInt a = RandomUnit(m, &rng);
    auto inv = ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_TRUE(ModMul(a, *inv, m).IsOne());
  }
}

TEST(ModInverseTest, RejectsNonInvertible) {
  EXPECT_FALSE(ModInverse(BigInt(6), BigInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigInt(0), BigInt(7)).ok());
  EXPECT_FALSE(ModInverse(BigInt(3), BigInt(1)).ok());
}

TEST(JacobiTest, MatchesEulerCriterionForPrimes) {
  Rng rng(105);
  BigInt p = RandomPrime(128, &rng);
  BigInt half = (p - BigInt(1)) >> 1;
  for (int i = 0; i < 200; ++i) {
    BigInt a = RandomBelow(p, &rng);
    if (a.IsZero()) continue;
    BigInt euler = ModExp(a, half, p);
    int expected = euler.IsOne() ? 1 : (euler == p - BigInt(1) ? -1 : 0);
    EXPECT_EQ(Jacobi(a, p), expected);
  }
}

TEST(JacobiTest, KnownSmallTable) {
  // (a/15) for a = 1..14: standard table.
  const int expected[] = {1, 1, 0, 1, 0, 0, -1, 1, 0, 0, -1, 0, -1, -1};
  for (int a = 1; a <= 14; ++a) {
    EXPECT_EQ(Jacobi(BigInt(static_cast<uint64_t>(a)), BigInt(15)),
              expected[a - 1])
        << "a=" << a;
  }
}

TEST(JacobiTest, Multiplicative) {
  Rng rng(106);
  BigInt n = RandomBits(80, &rng);
  if (n.IsEven()) n += BigInt(1);
  for (int i = 0; i < 100; ++i) {
    BigInt a = RandomBelow(n, &rng);
    BigInt b = RandomBelow(n, &rng);
    EXPECT_EQ(Jacobi(a * b, n), Jacobi(a, n) * Jacobi(b, n));
  }
}

TEST(JacobiTest, SquaresOfUnitsAreResidues) {
  Rng rng(107);
  BigInt n = RandomPrime(64, &rng) * RandomPrime(64, &rng);
  for (int i = 0; i < 50; ++i) {
    BigInt w = RandomUnit(n, &rng);
    EXPECT_EQ(Jacobi(w * w % n, n), 1);
  }
}

TEST(RandomBelowTest, UniformCoverageOfSmallRange) {
  Rng rng(108);
  BigInt bound(10);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 5000; ++i) {
    BigInt v = RandomBelow(bound, &rng);
    ASSERT_LT(v, bound);
    ++counts[v.Low64()];
  }
  for (int c : counts) EXPECT_GT(c, 300);
}

TEST(RandomBitsTest, ExactWidth) {
  Rng rng(109);
  for (size_t bits : {1u, 8u, 63u, 64u, 65u, 257u}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(RandomBits(bits, &rng).BitLength(), bits);
    }
  }
}

TEST(RandomUnitTest, AlwaysCoprime) {
  Rng rng(110);
  BigInt n = BigInt(2 * 3 * 5 * 7 * 11 * 13);
  for (int i = 0; i < 100; ++i) {
    BigInt u = RandomUnit(n, &rng);
    EXPECT_TRUE(Gcd(u, n).IsOne());
    EXPECT_LT(u, n);
    EXPECT_FALSE(u.IsZero());
  }
}

}  // namespace
}  // namespace embellish::bignum
