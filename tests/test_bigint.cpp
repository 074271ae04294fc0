// Unit and property tests for fixed-width big integers, Montgomery
// arithmetic and primality testing.
#include "bigint/bigint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bigint/montgomery.h"
#include "bigint/prime.h"
#include "hashing/drbg.h"

namespace tre::bigint {
namespace {

using B4 = BigInt<4>;
using B8 = BigInt<8>;

hashing::HmacDrbg test_rng(const char* seed = "bigint-tests") {
  return hashing::HmacDrbg(to_bytes(seed));
}

TEST(BigInt, HexRoundtrip) {
  auto v = B4::from_hex("deadbeef00112233445566778899aabb");
  EXPECT_EQ(v.to_hex(), "deadbeef00112233445566778899aabb");
  EXPECT_EQ(B4::from_u64(0).to_hex(), "0");
  EXPECT_EQ(B4::from_u64(0x1f).to_hex(), "1f");
}

TEST(BigInt, BytesRoundtrip) {
  Bytes raw = from_hex("0102030405060708090a0b0c0d0e0f10");
  auto v = B4::from_bytes_be(raw);
  EXPECT_EQ(v.to_bytes_be(16), raw);
  EXPECT_EQ(v.to_bytes_be(20), concat({from_hex("00000000"), raw}));
  EXPECT_THROW(v.to_bytes_be(4), Error);  // does not fit
}

TEST(BigInt, Comparisons) {
  auto a = B4::from_u64(5);
  auto b = B4::from_hex("10000000000000000");  // 2^64
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, B4::from_u64(5));
  EXPECT_TRUE(B4{}.is_zero());
  EXPECT_TRUE(a.is_odd());
  EXPECT_FALSE(b.is_odd());
}

TEST(BigInt, AddSubCarryChains) {
  auto max64 = B4::from_hex("ffffffffffffffff");
  auto one = B4::from_u64(1);
  auto sum = add(max64, one);
  EXPECT_EQ(sum.to_hex(), "10000000000000000");
  EXPECT_EQ(sub(sum, one), max64);

  // Carry out of the top limb is reported.
  B4 all_ones = B4::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffff"
                             "ffffffffffffffff");
  B4 tmp = all_ones;
  EXPECT_EQ(add_assign(tmp, one), 1u);
  EXPECT_TRUE(tmp.is_zero());
  tmp = B4{};
  EXPECT_EQ(sub_assign(tmp, one), 1u);
  EXPECT_EQ(tmp, all_ones);
}

TEST(BigInt, BitLengthAndBit) {
  EXPECT_EQ(B4{}.bit_length(), 0u);
  EXPECT_EQ(B4::from_u64(1).bit_length(), 1u);
  EXPECT_EQ(B4::from_u64(0xff).bit_length(), 8u);
  auto v = B4::from_hex("80000000000000000");  // bit 67
  EXPECT_EQ(v.bit_length(), 68u);
  EXPECT_TRUE(v.bit(67));
  EXPECT_FALSE(v.bit(66));
}

TEST(BigInt, Shifts) {
  auto v = B4::from_u64(1);
  EXPECT_EQ(shl(v, 130).to_hex(), "400000000000000000000000000000000");
  EXPECT_EQ(shr(shl(v, 130), 130), v);
  EXPECT_TRUE(shr(v, 1).is_zero());
  EXPECT_EQ(shl(v, 0), v);

  auto pattern = B4::from_hex("123456789abcdef0fedcba9876543210");
  EXPECT_EQ(shr(shl(pattern, 64), 64), pattern);
  EXPECT_EQ(shl(pattern, 4).to_hex(), "123456789abcdef0fedcba98765432100");
}

TEST(BigInt, MulWideSmall) {
  auto a = B4::from_u64(0xffffffffffffffffull);
  auto b = B4::from_u64(0xffffffffffffffffull);
  auto prod = mul_wide(a, b);
  EXPECT_EQ(prod.to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigInt, MulU64) {
  auto a = B4::from_hex("ffffffffffffffffffffffffffffffff");
  std::uint64_t carry = 0;
  auto r = mul_u64(a, 16, &carry);
  EXPECT_EQ(r.to_hex(), "ffffffffffffffffffffffffffffffff0");
  EXPECT_EQ(carry, 0u);
  // Carry out of the top limb.
  BigInt<2> full = BigInt<2>::from_hex("ffffffffffffffffffffffffffffffff");
  auto r2 = mul_u64(full, 16, &carry);
  EXPECT_EQ(r2.to_hex(), "fffffffffffffffffffffffffffffff0");
  EXPECT_EQ(carry, 0xfu);
}

TEST(BigInt, DivmodBasics) {
  B4 q, r;
  divmod(B4::from_u64(100), B4::from_u64(7), q, r);
  EXPECT_EQ(q, B4::from_u64(14));
  EXPECT_EQ(r, B4::from_u64(2));

  divmod(B4::from_u64(5), B4::from_u64(100), q, r);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, B4::from_u64(5));

  EXPECT_THROW(divmod(B4::from_u64(5), B4{}, q, r), Error);
}

// Property: for random a, b: a = q*b + r with r < b.
TEST(BigInt, DivmodReconstruction) {
  auto rng = test_rng();
  for (int i = 0; i < 50; ++i) {
    B4 a = random_bits<4>(rng, 200);
    B4 b = random_bits<4>(rng, 20 + static_cast<size_t>(i));
    B4 q, r;
    divmod(a, b, q, r);
    EXPECT_LT(r, b);
    auto back = mul_wide(q, b);
    auto wide_r = r.resized<8>();
    add_assign(back, wide_r);
    EXPECT_EQ(back, a.resized<8>());
  }
}

// Property: modular ring laws under a random odd modulus.
TEST(BigInt, ModularRingLaws) {
  auto rng = test_rng();
  for (int i = 0; i < 25; ++i) {
    B4 m = random_bits<4>(rng, 150);
    m.w[0] |= 1;
    B4 a = random_below(rng, m);
    B4 b = random_below(rng, m);
    B4 c = random_below(rng, m);
    // (a+b)+c == a+(b+c)
    EXPECT_EQ(addmod(addmod(a, b, m), c, m), addmod(a, addmod(b, c, m), m));
    // a+b == b+a, a*b == b*a
    EXPECT_EQ(addmod(a, b, m), addmod(b, a, m));
    EXPECT_EQ(mulmod(a, b, m), mulmod(b, a, m));
    // a*(b+c) == a*b + a*c
    EXPECT_EQ(mulmod(a, addmod(b, c, m), m),
              addmod(mulmod(a, b, m), mulmod(a, c, m), m));
    // a - b + b == a
    EXPECT_EQ(addmod(submod(a, b, m), b, m), a);
  }
}

TEST(BigInt, ModInverse) {
  auto rng = test_rng();
  B4 m = B4::from_hex("fa08d6af57");  // prime
  for (int i = 0; i < 30; ++i) {
    B4 a = random_nonzero_below(rng, m);
    B4 inv = mod_inverse(a, m);
    EXPECT_EQ(mulmod(a, inv, m), B4::from_u64(1));
  }
  EXPECT_THROW(mod_inverse(B4{}, m), Error);
  // Non-coprime case: modulus 9, value 3.
  EXPECT_THROW(mod_inverse(B4::from_u64(3), B4::from_u64(9)), Error);
}

TEST(Montgomery, RoundtripAndMul) {
  auto rng = test_rng();
  B8 m = random_bits<8>(rng, 300);
  m.w[0] |= 1;
  MontCtx<8> mont(m);
  for (int i = 0; i < 25; ++i) {
    B8 a = random_below(rng, m);
    B8 b = random_below(rng, m);
    EXPECT_EQ(mont.from_mont(mont.to_mont(a)), a);
    B8 prod = mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b)));
    EXPECT_EQ(prod, mulmod(a, b, m));
  }
}

TEST(Montgomery, ActiveLimbsSmallModulus) {
  // Modulus much smaller than capacity exercises the n < L path.
  B8 m = B8::from_hex("fa08d6af57");
  MontCtx<8> mont(m);
  EXPECT_EQ(mont.active_limbs(), 1u);
  auto rng = test_rng();
  for (int i = 0; i < 50; ++i) {
    B8 a = random_below(rng, m);
    B8 b = random_below(rng, m);
    EXPECT_EQ(mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b))),
              mulmod(a, b, m));
  }
}

TEST(Montgomery, PowMatchesFermat) {
  B8 p = B8::from_hex("6429155995d43598752910865601b03f1b243370b1e40cf2fc4a74c1"
                      "c3b9e526b9a0f85e456a17cfd0f200007517f2698a6f73c9c4b29db5"
                      "650707683d48de73");  // 511-bit prime
  MontCtx<8> mont(p);
  auto rng = test_rng();
  B8 e = sub(p, B8::from_u64(1));
  for (int i = 0; i < 5; ++i) {
    B8 a = random_nonzero_below(rng, p);
    // Fermat: a^(p-1) == 1 (mod p)
    EXPECT_EQ(mont.pow_plain(a, e), B8::from_u64(1));
  }
}

TEST(Montgomery, PowEdgeCases) {
  B8 m = B8::from_hex("fa08d6af57");
  MontCtx<8> mont(m);
  B8 a = B8::from_u64(12345);
  EXPECT_EQ(mont.pow_plain(a, B8{}), B8::from_u64(1));        // x^0 = 1
  EXPECT_EQ(mont.pow_plain(a, B8::from_u64(1)), a);           // x^1 = x
  EXPECT_EQ(mont.pow_plain(a, B8::from_u64(2)), mulmod(a, a, m));
}

TEST(Montgomery, SlidingWindowPowMatchesSquareAndMultiply) {
  // Exponent lengths straddle every window-width threshold, and include
  // runs of zeros and ones at both ends of a window.
  B8 p = B8::from_hex("6429155995d43598752910865601b03f1b243370b1e40cf2fc4a74c1"
                      "c3b9e526b9a0f85e456a17cfd0f200007517f2698a6f73c9c4b29db5"
                      "650707683d48de73");
  MontCtx<8> mont(p);
  auto rng = test_rng("sliding-window-pow");
  auto reference = [&](const B8& a_mont, const B8& e) {
    B8 acc = mont.one();
    for (size_t i = e.bit_length(); i-- > 0;) {
      acc = mont.sqr(acc);
      if (e.bit(i)) acc = mont.mul(acc, a_mont);
    }
    return acc;
  };
  B8 a = mont.to_mont(random_nonzero_below(rng, p));
  std::vector<B8> exps;
  const size_t kBits[] = {1, 2, 5, 16, 17, 63, 64, 65, 191, 192, 193, 380, 511};
  for (size_t bits : kBits) {
    exps.push_back(random_bits<8>(rng, std::max<size_t>(bits, 2)));
    exps.push_back(sub(shl(B8::from_u64(1), bits), B8::from_u64(1)));  // all ones
    exps.push_back(add(shl(B8::from_u64(1), bits), B8::from_u64(1)));  // 10…01
  }
  for (const B8& e : exps) EXPECT_EQ(mont.pow(a, e), reference(a, e)) << e.to_hex();
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(MontCtx<4>(B4::from_u64(100)), Error);
  EXPECT_THROW(MontCtx<4>(B4::from_u64(1)), Error);
}

TEST(Prime, KnownSmallValues) {
  auto rng = test_rng();
  EXPECT_FALSE(is_probable_prime(B4::from_u64(0), rng));
  EXPECT_FALSE(is_probable_prime(B4::from_u64(1), rng));
  EXPECT_TRUE(is_probable_prime(B4::from_u64(2), rng));
  EXPECT_TRUE(is_probable_prime(B4::from_u64(3), rng));
  EXPECT_FALSE(is_probable_prime(B4::from_u64(4), rng));
  EXPECT_TRUE(is_probable_prime(B4::from_u64(65537), rng));
  EXPECT_FALSE(is_probable_prime(B4::from_u64(65537ull * 3), rng));
  // Carmichael number 561 = 3 * 11 * 17 must be rejected.
  EXPECT_FALSE(is_probable_prime(B4::from_u64(561), rng));
  // Large known prime (2^127 - 1, Mersenne).
  B4 m127 = sub(shl(B4::from_u64(1), 127), B4::from_u64(1));
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 is composite.
  B4 m128 = sub(shl(B4::from_u64(1), 128), B4::from_u64(1));
  EXPECT_FALSE(is_probable_prime(m128, rng));
}

TEST(Prime, EmbeddedCurveParametersArePrime) {
  auto rng = test_rng();
  auto q = BigInt<12>::from_hex("c02c6b9586b4625b475b51096c4ad652af3f5d79");
  EXPECT_TRUE(is_probable_prime(q, rng));
}

TEST(Prime, RandomPrimeHasRequestedSize) {
  auto rng = test_rng();
  B4 p = random_prime<4>(rng, 96, /*mr_rounds=*/20);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_odd());
}

TEST(Random, BelowIsUniformlyBounded) {
  auto rng = test_rng();
  B4 bound = B4::from_u64(1000);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(random_below(rng, bound), bound);
  }
  // Nonzero variant never returns zero.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(random_nonzero_below(rng, B4::from_u64(2)).is_zero());
  }
}

TEST(Random, BitsSetsTopBit) {
  auto rng = test_rng();
  for (size_t bits : {2u, 17u, 64u, 65u, 200u}) {
    EXPECT_EQ(random_bits<4>(rng, bits).bit_length(), bits);
  }
}

// Typed property tests: the arithmetic must hold at every limb width the
// repo instantiates (scalars, fields, RSW moduli, twist orders).
template <typename T>
class BigIntWidths : public ::testing::Test {};
using Widths = ::testing::Types<BigInt<2>, BigInt<4>, BigInt<8>, BigInt<12>,
                                BigInt<24>, BigInt<32>>;
TYPED_TEST_SUITE(BigIntWidths, Widths);

TYPED_TEST(BigIntWidths, DivmodReconstructionAtWidth) {
  auto rng = hashing::HmacDrbg(to_bytes("width-tests"));
  constexpr size_t kBits = TypeParam::kBits;
  for (int i = 0; i < 10; ++i) {
    TypeParam a = random_bits<TypeParam::kLimbs>(rng, kBits - 1);
    TypeParam b = random_bits<TypeParam::kLimbs>(rng, kBits / 2);
    TypeParam q, r;
    divmod(a, b, q, r);
    EXPECT_LT(r, b);
    // q*b + r == a, checked in double width.
    auto back = mul_wide(q, b);
    add_assign(back, r.template resized<2 * TypeParam::kLimbs>());
    EXPECT_EQ(back, (a.template resized<2 * TypeParam::kLimbs>()));
  }
}

TYPED_TEST(BigIntWidths, ShiftRoundtripAtWidth) {
  auto rng = hashing::HmacDrbg(to_bytes("width-shift"));
  TypeParam v = random_bits<TypeParam::kLimbs>(rng, TypeParam::kBits / 2);
  for (size_t s : {1u, 63u, 64u, 65u}) {
    if (s >= TypeParam::kBits / 2) continue;
    EXPECT_EQ(shr(shl(v, s), s), v);
  }
}

TYPED_TEST(BigIntWidths, MontgomeryMatchesSchoolbookAtWidth) {
  auto rng = hashing::HmacDrbg(to_bytes("width-mont"));
  TypeParam m = random_bits<TypeParam::kLimbs>(rng, TypeParam::kBits - 2);
  m.w[0] |= 1;
  MontCtx<TypeParam::kLimbs> mont(m);
  for (int i = 0; i < 10; ++i) {
    TypeParam a = random_below(rng, m);
    TypeParam b = random_below(rng, m);
    EXPECT_EQ(mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b))),
              mulmod(a, b, m));
  }
}

TEST(BigInt, ResizedChecksTruncation) {
  auto big = B8::from_hex("10000000000000000000000000000000000000000000000000"
                          "000000000000000");
  EXPECT_THROW((big.resized<4>()), Error);
  auto small = B8::from_u64(7);
  EXPECT_EQ((small.resized<4>()), B4::from_u64(7));
  EXPECT_EQ((small.resized<12>().resized<8>()), small);
}

}  // namespace
}  // namespace tre::bigint
