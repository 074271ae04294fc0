// Field axioms and square-root behaviour for F_p and F_p2.
#include "field/fp.h"

#include <gtest/gtest.h>

#include <vector>

#include "bls12/bls12.h"
#include "field/fp2.h"
#include "hashing/drbg.h"
#include "params/params.h"

namespace tre::field {
namespace {

// 96-bit toy prime p = 12*q*r - 1 (p ≡ 3 mod 4).
const char* kToyP = "9b725bbc4bc00b0f29aea58f";

class FpTest : public ::testing::Test {
 protected:
  FpTest() : ctx_(FpInt::from_hex(kToyP)), rng_(to_bytes("field-tests")) {}
  FpCtx ctx_;
  hashing::HmacDrbg rng_;
};

TEST_F(FpTest, ConstantsAndConversions) {
  EXPECT_TRUE(Fp::zero(&ctx_).is_zero());
  EXPECT_FALSE(Fp::one(&ctx_).is_zero());
  EXPECT_EQ(Fp::from_u64(&ctx_, 42).to_int(), FpInt::from_u64(42));
  // Reduction of values >= p.
  FpInt big = bigint::add(ctx_.p, FpInt::from_u64(5));
  EXPECT_EQ(Fp::from_int(&ctx_, big), Fp::from_u64(&ctx_, 5));
}

TEST_F(FpTest, BytesRoundtrip) {
  Fp a = Fp::random(&ctx_, rng_);
  EXPECT_EQ(Fp::from_bytes(&ctx_, a.to_bytes()), a);
  EXPECT_EQ(a.to_bytes().size(), ctx_.byte_len);
  // Unreduced canonical input is rejected.
  Bytes pb = ctx_.p.to_bytes_be(ctx_.byte_len);
  EXPECT_THROW(Fp::from_bytes(&ctx_, pb), Error);
}

TEST_F(FpTest, FromBytesWideReduces) {
  Bytes wide(2 * ctx_.byte_len, 0xff);
  Fp v = Fp::from_bytes_wide(&ctx_, wide);
  EXPECT_LT(v.to_int(), ctx_.p);
}

// The Montgomery-Horner wide reduction against the division oracle
// to_mont(mod_wide(v, p)), on every embedded field: base and scalar
// fields of each type-1 set and BLS12-381's p and r. Every input length
// from 0 to 2·byte_len (plus the 192-byte maximum) sees the low bytes of
// the edge values 0, p−1, p, k·p, p·R−1 and all-0xff, and random bytes.
TEST(FpWideReductionTest, MatchesModWideOnEmbeddedFields) {
  std::vector<const FpCtx*> fields;
  for (const auto& name : params::available()) {
    auto set = params::load(name);
    fields.push_back(set->curve->fp.get());
    fields.push_back(set->curve->fq.get());
  }
  auto bls = bls12::Bls12Ctx::get();
  fields.push_back(bls->fp());
  fields.push_back(bls->fr());
  ASSERT_GE(fields.size(), 8u);

  constexpr size_t kMaxBytes = 8 * FpIntWide::kLimbs;  // 192
  hashing::HmacDrbg rng(to_bytes("wide-reduction"));
  for (const FpCtx* f : fields) {
    const FpIntWide p = f->p.resized<FpIntWide::kLimbs>();
    const FpIntWide one = FpIntWide::from_u64(1);
    const size_t r_bits = 64 * f->mont.active_limbs();
    std::vector<FpIntWide> edges = {
        FpIntWide{},
        bigint::sub(p, one),
        p,
        bigint::mul_wide(f->p, bigint::BigInt<1>::from_u64(0x9e3779b97f4a7c15ull))
            .resized<FpIntWide::kLimbs>(),
        bigint::sub(bigint::shl(p, r_bits), one),
    };
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 2 * f->byte_len; ++len) lengths.push_back(len);
    lengths.push_back(kMaxBytes);
    for (size_t len : lengths) {
      std::vector<Bytes> inputs;
      for (const FpIntWide& v : edges) {
        Bytes full = v.to_bytes_be(kMaxBytes);
        inputs.emplace_back(full.end() - static_cast<std::ptrdiff_t>(len), full.end());
      }
      inputs.emplace_back(len, 0xff);
      inputs.push_back(rng.bytes(len));
      for (const Bytes& in : inputs) {
        FpInt want = bigint::mod_wide(FpIntWide::from_bytes_be(in), f->p);
        Fp got = Fp::from_bytes_wide(f, in);
        ASSERT_EQ(got.to_int(), want)
            << "p bits " << f->p.bit_length() << ", length " << len
            << ", input " << to_hex(in);
        ASSERT_EQ(got, Fp::from_int(f, want));
      }
    }
  }
}

TEST_F(FpTest, FieldAxioms) {
  for (int i = 0; i < 25; ++i) {
    Fp a = Fp::random(&ctx_, rng_);
    Fp b = Fp::random(&ctx_, rng_);
    Fp c = Fp::random(&ctx_, rng_);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Fp::zero(&ctx_), a);
    EXPECT_EQ(a * Fp::one(&ctx_), a);
    EXPECT_EQ(a + (-a), Fp::zero(&ctx_));
    EXPECT_EQ(a - b, a + (-b));
    EXPECT_EQ(a.squared(), a * a);
    EXPECT_EQ(a.doubled(), a + a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp::one(&ctx_));
    }
  }
}

TEST_F(FpTest, InverseOfZeroThrows) {
  EXPECT_THROW(Fp::zero(&ctx_).inverse(), Error);
}

TEST_F(FpTest, PowMatchesRepeatedMul) {
  Fp a = Fp::random(&ctx_, rng_);
  Fp acc = Fp::one(&ctx_);
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(a.pow(FpInt::from_u64(e)), acc);
    acc = acc * a;
  }
}

TEST_F(FpTest, FermatLittleTheorem) {
  FpInt p_minus_1 = bigint::sub(ctx_.p, FpInt::from_u64(1));
  for (int i = 0; i < 5; ++i) {
    Fp a = Fp::random(&ctx_, rng_);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(p_minus_1), Fp::one(&ctx_));
  }
}

TEST_F(FpTest, SqrtOfSquares) {
  for (int i = 0; i < 25; ++i) {
    Fp a = Fp::random(&ctx_, rng_);
    Fp sq = a.squared();
    auto root = sq.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
  }
}

TEST_F(FpTest, SqrtOfNonResidueFails) {
  // -1 is a non-residue when p ≡ 3 (mod 4).
  EXPECT_FALSE((-Fp::one(&ctx_)).sqrt().has_value());
}

TEST_F(FpTest, ContextMismatchThrows) {
  FpCtx other(FpInt::from_hex("fa08d6af57"));
  Fp a = Fp::one(&ctx_);
  Fp b = Fp::one(&other);
  EXPECT_THROW(a + b, Error);
  EXPECT_THROW(a * b, Error);
}

// ---------------------------------------------------------------------------

class Fp2Test : public FpTest {};

TEST_F(Fp2Test, ConstantsAndEmbedding) {
  EXPECT_TRUE(Fp2::zero(&ctx_).is_zero());
  EXPECT_TRUE(Fp2::one(&ctx_).is_one());
  Fp a = Fp::random(&ctx_, rng_);
  Fp2 e = Fp2::from_fp(a);
  EXPECT_EQ(e.re(), a);
  EXPECT_TRUE(e.im().is_zero());
}

TEST_F(Fp2Test, ISquaredIsMinusOne) {
  Fp2 i(Fp::zero(&ctx_), Fp::one(&ctx_));
  EXPECT_EQ(i.squared(), -Fp2::one(&ctx_));
  EXPECT_EQ(i * i, -Fp2::one(&ctx_));
}

TEST_F(Fp2Test, FieldAxioms) {
  auto rand2 = [&] { return Fp2(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_)); };
  for (int i = 0; i < 25; ++i) {
    Fp2 a = rand2(), b = rand2(), c = rand2();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.squared(), a * a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp2::one(&ctx_));
    }
  }
}

TEST_F(Fp2Test, ConjugationIsFrobenius) {
  // z^p == conj(z) for all z in F_p2 when p ≡ 3 (mod 4).
  Fp2 z(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  EXPECT_EQ(z.pow(ctx_.p), z.conjugate());
}

TEST_F(Fp2Test, NormMultiplicative) {
  Fp2 a(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  Fp2 b(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  EXPECT_EQ((a * b).norm(), a.norm() * b.norm());
}

TEST_F(Fp2Test, UnitaryInverseOnNormOne) {
  // Build a norm-1 element z = w^(p-1) and check conj == inverse.
  Fp2 w(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  Fp2 z = w.conjugate() * w.inverse();
  EXPECT_EQ(z.norm(), Fp::one(&ctx_));
  EXPECT_EQ(z * z.unitary_inverse(), Fp2::one(&ctx_));
}

TEST_F(Fp2Test, PowLaws) {
  Fp2 a(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  FpInt e1 = FpInt::from_u64(12345);
  FpInt e2 = FpInt::from_u64(6789);
  EXPECT_EQ(a.pow(e1) * a.pow(e2), a.pow(bigint::add(e1, e2)));
  EXPECT_EQ(a.pow(FpInt{}), Fp2::one(&ctx_));
}

TEST_F(Fp2Test, BytesRoundtrip) {
  Fp2 a(Fp::random(&ctx_, rng_), Fp::random(&ctx_, rng_));
  EXPECT_EQ(Fp2::from_bytes(&ctx_, a.to_bytes()), a);
  EXPECT_EQ(a.to_bytes().size(), 2 * ctx_.byte_len);
}

}  // namespace
}  // namespace tre::field
