// G1 on BLS12-381 against an independent oracle: the subgroup test on
// hostile points, the scalar ladders on edge scalars, pinned hash-to-G1
// outputs, and the batch hash against the single-message one.
//
// E(F_p) has order h1·r with h1 = 3·11²·10177²·859267²·52437899², so a
// decoder that only checks the curve equation accepts points carrying a
// small-order component. Every hostile point here lies on the curve but
// outside G1: raw try-and-increment points (no cofactor clearing),
// torsion points of each prime order dividing h1, and G1 + torsion sums.
//
// The oracle is a test-local textbook Jacobian double-and-add over the
// public Fp operations. It shares no kernel with bls12.cpp and does not
// use the endomorphism, so it is valid on every point of E(F_p).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bls12/tre381.h"
#include "hashing/drbg.h"

namespace tre::bls12 {
namespace {

constexpr std::uint64_t kAbsZ = 0xd201000000010000ull;
constexpr std::uint64_t kH1Primes[] = {3, 11, 10177, 859267, 52437899};

// Cohen–Miyaji–Ono Jacobian formulas for y² = x³ + b (z = 0 is infinity).
class Oracle {
 public:
  explicit Oracle(const Bls12Ctx& ctx) : fp_(ctx.fp()) {}

  template <size_t L>
  G1Point381 mul(const G1Point381& p, const bigint::BigInt<L>& k) const {
    Jac acc = infinity();
    if (p.inf) return to_affine(acc);
    Jac base{p.x, p.y, Fp::one(fp_)};
    for (size_t i = k.bit_length(); i-- > 0;) {
      acc = dbl(acc);
      if (k.bit(i)) acc = add(acc, base);
    }
    return to_affine(acc);
  }

  G1Point381 add(const G1Point381& a, const G1Point381& b) const {
    auto lift = [&](const G1Point381& q) {
      return q.inf ? infinity() : Jac{q.x, q.y, Fp::one(fp_)};
    };
    return to_affine(add(lift(a), lift(b)));
  }

 private:
  struct Jac {
    Fp x, y, z;
  };

  Jac infinity() const { return Jac{Fp::one(fp_), Fp::one(fp_), Fp::zero(fp_)}; }

  Jac dbl(const Jac& p) const {
    if (p.z.is_zero() || p.y.is_zero()) return infinity();
    Fp yy = p.y.squared();
    Fp s = p.x * yy;
    s = s.doubled().doubled();
    Fp xx = p.x.squared();
    Fp m = xx.doubled() + xx;
    Fp x3 = m.squared() - s.doubled();
    Fp y4 = yy.squared();
    Fp y4_8 = y4.doubled().doubled().doubled();
    Fp y3 = m * (s - x3) - y4_8;
    Fp z3 = (p.y * p.z).doubled();
    return Jac{x3, y3, z3};
  }

  Jac add(const Jac& a, const Jac& b) const {
    if (a.z.is_zero()) return b;
    if (b.z.is_zero()) return a;
    Fp za2 = a.z.squared();
    Fp zb2 = b.z.squared();
    Fp u1 = a.x * zb2;
    Fp u2 = b.x * za2;
    Fp s1 = a.y * zb2 * b.z;
    Fp s2 = b.y * za2 * a.z;
    if (u1 == u2) return s1 == s2 ? dbl(a) : infinity();
    Fp h = u2 - u1;
    Fp rr = s2 - s1;
    Fp h2 = h.squared();
    Fp h3 = h * h2;
    Fp u1h2 = u1 * h2;
    Fp x3 = rr.squared() - h3 - u1h2.doubled();
    Fp y3 = rr * (u1h2 - x3) - s1 * h3;
    Fp z3 = h * a.z * b.z;
    return Jac{x3, y3, z3};
  }

  G1Point381 to_affine(const Jac& j) const {
    if (j.z.is_zero()) return G1Point381{Fp::zero(fp_), Fp::zero(fp_), true};
    Fp zi = j.z.inverse();
    Fp zi2 = zi.squared();
    return G1Point381{j.x * zi2, j.y * zi2 * zi, false};
  }

  const FpCtx* fp_;
};

class G1Fixture : public ::testing::Test {
 protected:
  G1Fixture() : ctx_(Bls12Ctx::get()), oracle_(*ctx_), rng_(to_bytes("bls381-g1-oracle")) {}

  /// A uniformly random point of E(F_p), cofactor NOT cleared.
  G1Point381 raw_point() {
    for (;;) {
      Fp x = Fp::random(ctx_->fp(), rng_);
      auto y = (x.squared() * x + Fp::from_u64(ctx_->fp(), 4)).sqrt();
      if (y) return G1Point381{x, *y, false};
    }
  }

  /// #E(F_p) = p + 1 − t with t = z + 1, i.e. p + |z|.
  FpInt curve_order() const { return bigint::add(ctx_->p(), FpInt::from_u64(kAbsZ)); }

  /// A nonzero point killed by `order`, taken as [#E/order]·R.
  G1Point381 torsion_point(const FpInt& order) {
    FpInt cof, rem;
    bigint::divmod(curve_order(), order, cof, rem);
    EXPECT_TRUE(rem.is_zero());
    for (int tries = 0; tries < 64; ++tries) {
      G1Point381 t = oracle_.mul(raw_point(), cof);
      if (t.inf) continue;
      EXPECT_TRUE(oracle_.mul(t, order).inf);
      return t;
    }
    ADD_FAILURE() << "no point of order dividing " << order.to_hex();
    return ctx_->g1_infinity();
  }

  /// For each prime ℓ | h1: a point of order exactly ℓ and, for the
  /// squared primes, one of order dividing ℓ² (whether the ℓ-part is
  /// cyclic or not). Then the order-3 inflection points (0, ±2) and an
  /// h1-torsion point [r]·R with every small component mixed in.
  std::vector<G1Point381> torsion_points() {
    std::vector<G1Point381> out;
    for (std::uint64_t l : kH1Primes) {
      FpInt ell = FpInt::from_u64(l);
      if (l == 3) {
        out.push_back(torsion_point(ell));
        continue;
      }
      G1Point381 t2 = torsion_point(FpInt::from_u64(l * l));
      G1Point381 t1 = oracle_.mul(t2, ell);
      out.push_back(t1.inf ? t2 : t1);
      if (!t1.inf) out.push_back(t2);
    }
    Fp two = Fp::from_u64(ctx_->fp(), 2);
    out.push_back(G1Point381{Fp::zero(ctx_->fp()), two, false});
    out.push_back(G1Point381{Fp::zero(ctx_->fp()), -two, false});
    out.push_back(oracle_.mul(raw_point(), ctx_->r()));
    return out;
  }

  std::shared_ptr<const Bls12Ctx> ctx_;
  Oracle oracle_;
  hashing::HmacDrbg rng_;
};

// --- hostile points ----------------------------------------------------------

TEST_F(G1Fixture, HostilePointsAreRejectedEverywhere) {
  std::vector<G1Point381> hostile = torsion_points();
  const size_t n_torsion = hostile.size();
  for (int i = 0; i < 8; ++i) hostile.push_back(raw_point());
  G1Point381 h = ctx_->hash_to_g1(to_bytes("hostile-base"));
  for (size_t i = 0; i < n_torsion; ++i) hostile.push_back(oracle_.add(h, hostile[i]));

  for (size_t i = 0; i < hostile.size(); ++i) {
    const G1Point381& p = hostile[i];
    SCOPED_TRACE("hostile point " + std::to_string(i));
    ASSERT_TRUE(ctx_->g1_on_curve(p));
    ASSERT_FALSE(oracle_.mul(p, ctx_->r()).inf);  // really outside G1
    EXPECT_FALSE(ctx_->g1_in_subgroup(p));
    Bytes wire = ctx_->g1_to_bytes(p);
    EXPECT_THROW((void)ctx_->g1_from_bytes(wire), Error);
    Update381 forged{"2030-01-01T00:00:00Z", p};
    EXPECT_FALSE(Update381::try_from_bytes(*ctx_, forged.to_bytes()).has_value());
  }

  // The same paths accept the subgroup points they are mixed from.
  EXPECT_TRUE(ctx_->g1_in_subgroup(h));
  EXPECT_TRUE(ctx_->g1_eq(ctx_->g1_from_bytes(ctx_->g1_to_bytes(h)), h));
  Update381 genuine{"2030-01-01T00:00:00Z", h};
  EXPECT_TRUE(Update381::try_from_bytes(*ctx_, genuine.to_bytes()).has_value());
  EXPECT_TRUE(ctx_->g1_in_subgroup(ctx_->g1_infinity()));
}

TEST_F(G1Fixture, SubgroupTestAgreesWithOrderMultiplication) {
  std::vector<G1Point381> torsion = torsion_points();
  std::vector<G1Point381> pts;
  for (int i = 0; i < 400; ++i) pts.push_back(raw_point());
  G1Point381 g = ctx_->hash_to_g1(to_bytes("agreement-walk"));
  for (int i = 0; i < 300; ++i) {
    pts.push_back(g);
    pts.push_back(oracle_.add(g, torsion[static_cast<size_t>(i) % torsion.size()]));
    g = oracle_.add(g, ctx_->g1_generator());
  }
  ASSERT_GE(pts.size(), 1000u);
  size_t members = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    bool expected = oracle_.mul(pts[i], ctx_->r()).inf;
    members += expected ? 1 : 0;
    ASSERT_EQ(ctx_->g1_in_subgroup(pts[i]), expected) << "point " << i;
  }
  EXPECT_EQ(members, 300u);
}

// --- scalar multiplication on G1 ---------------------------------------------

TEST_F(G1Fixture, LaddersMatchOracleOnEdgeScalars) {
  const FpInt& r = ctx_->r();
  FpInt z2 = bigint::mul_wide(FpInt::from_u64(kAbsZ), FpInt::from_u64(kAbsZ))
                 .resized<field::kMaxFieldLimbs>();
  FpInt one = FpInt::from_u64(1);
  std::vector<Scalar> scalars = {
      FpInt{},
      one,
      FpInt::from_u64(2),
      bigint::sub(z2, one),
      z2,
      bigint::add(z2, one),
      bigint::sub(r, z2),
      bigint::sub(r, one),
      r,                                  // ≡ 0
      bigint::add(r, FpInt::from_u64(7)), // ≡ 7
      bigint::sub(bigint::shl(one, 128), one),
      bigint::shl(one, 128),
      bigint::add(bigint::shl(one, 400), FpInt::from_u64(5)),  // ≫ r
  };
  for (int i = 0; i < 24; ++i) scalars.push_back(ctx_->random_scalar(rng_));

  std::vector<G1Point381> bases = {ctx_->g1_generator(),
                                   ctx_->hash_to_g1(to_bytes("glv-edge")),
                                   oracle_.mul(ctx_->g1_generator(), z2)};
  for (const G1Point381& p : bases) {
    for (size_t i = 0; i < scalars.size(); ++i) {
      SCOPED_TRACE("scalar " + std::to_string(i));
      G1Point381 want = oracle_.mul(p, scalars[i]);
      Bytes want_bytes = ctx_->g1_to_bytes(want);
      EXPECT_EQ(ctx_->g1_to_bytes(ctx_->g1_mul(p, scalars[i])), want_bytes);
      EXPECT_EQ(ctx_->g1_to_bytes(ctx_->g1_mul_secret(p, scalars[i])), want_bytes);
    }
  }
  for (const Scalar& k : scalars) {
    EXPECT_TRUE(ctx_->g1_mul(ctx_->g1_infinity(), k).inf);
    EXPECT_TRUE(ctx_->g1_mul_secret(ctx_->g1_infinity(), k).inf);
  }
}

TEST_F(G1Fixture, HashToG1MatchesPinnedVectors) {
  // Captured from the generic-ladder implementation: any change to the
  // square root, the sign choice or the cofactor clearing shows here.
  struct Vec {
    const char* msg;
    const char* hex;
  };
  const Vec vecs[] = {
      {"", "03146ffa01da2098153d49f62849213522f2121ba8b5c210388efc2c80625e732e484d99778a30b235a35c0f90507e00de"},
      {"a", "0216776982e8dbc4f6a05c8d27367d5526743f29dffb0d1ad713620c6cc12266a8013c9c36b01bd63a9405095af86057c1"},
      {"2030-01-01T00:00:00Z", "02026593f031c6748882022a2b58bc855fcafd91dedc592134d8b324253da2ccf800a158585cc9d724e4bb1f65a47328ef"},
      {"epoch-4095", "021879160876cc6b8e77fe0d3d7af6999073b211e816d97fbd222059ad8655a8a14bad00f42c33e713c33495e8e1861243"},
      {"hash_to_g1 pinned vector 5", "0200c78793f84bd79725704c2f8260fc36f8a70c0370af88d7ffd6c08457e2e9f494897618ccc82d90c094778e2dbada83"},
  };
  for (const Vec& v : vecs) {
    G1Point381 h = ctx_->hash_to_g1(to_bytes(v.msg));
    EXPECT_EQ(to_hex(ctx_->g1_to_bytes(h)), v.hex) << "msg=\"" << v.msg << "\"";
    EXPECT_TRUE(oracle_.mul(h, ctx_->r()).inf);
  }
}

TEST_F(G1Fixture, HashToG1BatchMatchesPerItem) {
  // The batch shares one affine inversion across its points; every
  // output must still equal hash_to_g1 of its message, repeats included.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{513}}) {
    std::vector<Bytes> msgs;
    for (size_t i = 0; i < n; ++i) {
      // n = 2 hashes one message twice; n = 513 repeats every message
      // below 256 and starts with the pinned empty-message vector.
      msgs.push_back(n == 2 ? to_bytes("twice")
                     : i == 0 ? Bytes{}
                              : to_bytes("batch-" + std::to_string(i % 256)));
    }
    std::vector<ByteSpan> spans(msgs.begin(), msgs.end());
    std::vector<G1Point381> batch = ctx_->hash_to_g1_batch(spans);
    ASSERT_EQ(batch.size(), n);
    for (size_t i = 0; i < n; ++i) {
      G1Point381 single = ctx_->hash_to_g1(msgs[i]);
      ASSERT_FALSE(batch[i].inf) << "n=" << n << " i=" << i;
      ASSERT_TRUE(ctx_->g1_eq(batch[i], single)) << "n=" << n << " i=" << i;
      ASSERT_EQ(ctx_->g1_to_bytes(batch[i]), ctx_->g1_to_bytes(single));
    }
  }
  G1Point381 empty = ctx_->hash_to_g1_batch(std::vector<ByteSpan>{ByteSpan{}}).front();
  EXPECT_EQ(to_hex(ctx_->g1_to_bytes(empty)),
            "03146ffa01da2098153d49f62849213522f2121ba8b5c210388efc2c80625e732e484d99778a30b235a35c0f90507e00de");
}

}  // namespace
}  // namespace tre::bls12
