// Pippenger multi-exponentiation and randomized batch verification.
//
// The acceptance bar has two halves. Correctness: the bucketed
// multi-exp must equal the naive Σ kᵢ·Pᵢ on every edge the engine
// special-cases (empty batch, zero scalars, repeated and infinity
// points), on BOTH backends. Soundness under hostility: an RLC batch
// hiding 1, 2, or ⌈N/2⌉ forged/relabeled updates must bisect to
// EXACTLY the guilty set — zero forged accepts, zero honest drops —
// and the advertised 2^-rlc_bits soundness error must be measurable
// when the scalar width is deliberately crippled.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bls12/tre381.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "obs/metrics.h"

namespace tre {
namespace {

// Per-backend glue the generic tests need: how to build a scheme, and
// the naive Gu add / public-scalar multiply behind the reference sums
// (the policy has neither — the scheme only multiplies through the
// secret-scalar ladders and the multi-exp engine under test).
template <class B>
struct Glue;

template <>
struct Glue<core::Tre512Backend> {
  static core::TreScheme scheme() {
    return core::TreScheme(params::load("tre-toy-96"));
  }
  static ec::G1Point add(const params::GdhParams&, const ec::G1Point& a,
                         const ec::G1Point& b) {
    return a + b;
  }
  static ec::G1Point mul(const params::GdhParams&, const ec::G1Point& q,
                         const core::Scalar& k) {
    return q.mul(k);
  }
};

template <>
struct Glue<bls12::Bls381Backend> {
  static bls12::Tre381Scheme scheme() { return bls12::make_tre381(); }
  static bls12::G1Point381 add(const bls12::Bls12Ctx& p,
                               const bls12::G1Point381& a,
                               const bls12::G1Point381& b) {
    return p.g1_add(a, b);
  }
  static bls12::G1Point381 mul(const bls12::Bls12Ctx& p, const bls12::G1Point381& q,
                               const core::Scalar& k) {
    return p.g1_mul(q, k);
  }
};

template <class B>
class BatchVerifyTest : public ::testing::Test {
 protected:
  BatchVerifyTest()
      : scheme_(Glue<B>::scheme()),
        rng_(to_bytes("batch-verify-rng")),
        server_(scheme_.server_keygen(rng_)) {}

  std::string tag_for(size_t i) { return "T" + std::to_string(i); }

  std::vector<core::BasicKeyUpdate<B>> honest(size_t n) {
    std::vector<std::string> tags;
    for (size_t i = 0; i < n; ++i) tags.push_back(tag_for(i));
    return scheme_.issue_updates(server_, tags);
  }

  core::BasicTreScheme<B> scheme_;
  hashing::HmacDrbg rng_;
  core::BasicServerKeyPair<B> server_;
};

using Backends = ::testing::Types<core::Tre512Backend, bls12::Bls381Backend>;
TYPED_TEST_SUITE(BatchVerifyTest, Backends);

// --- multi-exponentiation ----------------------------------------------------

TYPED_TEST(BatchVerifyTest, MultiexpMatchesNaiveSum) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{17}, size_t{64}}) {
    std::vector<typename B::Gu> pts;
    std::vector<core::Scalar> ks;
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(this->scheme_.hash_tag("P" + std::to_string(i)));
      ks.push_back(B::random_scalar(p, this->rng_));
    }
    typename B::Gu want = Glue<B>::mul(p, pts[0], ks[0]);
    for (size_t i = 1; i < n; ++i) {
      want = Glue<B>::add(p, want, Glue<B>::mul(p, pts[i], ks[i]));
    }
    typename B::Gu got = B::gu_multiexp(
        p, std::span<const typename B::Gu>(pts),
        std::span<const core::Scalar>(ks), /*threads=*/0);
    EXPECT_TRUE(B::gu_eq(want, got)) << "n=" << n;
  }
}

TYPED_TEST(BatchVerifyTest, MultiexpHandlesEdgeCases) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();

  // Empty batch: identity.
  EXPECT_TRUE(B::gu_is_infinity(
      B::gu_multiexp(p, std::span<const typename B::Gu>(),
                     std::span<const core::Scalar>(), 0)));

  typename B::Gu g = this->scheme_.hash_tag("edge");
  typename B::Gu inf = Glue<B>::mul(p, g, B::scalar_field(p)->p);  // q·G = O
  ASSERT_TRUE(B::gu_is_infinity(inf));

  // Zero scalars and infinity points drop out; repeated points combine.
  std::vector<typename B::Gu> pts = {g, inf, g, g};
  std::vector<core::Scalar> ks = {
      core::Scalar::from_u64(5), core::Scalar::from_u64(7),
      core::Scalar::from_u64(0), core::Scalar::from_u64(9)};
  typename B::Gu got = B::gu_multiexp(p, std::span<const typename B::Gu>(pts),
                                      std::span<const core::Scalar>(ks), 0);
  typename B::Gu want = Glue<B>::mul(p, g, core::Scalar::from_u64(14));
  EXPECT_TRUE(B::gu_eq(want, got));

  // All-zero scalars: identity.
  std::vector<core::Scalar> zeros(4, core::Scalar::from_u64(0));
  EXPECT_TRUE(B::gu_is_infinity(
      B::gu_multiexp(p, std::span<const typename B::Gu>(pts),
                     std::span<const core::Scalar>(zeros), 0)));

  // Serial and pooled execution agree.
  typename B::Gu serial = B::gu_multiexp(
      p, std::span<const typename B::Gu>(pts),
      std::span<const core::Scalar>(ks), /*threads=*/1);
  EXPECT_TRUE(B::gu_eq(got, serial));
}

// --- batch verification ------------------------------------------------------

TYPED_TEST(BatchVerifyTest, AcceptsHonestBatches) {
  using B = TypeParam;
  for (size_t n : {size_t{1}, size_t{2}, size_t{32}}) {
    std::vector<core::BasicKeyUpdate<B>> updates = this->honest(n);
    EXPECT_TRUE(this->scheme_
                    .verify_updates_batch(this->server_.pub, updates,
                                          this->rng_)
                    .empty())
        << "n=" << n;
  }
  std::vector<core::BasicKeyUpdate<B>> empty;
  EXPECT_TRUE(this->scheme_
                  .verify_updates_batch(this->server_.pub, empty, this->rng_)
                  .empty());
}

TYPED_TEST(BatchVerifyTest, BisectsToExactlyTheGuiltySet) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();
  const size_t n = 32;
  for (size_t forged_count : {size_t{1}, size_t{2}, n / 2}) {
    std::vector<core::BasicKeyUpdate<B>> updates = this->honest(n);
    std::vector<size_t> guilty;
    for (size_t k = 0; k < forged_count; ++k) {
      size_t idx = (7 * k + 3) % n;
      switch (k % 3) {
        case 0:  // wrong point: sig doubled, still in the subgroup
          updates[idx].sig =
              Glue<B>::mul(p, updates[idx].sig, core::Scalar::from_u64(2));
          break;
        case 1:  // relabel: honest sig presented under a foreign tag
          updates[idx].tag = "relabeled-" + std::to_string(k);
          break;
        default:  // substitution: another tag's honest sig
          updates[idx].sig = this->scheme_.hash_tag("alien");
          break;
      }
      guilty.push_back(idx);
    }
    std::sort(guilty.begin(), guilty.end());
    std::vector<size_t> bad = this->scheme_.verify_updates_batch(
        this->server_.pub, updates, this->rng_);
    EXPECT_EQ(bad, guilty) << "forged_count=" << forged_count;
    // Zero forged accepts AND zero honest drops, per item.
    for (size_t i = 0; i < n; ++i) {
      bool flagged = std::binary_search(bad.begin(), bad.end(), i);
      EXPECT_EQ(this->scheme_.verify_update(this->server_.pub, updates[i]),
                !flagged)
          << "i=" << i;
    }
  }
}

TYPED_TEST(BatchVerifyTest, FlagsInfinitySignatures) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();
  std::vector<core::BasicKeyUpdate<B>> updates = this->honest(6);
  updates[4].sig = Glue<B>::mul(p, updates[4].sig, B::scalar_field(p)->p);
  ASSERT_TRUE(B::gu_is_infinity(updates[4].sig));
  std::vector<size_t> bad = this->scheme_.verify_updates_batch(
      this->server_.pub, updates, this->rng_);
  EXPECT_EQ(bad, std::vector<size_t>{4});
}

// The page-batched H1 inside verify_updates_batch must be invisible:
// same points, same bad-index set, and the same tag-cache hit/miss
// counts as hashing the page one tag at a time, on a page with repeated
// tags and one tag the cache already holds.
TYPED_TEST(BatchVerifyTest, BatchHashingMatchesPerItemHashing) {
  using B = TypeParam;
  const auto& p = this->scheme_.params();
  std::vector<core::BasicKeyUpdate<B>> issued = this->honest(8);
  std::vector<core::BasicKeyUpdate<B>> page;
  for (size_t i : {0, 1, 2, 3, 1, 4, 0, 5, 6, 2, 7, 3}) page.push_back(issued[i]);
  std::vector<std::string_view> tags;
  for (const auto& u : page) tags.push_back(u.tag);
  const std::string warm = page[3].tag;

  const std::string prefix = B::kProbePrefix;
  auto counts = [&] {
    const auto& reg = obs::Registry::global();
    return std::pair{reg.counter_value(prefix + "cache.tags.hit"),
                     reg.counter_value(prefix + "cache.tags.miss")};
  };
  auto delta = [](std::pair<std::uint64_t, std::uint64_t> before,
                  std::pair<std::uint64_t, std::uint64_t> after) {
    return std::pair{after.first - before.first, after.second - before.second};
  };

  // Reference: per-item hashing on a fresh scheme holding the warm tag.
  core::BasicTreScheme<B> ref = Glue<B>::scheme();
  (void)ref.hash_tag(warm);
  auto c0 = counts();
  std::vector<typename B::Gu> want;
  for (std::string_view t : tags) want.push_back(ref.hash_tag(t));
  const auto want_counts = delta(c0, counts());
  EXPECT_EQ(want_counts.second, obs::kEnabled ? 7u : 0u);  // 8 distinct tags, one warm

  // hash_tags: the same points and counts.
  core::BasicTreScheme<B> batch = Glue<B>::scheme();
  (void)batch.hash_tag(warm);
  c0 = counts();
  std::vector<typename B::Gu> got = batch.hash_tags(tags);
  EXPECT_EQ(delta(c0, counts()), want_counts);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_TRUE(B::gu_eq(got[i], want[i])) << i;
  EXPECT_TRUE(batch.hash_tags({}).empty());

  // An honest page: verify_updates_batch hashes it once, as one batch.
  core::BasicTreScheme<B> verifier = Glue<B>::scheme();
  (void)verifier.hash_tag(warm);
  c0 = counts();
  EXPECT_TRUE(verifier.verify_updates_batch(this->server_.pub, page, this->rng_).empty());
  EXPECT_EQ(delta(c0, counts()), want_counts);

  // A forged page: the bad set equals per-item verification.
  page[2].sig = Glue<B>::mul(p, page[2].sig, core::Scalar::from_u64(3));
  page[7].tag = "relabeled";
  page[9].sig = page[1].sig;  // a repeated tag carrying another tag's sig
  std::vector<size_t> expect_bad;
  for (size_t i = 0; i < page.size(); ++i) {
    if (!ref.verify_update(this->server_.pub, page[i])) expect_bad.push_back(i);
  }
  EXPECT_EQ(expect_bad, (std::vector<size_t>{2, 7, 9}));
  core::BasicTreScheme<B> fresh = Glue<B>::scheme();
  EXPECT_EQ(fresh.verify_updates_batch(this->server_.pub, page, this->rng_), expect_bad);
}

// --- soundness-error bound ---------------------------------------------------

// With rlc_bits = λ the RLC accepts a forged batch iff the forged item's
// scalar annihilates its offset mod the group order — probability
// exactly 2^-λ for uniform scalars. λ = 2 makes that 1/4, large enough
// to measure in a few hundred trials; λ = 16 already pushes a false
// accept out of reach of this test's lifetime. (Default is 128.)
TEST(BatchSoundness, CrippledScalarWidthShowsTheBound) {
  core::TreScheme scheme(params::load("tre-toy-96"));
  hashing::HmacDrbg rng(to_bytes("soundness-rng"));
  core::ServerKeyPair server = scheme.server_keygen(rng);

  core::KeyUpdate good = scheme.issue_update(server, "T-good");
  core::KeyUpdate forged = scheme.issue_update(server, "T-forged");
  forged.sig = forged.sig + forged.sig;  // off by a factor of 2
  std::vector<core::KeyUpdate> batch = {good, forged};

  const int kTrials = 400;
  int false_accepts = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<size_t> bad =
        scheme.verify_updates_batch(server.pub, batch, rng, /*rlc_bits=*/2);
    if (bad.empty()) {
      ++false_accepts;
    } else {
      // When the RLC does fire, attribution is still exact.
      EXPECT_EQ(bad, std::vector<size_t>{1});
    }
  }
  // Binomial(400, 1/4): mean 100, σ ≈ 8.7. ±4.6σ keeps flake odds
  // negligible while still pinning the error to the predicted decade.
  EXPECT_GT(false_accepts, 60);
  EXPECT_LT(false_accepts, 140);

  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(scheme.verify_updates_batch(server.pub, batch, rng,
                                          /*rlc_bits=*/16),
              std::vector<size_t>{1});
  }
}

}  // namespace
}  // namespace tre
