// Missing-update resilience (§6 future work): fallback chains,
// disjunctive locking and the multi-granularity server.
#include "timeserver/resilient.h"

#include <gtest/gtest.h>

#include "hashing/drbg.h"
#include "timeserver/timeserver.h"

namespace tre::server {
namespace {

class ResilientTest : public ::testing::Test {
 protected:
  ResilientTest()
      : params_(params::load("tre-toy-96")),
        res_(params_),
        scheme_(params_),
        rng_(to_bytes("resilient-tests")),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)) {}

  std::shared_ptr<const params::GdhParams> params_;
  ResilientTre res_;
  core::TreScheme scheme_;
  hashing::HmacDrbg rng_;
  core::ServerKeyPair server_;
  core::UserKeyPair user_;
};

// --- fallback_chain ---------------------------------------------------------

TEST_F(ResilientTest, ChainFromSecondGranularity) {
  auto release = *TimeSpec::parse("2005-06-06T09:00:30Z");
  auto chain = fallback_chain(release);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0].canonical(), "2005-06-06T09:00:30Z");
  EXPECT_EQ(chain[1].canonical(), "2005-06-06T09:01Z");
  EXPECT_EQ(chain[2].canonical(), "2005-06-06T10Z");
  EXPECT_EQ(chain[3].canonical(), "2005-06-07");
  // Never earlier than the release.
  for (const auto& t : chain) EXPECT_GE(t.unix_seconds(), release.unix_seconds());
}

TEST_F(ResilientTest, ChainOnExactBoundaries) {
  // Release exactly at midnight: every coarser boundary is that instant.
  auto release = *TimeSpec::parse("2005-06-07T00:00:00Z");
  auto chain = fallback_chain(release);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[1].canonical(), "2005-06-07T00:00Z");
  EXPECT_EQ(chain[2].canonical(), "2005-06-07T00Z");
  EXPECT_EQ(chain[3].canonical(), "2005-06-07");
  for (const auto& t : chain) EXPECT_EQ(t.unix_seconds(), release.unix_seconds());
}

TEST_F(ResilientTest, ChainRespectsCoarsestBound) {
  auto release = *TimeSpec::parse("2005-06-06T09:00:30Z");
  auto chain = fallback_chain(release, Granularity::kHour);
  ASSERT_EQ(chain.size(), 3u);  // second, minute, hour
  EXPECT_EQ(chain.back().canonical(), "2005-06-06T10Z");
}

TEST_F(ResilientTest, ChainFromDayIsSingleton) {
  auto release = *TimeSpec::parse("2005-06-06");
  auto chain = fallback_chain(release);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].canonical(), "2005-06-06");
}

TEST_F(ResilientTest, ChainRejectsInvertedBounds) {
  auto release = *TimeSpec::parse("2005-06-06");
  EXPECT_THROW(fallback_chain(release, Granularity::kSecond), Error);
}

TEST_F(ResilientTest, ChainAcrossYearBoundary) {
  // One second before new year: every coarser granule rounds into 2006.
  auto release = *TimeSpec::parse("2005-12-31T23:59:59Z");
  auto chain = fallback_chain(release);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0].canonical(), "2005-12-31T23:59:59Z");
  EXPECT_EQ(chain[1].canonical(), "2006-01-01T00:00Z");
  EXPECT_EQ(chain[2].canonical(), "2006-01-01T00Z");
  EXPECT_EQ(chain[3].canonical(), "2006-01-01");
}

TEST_F(ResilientTest, ChainAcrossMonthAndLeapBoundaries) {
  // June has 30 days; the day-level fallback is July 1st.
  auto june = fallback_chain(*TimeSpec::parse("2005-06-30T23:59:59Z"));
  EXPECT_EQ(june.back().canonical(), "2005-07-01");
  // 2004 is a leap year: the day after Feb 28 is Feb 29, not Mar 1.
  auto leap = fallback_chain(*TimeSpec::parse("2004-02-28T23:59:59Z"));
  EXPECT_EQ(leap.back().canonical(), "2004-02-29");
  // 2005 is not: the same civil instant rounds to Mar 1.
  auto plain = fallback_chain(*TimeSpec::parse("2005-02-28T23:59:59Z"));
  EXPECT_EQ(plain.back().canonical(), "2005-03-01");
}

TEST_F(ResilientTest, ChainWithCoarsestEqualToReleaseGranularity) {
  // Degenerate but legal: no coarser levels requested — the chain is
  // just the release tag itself, at any granularity.
  auto minute = *TimeSpec::parse("2005-06-06T09:07Z");
  auto chain = fallback_chain(minute, Granularity::kMinute);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].canonical(), "2005-06-06T09:07Z");
}

TEST_F(ResilientTest, ChainMonotonicInvariantSweep) {
  // For a spread of release instants (boundaries, near-boundaries,
  // arbitrary offsets): instants never decrease along the chain, never
  // precede the release, and granularity strictly coarsens.
  const std::int64_t kDaySecs = 86400;
  std::vector<std::int64_t> sweep;
  for (std::int64_t base : {std::int64_t{0}, std::int64_t{1117990830},
                            std::int64_t{1135036799}, std::int64_t{951868799}}) {
    for (std::int64_t off : {std::int64_t{-1}, std::int64_t{0}, std::int64_t{1},
                             std::int64_t{59}, std::int64_t{3599},
                             kDaySecs - 1}) {
      if (base + off >= 0) sweep.push_back(base + off);
    }
  }
  for (std::int64_t s : sweep) {
    TimeSpec release = TimeSpec::from_unix(s, Granularity::kSecond);
    auto chain = fallback_chain(release);
    ASSERT_EQ(chain.size(), 4u) << s;
    for (size_t i = 0; i < chain.size(); ++i) {
      EXPECT_GE(chain[i].unix_seconds(), release.unix_seconds())
          << "unix " << s << " level " << i << " precedes the release";
      if (i > 0) {
        EXPECT_GE(chain[i].unix_seconds(), chain[i - 1].unix_seconds())
            << "unix " << s << " level " << i << " decreased";
        EXPECT_LT(static_cast<int>(chain[i].granularity()),
                  static_cast<int>(chain[i - 1].granularity()))
            << "unix " << s << " level " << i << " did not coarsen";
      }
    }
  }
}

// --- encryption/decryption ---------------------------------------------------

TEST_F(ResilientTest, DecryptsWithExactUpdate) {
  auto release = *TimeSpec::parse("2005-06-06T09:00:30Z");
  Bytes msg = to_bytes("resilient message");
  auto ct = res_.encrypt(msg, user_.pub, server_.pub, release, rng_);
  core::KeyUpdate exact = scheme_.issue_update(server_, "2005-06-06T09:00:30Z");
  EXPECT_EQ(res_.decrypt(ct, user_.a, exact), msg);
}

TEST_F(ResilientTest, DecryptsWithEveryFallbackLevel) {
  auto release = *TimeSpec::parse("2005-06-06T09:00:30Z");
  Bytes msg = to_bytes("resilient message");
  auto ct = res_.encrypt(msg, user_.pub, server_.pub, release, rng_);
  for (const char* tag : {"2005-06-06T09:01Z", "2005-06-06T10Z", "2005-06-07"}) {
    core::KeyUpdate upd = scheme_.issue_update(server_, tag);
    EXPECT_EQ(res_.decrypt(ct, user_.a, upd), msg) << tag;
  }
}

TEST_F(ResilientTest, RejectsUnrelatedUpdate) {
  auto release = *TimeSpec::parse("2005-06-06T09:00:30Z");
  auto ct = res_.encrypt(to_bytes("m"), user_.pub, server_.pub, release, rng_);
  // An earlier minute (before the release) is not in the chain.
  core::KeyUpdate early = scheme_.issue_update(server_, "2005-06-06T09:00Z");
  EXPECT_THROW(res_.decrypt(ct, user_.a, early), Error);
}

TEST_F(ResilientTest, WrongSecretYieldsGarbage) {
  auto release = *TimeSpec::parse("2005-06-06T09:00:30Z");
  Bytes msg = to_bytes("m");
  auto ct = res_.encrypt(msg, user_.pub, server_.pub, release, rng_);
  core::KeyUpdate exact = scheme_.issue_update(server_, "2005-06-06T09:00:30Z");
  core::UserKeyPair eve = scheme_.user_keygen(server_.pub, rng_);
  EXPECT_NE(res_.decrypt(ct, eve.a, exact), msg);
}

TEST_F(ResilientTest, SerializationRoundtrip) {
  auto release = *TimeSpec::parse("2005-06-06T09:00:30Z");
  Bytes msg = to_bytes("wire format");
  auto ct = res_.encrypt(msg, user_.pub, server_.pub, release, rng_);
  auto ct2 = core::AnyCiphertext::from_bytes(*params_, ct.to_bytes());
  core::KeyUpdate upd = scheme_.issue_update(server_, "2005-06-07");
  EXPECT_EQ(res_.decrypt(ct2, user_.a, upd), msg);
  // Truncation rejected.
  Bytes enc = ct.to_bytes();
  EXPECT_THROW(core::AnyCiphertext::from_bytes(*params_,
                                               ByteSpan(enc.data(), enc.size() - 1)),
               Error);
}

TEST_F(ResilientTest, CiphertextGrowsOneWrapPerLevel) {
  auto release = *TimeSpec::parse("2005-06-06T09:00:30Z");
  Bytes msg(64, 0xaa);
  auto full = res_.encrypt(msg, user_.pub, server_.pub, release, rng_);
  auto hour = res_.encrypt(msg, user_.pub, server_.pub, release, rng_,
                           Granularity::kHour);
  EXPECT_EQ(full.wraps.size(), 4u);
  EXPECT_EQ(hour.wraps.size(), 3u);
  EXPECT_GT(full.to_bytes().size(), hour.to_bytes().size());
}

// --- end-to-end with a multi-granularity server --------------------------------

TEST(ResilientEndToEnd, MissedMinuteRecoveredAtNextHour) {
  auto params = params::load("tre-toy-96");
  hashing::HmacDrbg rng(to_bytes("resilient-e2e"));
  Timeline timeline(0);
  TimeServer authority(params, timeline,
                       {Granularity::kMinute, Granularity::kHour}, rng);
  core::TreScheme scheme(params);
  ResilientTre res(params);
  core::UserKeyPair user = scheme.user_keygen(authority.public_key(), rng);

  // Release at minute 30; the receiver's link is down the whole hour.
  TimeSpec release = TimeSpec::from_unix(30 * 60, Granularity::kMinute);
  Bytes msg = to_bytes("do not miss me");
  auto ct = res.encrypt(msg, user.pub, authority.public_key(), release, rng,
                        Granularity::kHour);

  authority.bus().set_loss_probability(1.0);  // drops everything
  std::optional<Bytes> opened;
  // Receiver reconnects at minute 59 and hears only from then on.
  timeline.advance_to(59 * 60);
  authority.tick();
  authority.bus().set_loss_probability(0.0);
  authority.bus().subscribe([&](const core::KeyUpdate& upd) {
    if (opened) return;
    try {
      opened = res.decrypt(ct, user.a, upd);
    } catch (const Error&) {
      // update not in this ciphertext's chain; keep waiting
    }
  });

  // Minute updates 59:xx follow, all AFTER the release but not in the
  // chain; the next hour boundary (60 min) finally opens it.
  authority.run(2 * 3600);
  timeline.advance_to(3600 - 1);
  EXPECT_FALSE(opened.has_value());
  timeline.advance_to(3600);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(ResilientEndToEnd, MultiGranularityServerSignsAllBoundaries) {
  auto params = params::load("tre-toy-96");
  hashing::HmacDrbg rng(to_bytes("multi-gran"));
  Timeline timeline(0);
  TimeServer authority(params, timeline,
                       {Granularity::kHour, Granularity::kDay}, rng);
  authority.run(86400);
  timeline.advance_to(86400);
  // 25 hour-updates (0..24h) + 2 day-updates (day 0 and day 1).
  EXPECT_EQ(authority.archive().size(), 27u);
  EXPECT_TRUE(authority.archive().find("1970-01-01T05Z").has_value());
  EXPECT_TRUE(authority.archive().find("1970-01-02").has_value());
}

}  // namespace
}  // namespace tre::server
