// BLS short signatures: sign/verify, aggregation, batch verification,
// and the equivalence with TRE key updates (§5.3.1).
#include "bls/bls.h"

#include <gtest/gtest.h>

#include "core/tre.h"
#include "hashing/drbg.h"

namespace tre::bls {
namespace {

class BlsTest : public ::testing::Test {
 protected:
  BlsTest()
      : params_(params::load("tre-toy-96")),
        bls_(params_),
        rng_(to_bytes("bls-tests")),
        keys_(bls_.keygen(rng_)) {}

  std::vector<SignedMessage> make_batch(size_t n, const char* prefix = "msg-") {
    std::vector<SignedMessage> batch;
    for (size_t i = 0; i < n; ++i) {
      std::string m = prefix + std::to_string(i);
      batch.push_back(SignedMessage{m, bls_.sign(keys_, to_bytes(m))});
    }
    return batch;
  }

  std::shared_ptr<const params::GdhParams> params_;
  BlsScheme bls_;
  hashing::HmacDrbg rng_;
  KeyPair keys_;
};

TEST_F(BlsTest, SignVerifyRoundtrip) {
  Signature sig = bls_.sign(keys_, to_bytes("hello"));
  EXPECT_TRUE(bls_.verify(keys_.g, keys_.pk, to_bytes("hello"), sig));
  EXPECT_FALSE(bls_.verify(keys_.g, keys_.pk, to_bytes("hullo"), sig));
}

TEST_F(BlsTest, SignatureIsDeterministic) {
  EXPECT_EQ(bls_.sign(keys_, to_bytes("m")).sig, bls_.sign(keys_, to_bytes("m")).sig);
}

TEST_F(BlsTest, WrongKeyRejected) {
  KeyPair other = bls_.keygen(rng_);
  Signature sig = bls_.sign(other, to_bytes("m"));
  EXPECT_FALSE(bls_.verify(keys_.g, keys_.pk, to_bytes("m"), sig));
  EXPECT_FALSE(bls_.verify(keys_.g, keys_.pk, to_bytes("m"),
                           Signature{ec::G1Point::infinity(params_->ctx())}));
}

TEST_F(BlsTest, SignatureIsOneCompressedPoint) {
  Signature sig = bls_.sign(keys_, to_bytes("short"));
  EXPECT_EQ(sig.sig.to_bytes_compressed().size(), params_->g1_compressed_bytes());
}

TEST_F(BlsTest, AggregateVerifies) {
  auto batch = make_batch(5);
  Signature agg = bls_.aggregate(batch);
  std::vector<std::string> msgs;
  for (const auto& sm : batch) msgs.push_back(sm.msg);
  EXPECT_TRUE(bls_.verify_aggregate(keys_.g, keys_.pk, msgs, agg));

  // Tampering with the aggregate fails.
  Signature bad{agg.sig.doubled()};
  EXPECT_FALSE(bls_.verify_aggregate(keys_.g, keys_.pk, msgs, bad));
  // Missing message fails.
  msgs.pop_back();
  EXPECT_FALSE(bls_.verify_aggregate(keys_.g, keys_.pk, msgs, agg));
}

TEST_F(BlsTest, AggregateRejectsRepeatedMessages) {
  auto batch = make_batch(3);
  Signature agg = bls_.aggregate(batch);
  std::vector<std::string> msgs = {batch[0].msg, batch[0].msg, batch[1].msg};
  EXPECT_FALSE(bls_.verify_aggregate(keys_.g, keys_.pk, msgs, agg));
}

TEST_F(BlsTest, BatchVerificationAcceptsValidBatch) {
  auto batch = make_batch(20);
  EXPECT_TRUE(bls_.verify_batch(keys_.g, keys_.pk, batch, rng_));
  EXPECT_TRUE(bls_.verify_batch(keys_.g, keys_.pk, {}, rng_));  // vacuous
}

TEST_F(BlsTest, BatchVerificationCatchesOneForgery) {
  auto batch = make_batch(20);
  // Replace one signature with a signature on a different message.
  batch[7].sig = bls_.sign(keys_, to_bytes("something else"));
  EXPECT_FALSE(bls_.verify_batch(keys_.g, keys_.pk, batch, rng_));
}

TEST_F(BlsTest, BatchVerificationCatchesForeignSignature) {
  auto batch = make_batch(10);
  KeyPair mallory = bls_.keygen(rng_);
  batch[3].sig = bls_.sign(mallory, to_bytes(batch[3].msg));
  EXPECT_FALSE(bls_.verify_batch(keys_.g, keys_.pk, batch, rng_));
}

TEST_F(BlsTest, KeyUpdatesAreBlsSignatures) {
  // §5.3.1: a TRE time-bound key update is exactly a BLS signature by
  // the time server on the time string.
  core::TreScheme scheme(params_);
  core::ServerKeyPair server = scheme.server_keygen(rng_);
  core::KeyUpdate upd = scheme.issue_update(server, "2005-06-06T09:00Z");
  Signature as_sig{upd.sig};
  EXPECT_TRUE(bls_.verify(server.pub.g, server.pub.sg,
                          to_bytes("2005-06-06T09:00Z"), as_sig));
}

TEST_F(BlsTest, ArchiveCatchUpBatchVerification) {
  core::TreScheme scheme(params_);
  core::ServerKeyPair server = scheme.server_keygen(rng_);
  std::vector<core::KeyUpdate> updates;
  for (int i = 0; i < 30; ++i) {
    updates.push_back(scheme.issue_update(server, "t" + std::to_string(i)));
  }
  EXPECT_EQ(scheme.verify_updates_batch(server.pub, updates, rng_),
            std::vector<size_t>{});
  // One forged update fails the batch, and the bisection names it.
  updates[11].sig = updates[11].sig.doubled();
  EXPECT_EQ(scheme.verify_updates_batch(server.pub, updates, rng_),
            std::vector<size_t>{11});
}

}  // namespace
}  // namespace tre::bls
