// E17: the 2005 instantiation vs the modern one — SAME generic core.
//
// Since the backend refactor both columns run the identical
// core::BasicTreScheme<B> code path; only the pairing backend differs:
//   * type-1 supersingular curve, ~80-bit security (the paper's era);
//   * BLS12-381 type-3 pairing, ~128-bit security (what drand/tlock run
//     this very construction on today).
// The headline: the modern curve gives SHORTER updates (49-byte G1
// points vs 65) at much higher security, and since the projective
// Miller loop + cyclotomic final exponentiation landed the 381 column
// is within a small factor of the 2005 curve instead of ~20x behind.
//
// Alongside the table the harness writes BENCH_modern_curve.json with
// the per-backend rows (including the pre-optimization `baseline_*`
// timings, pinned from the seed run so the speedup is auditable without
// digging through git), pairing-engine sub-timings (Miller loop vs
// final exponentiation, cold vs cached lines), the per-update G1 unit
// costs (square root, decode, subgroup test, H1 alone and per item of a
// 512-tag batch, both ladders, the wide reduction and one F_p
// inversion), and the
// global metrics registry snapshot, so the per-backend probe prefixes
// (core.* vs core.bls381.*) are visible in one artifact.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "bls12/tre381.h"
#include "core/tre.h"
#include "hashing/drbg.h"

int main(int argc, char** argv) {
  using namespace tre;
  bench::header("E17: 2005 type-1 curve vs BLS12-381 type-3 (fast engine)",
                "the paper's scheme ports unchanged to modern asymmetric "
                "pairings; updates get SHORTER (49 B vs 65 B) while security "
                "rises from ~80 to ~128 bits");

  hashing::HmacDrbg rng(to_bytes("bench-e17"));
  Bytes msg = rng.bytes(256);
  const char* tag = "2030-01-01T00:00:00Z";

  // Type-1 (tre-512) through the generic core.
  core::TreScheme t1(params::load("tre-512"));
  core::ServerKeyPair s1 = t1.server_keygen(rng);
  core::UserKeyPair u1 = t1.user_keygen(s1.pub, rng);
  core::KeyUpdate upd1 = t1.issue_update(s1, tag);
  auto ct1 = t1.encrypt(msg, u1.pub, s1.pub, tag, rng, core::KeyCheck::kSkip);

  // Type-3 (BLS12-381) through the SAME generic core.
  bls12::Tre381Scheme t3 = bls12::make_tre381();
  bls12::ServerKey381 s3 = t3.server_keygen(rng);
  bls12::UserKey381 u3 = t3.user_keygen(s3.pub, rng);
  bls12::Update381 upd3 = t3.issue_update(s3, tag);
  auto ct3 = t3.encrypt(msg, u3.pub, s3.pub, tag, rng, core::KeyCheck::kSkip);

  // Warm every memo cache (tag hashes, Miller lines, pair bases, combs)
  // before timing: the table documents steady-state costs, matching the
  // "warm caches" convention of docs/PERF.md. With the fast engine the
  // per-op costs are single-digit milliseconds, so the rep count is high
  // enough that a stray scheduler blip does not dominate the mean.
  (void)t1.verify_update(s1.pub, upd1);
  (void)t1.decrypt(ct1, u1.a, upd1);
  (void)t3.verify_update(s3.pub, upd3);
  (void)t3.decrypt(ct3, u3.a, upd3);

  const int reps = 20;
  // The seed tree's timings (affine F_p12 Miller loop, generic
  // final-exponentiation power, double-and-add ladders) on this same
  // harness — the denominators of the speedup line below.
  struct Baseline {
    double issue, verify, enc, dec;
  };
  const Baseline kBaseline512{0.642, 3.571, 0.324, 6.694};
  const Baseline kBaseline381{0.854, 77.137, 13.352, 66.572};

  struct Row {
    const char* name;
    const char* curve;
    double issue, verify, enc, dec;
    Baseline baseline;
    size_t update_point_bytes, update_wire_bytes, ct_header_bytes;
    const char* security;
  };
  Row rows[2];

  rows[0] = Row{"type-1 supersingular (tre-512)", "tre-512",
                bench::time_ms(reps, [&] { (void)t1.issue_update(s1, tag); }),
                bench::time_ms(reps, [&] { (void)t1.verify_update(s1.pub, upd1); }),
                bench::time_ms(reps, [&] {
                  (void)t1.encrypt(msg, u1.pub, s1.pub, tag, rng, core::KeyCheck::kSkip);
                }),
                bench::time_ms(reps, [&] { (void)t1.decrypt(ct1, u1.a, upd1); }),
                kBaseline512, t1.params().g1_compressed_bytes(),
                upd1.to_bytes().size(), t1.params().g1_compressed_bytes(),
                "~80-bit"};

  const bls12::Bls12Ctx& ctx = t3.params();
  rows[1] = Row{"type-3 BLS12-381 (fast)", "bls12-381",
                bench::time_ms(reps, [&] { (void)t3.issue_update(s3, tag); }),
                bench::time_ms(reps, [&] { (void)t3.verify_update(s3.pub, upd3); }),
                bench::time_ms(reps, [&] {
                  (void)t3.encrypt(msg, u3.pub, s3.pub, tag, rng, core::KeyCheck::kSkip);
                }),
                bench::time_ms(reps, [&] { (void)t3.decrypt(ct3, u3.a, upd3); }),
                kBaseline381, bls12::Bls381Backend::gu_wire_bytes(ctx),
                upd3.to_bytes().size(), bls12::Bls381Backend::gh_wire_bytes(ctx),
                "~128-bit"};

  // Pairing-engine sub-timings (the anatomy of one ê(P, Q)): the Miller
  // loop and final exponentiation separately, plus the line-cache effect
  // on a full pairing against a fixed Q.
  bls12::G1Point381 bp = ctx.hash_to_g1(to_bytes("bench-pair-sub"));
  const bls12::G2Point381& bq = ctx.g2_generator();
  auto prepared = ctx.prepare_g2(bq);
  double prep_ms = bench::time_ms(reps, [&] { (void)ctx.prepare_g2(bq); });
  double miller_ms =
      bench::time_ms(reps, [&] { (void)ctx.miller_loop(bp, *prepared); });
  bls12::Fp12 mval = ctx.miller_loop(bp, *prepared);
  double fexp_ms =
      bench::time_ms(reps, [&] { (void)ctx.final_exponentiation(mval); });
  double pair_ms = bench::time_ms(reps, [&] { (void)ctx.pair(bp, bq); });
  double pair_cached_ms =
      bench::time_ms(reps, [&] { (void)ctx.pair_cached(bp, bq); });

  // G1 anatomy: the per-update unit costs of a receiver's catch-up (the
  // decode of every fetched update, its H1, and the G1 scalar ladders).
  // Each op is well under a millisecond, hence the higher rep count.
  const int g1_reps = 200;
  const bls12::Scalar gk = ctx.random_scalar(rng);
  const bls12::Fp sq_in = bp.x.squared() * bp.x + bls12::Fp::from_u64(ctx.fp(), 4);
  const Bytes bp_wire = ctx.g1_to_bytes(bp);
  std::uint32_t h1_ctr = 0;
  const Bytes wide_in = rng.bytes(2 * ctx.fp()->byte_len);  // one H1 oracle output
  // A catch-up page: 512 distinct tags hashed as one batch (one shared
  // affine inversion), reported per item. The tags start at 2^31, apart
  // from the single-message probe's counter.
  constexpr std::uint32_t kPage = 512;
  std::vector<Bytes> page_msgs;
  for (std::uint32_t i = 0; i < kPage; ++i) page_msgs.push_back(be32(0x80000000u + i));
  const std::vector<ByteSpan> page(page_msgs.begin(), page_msgs.end());
  struct G1Anatomy {
    double sqrt_us, from_bytes_us, in_subgroup_us, hash_to_g1_us, mul_us,
        mul_secret_us, from_bytes_wide_us, fp_inverse_us, hash_to_g1_batch_us;
  };
  auto us = [&](const std::function<void()>& fn) {
    return 1e3 * bench::time_ms(g1_reps, fn);
  };
  const G1Anatomy g1a{
      us([&] { (void)sq_in.sqrt(); }),
      us([&] { (void)ctx.g1_from_bytes(bp_wire); }),
      us([&] { (void)ctx.g1_in_subgroup(bp); }),
      us([&] { (void)ctx.hash_to_g1(be32(h1_ctr++)); }),
      us([&] { (void)ctx.g1_mul(bp, gk); }),
      us([&] { (void)ctx.g1_mul_secret(bp, gk); }),
      us([&] { (void)bls12::Fp::from_bytes_wide(ctx.fp(), wide_in); }),
      us([&] { (void)sq_in.inverse(); }),
      1e3 * bench::time_ms(3, [&] { (void)ctx.hash_to_g1_batch(page); }) / kPage};

  std::printf("%-32s | %8s | %9s | %8s | %8s | %9s | %9s | %s\n", "backend",
              "issue ms", "verify ms", "enc ms", "dec ms", "update B",
              "ct-hdr B", "security");
  std::printf("---------------------------------+----------+-----------+----------+----------+-----------+-----------+---------\n");
  for (const Row& row : rows) {
    std::printf("%-32s | %8.1f | %9.1f | %8.1f | %8.1f | %9zu | %9zu | %s\n",
                row.name, row.issue, row.verify, row.enc, row.dec,
                row.update_point_bytes, row.ct_header_bytes, row.security);
  }
  std::printf("\nbls12-381 speedup vs seed engine: verify %.1fx, encrypt %.1fx, "
              "decrypt %.1fx\n",
              kBaseline381.verify / rows[1].verify,
              kBaseline381.enc / rows[1].enc, kBaseline381.dec / rows[1].dec);
  std::printf("pairing anatomy: prepare_g2 %.2f ms, miller %.2f ms, "
              "final_exp %.2f ms, pair %.2f ms, pair(cached lines) %.2f ms\n",
              prep_ms, miller_ms, fexp_ms, pair_ms, pair_cached_ms);
  std::printf("G1 anatomy: sqrt %.1f us, g1_from_bytes %.1f us, "
              "g1_in_subgroup %.1f us, hash_to_g1 %.1f us, g1_mul %.1f us, "
              "g1_mul_secret %.1f us, from_bytes_wide %.2f us, "
              "fp_inverse %.1f us, hash_to_g1 in a %u-batch %.1f us/item\n",
              g1a.sqrt_us, g1a.from_bytes_us, g1a.in_subgroup_us,
              g1a.hash_to_g1_us, g1a.mul_us, g1a.mul_secret_us,
              g1a.from_bytes_wide_us, g1a.fp_inverse_us, kPage,
              g1a.hash_to_g1_batch_us);

  const char* json_path = argc > 1 ? argv[1] : "BENCH_modern_curve.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"experiment\": \"E17_modern_curve\",\n");
    std::fprintf(f, "  \"message_bytes\": %zu,\n  \"reps\": %d,\n", msg.size(), reps);
    std::fprintf(f, "  \"backends\": [\n");
    for (size_t i = 0; i < 2; ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"curve\": \"%s\", "
                   "\"security\": \"%s\", "
                   "\"issue_ms\": %.3f, \"verify_ms\": %.3f, "
                   "\"encrypt_ms\": %.3f, \"decrypt_ms\": %.3f, "
                   "\"baseline_issue_ms\": %.3f, \"baseline_verify_ms\": %.3f, "
                   "\"baseline_encrypt_ms\": %.3f, \"baseline_decrypt_ms\": %.3f, "
                   "\"update_point_bytes\": %zu, \"update_wire_bytes\": %zu, "
                   "\"ct_header_bytes\": %zu}%s\n",
                   r.name, r.curve, r.security, r.issue, r.verify, r.enc, r.dec,
                   r.baseline.issue, r.baseline.verify, r.baseline.enc,
                   r.baseline.dec, r.update_point_bytes, r.update_wire_bytes,
                   r.ct_header_bytes, i + 1 < 2 ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"pairing_anatomy_bls381\": {\"prepare_g2_ms\": %.3f, "
                 "\"miller_loop_ms\": %.3f, \"final_exp_ms\": %.3f, "
                 "\"pair_ms\": %.3f, \"pair_cached_ms\": %.3f},\n",
                 prep_ms, miller_ms, fexp_ms, pair_ms, pair_cached_ms);
    std::fprintf(f,
                 "  \"g1_anatomy_bls381\": {\"sqrt_us\": %.2f, "
                 "\"g1_from_bytes_us\": %.2f, \"g1_in_subgroup_us\": %.2f, "
                 "\"hash_to_g1_us\": %.2f, \"g1_mul_us\": %.2f, "
                 "\"g1_mul_secret_us\": %.2f, \"from_bytes_wide_us\": %.2f, "
                 "\"fp_inverse_us\": %.2f, "
                 "\"hash_to_g1_batch512_us_per_item\": %.2f},\n",
                 g1a.sqrt_us, g1a.from_bytes_us, g1a.in_subgroup_us,
                 g1a.hash_to_g1_us, g1a.mul_us, g1a.mul_secret_us,
                 g1a.from_bytes_wide_us, g1a.fp_inverse_us,
                 g1a.hash_to_g1_batch_us);
    std::fprintf(f, "%s\n}\n", bench::metrics_json_field(2).c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
