// E10: end-to-end sealed-bid auction macro-benchmark (the paper's §1
// application) — full lifecycle latency breakdown at growing bidder
// counts, demonstrating that the only per-epoch server cost is one
// broadcast no matter how many bids are in flight.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "timeserver/timeserver.h"

int main() {
  using namespace tre;
  bench::header("E10: sealed-bid auction end-to-end (tre-toy-96)",
                "per-auction server cost is one signed update; sealing and "
                "opening are per-bid receiver/sender costs (paper §1)");

  auto params = params::load("tre-toy-96");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("bench-e10"));

  std::printf("%-8s | %10s | %12s | %12s | %12s | %12s\n", "bidders", "seal ms",
              "server ms", "server B", "open ms", "verify ms");
  std::printf("---------+------------+--------------+--------------+--------------+--------------\n");

  for (size_t bidders : {4u, 16u, 64u, 256u}) {
    server::Timeline timeline(0);
    server::TimeServer authority(params, timeline, server::Granularity::kHour, rng);
    core::UserKeyPair office = scheme.user_keygen(authority.public_key(), rng);
    server::TimeSpec deadline = server::TimeSpec::from_unix(3600, server::Granularity::kHour);

    // Seal: every bidder FO-encrypts their bid.
    std::vector<core::FoCiphertext> sealed;
    sealed.reserve(bidders);
    double seal_ms = bench::time_ms(1, [&] {
      for (size_t i = 0; i < bidders; ++i) {
        std::string bid = "bidder-" + std::to_string(i) + " bids $" +
                          std::to_string(1000000 + i);
        sealed.push_back(scheme.encrypt_fo(to_bytes(bid), office.pub,
                                           authority.public_key(),
                                           deadline.canonical(), rng));
      }
    });

    // Server at the deadline: one tick regardless of bid volume.
    std::uint64_t bytes_before = authority.stats().bytes_published;
    timeline.advance_to(deadline.unix_seconds());
    double server_ms = bench::time_ms(1, [&] { (void)authority.tick(); });
    std::uint64_t server_bytes = authority.stats().bytes_published - bytes_before;
    core::KeyUpdate update =
        core::KeyUpdate::from_bytes(*params, *authority.archive().find(deadline.canonical()));

    // Everyone verifies the self-authenticating update once.
    double verify_ms = bench::time_ms(
        3, [&] { (void)scheme.verify_update(authority.public_key(), update); });

    // Open: the office decrypts every bid.
    size_t opened = 0;
    double open_ms = bench::time_ms(1, [&] {
      opened = 0;
      for (const auto& ct : sealed) {
        if (scheme.decrypt_fo(ct, office.a, update, authority.public_key())) ++opened;
      }
    });
    if (opened != bidders) {
      std::printf("ERROR: only %zu/%zu bids opened\n", opened, bidders);
      return 1;
    }
    std::printf("%-8zu | %10.1f | %12.3f | %12llu | %12.1f | %12.2f\n", bidders,
                seal_ms, server_ms, static_cast<unsigned long long>(server_bytes),
                open_ms, verify_ms);
  }
  std::printf("\n(server ms and bytes stay flat as bids scale: the auction "
              "needs exactly one key update)\n");
  return 0;
}
