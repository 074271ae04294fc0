// Workload `release`: the midnight release, seen from senders and
// receivers.
//
// Set-up issues a handful of hourly epochs through a TimeServer, puts
// them into tred's store, generates the receivers and pre-seals one FO
// ciphertext per receiver. The timed window holds kRounds releases, each
// in two phases:
//   1. senders seal one fresh 256-B FO ciphertext per receiver;
//   2. a closed loop of kLoad concurrent receivers, one tred
//      connection each, runs journeys: a FRESH receiver scheme (as a
//      separate receiver process would have), then the fetcher's trust
//      gate in order — SocketTransport::request (kGetUpdate) ->
//      KeyUpdate::try_from_bytes -> verify_update -> open — and a
//      plaintext comparison.
#include <atomic>

#include "client/socket_transport.h"
#include "layers.h"

namespace jb {

namespace {

constexpr size_t kUsers = 96;    ///< receivers, one release ciphertext each per round
constexpr size_t kEpochs = 4;    ///< hourly release epochs on tred
constexpr unsigned kLoad = 3;    ///< concurrent senders / receivers (nproc - 1)
/// Releases per run: the window is split into this many seal-then-journey
/// rounds, so seal timings sample many moments of the run rather than its
/// first second (host speed on a shared machine swings within seconds).
constexpr int kRounds = 12;

struct Fixture {
  std::shared_ptr<tre::daemon::Store> store = std::make_shared<tre::daemon::Store>();
  std::unique_ptr<tre::server::Timeline> timeline;
  std::unique_ptr<TimeServer> server;
  std::vector<std::string> tags;
  std::vector<tre::Bytes> wires;
  std::vector<tre::bls12::UserKey381> users;
  std::vector<Sealed> presealed;
  std::vector<tre::Bytes> premsgs;

  const tre::bls12::ServerPublicKey381& pub() const { return server->public_key(); }
  const std::string& tag_of(size_t user) const { return tags[user % kEpochs]; }
};

Fixture setup(std::uint64_t seed) {
  const auto ctx = tre::bls12::Bls12Ctx::get();
  Fixture f;
  const std::vector<tre::server::TimeSpec> epochs = hourly_epochs(seed, kEpochs);
  f.timeline = std::make_unique<tre::server::Timeline>(epochs.back().unix_seconds());
  tre::hashing::HmacDrbg server_rng = drbg("server", seed);
  f.server = std::make_unique<TimeServer>(ctx, *f.timeline, tre::server::Granularity::kHour,
                                          server_rng);
  const Scheme scheme(ctx);
  for (const tre::server::TimeSpec& e : epochs) {
    const Update u = f.server->issue_for(e);
    f.tags.push_back(u.tag);
    f.wires.push_back(u.to_bytes());
    tre::require(f.store->put(u.tag, f.wires.back()).ok(), "release: store refused an epoch");
    // Warms the process-wide pairing context (server-key Miller lines).
    tre::require(scheme.verify_update(f.pub(), u), "release: issued update does not verify");
  }
  f.store->set_server_key(kSetName, f.pub().to_bytes());

  f.users.resize(kUsers);
  f.presealed.resize(kUsers);
  f.premsgs.resize(kUsers);
  tre::parallel_for(kUsers, [&](size_t i) {
    tre::hashing::HmacDrbg rng = drbg("user/" + std::to_string(i), seed);
    f.users[i] = scheme.user_keygen(f.pub(), rng);
    f.premsgs[i] = rng.bytes(kMsgBytes);
    f.presealed[i] = scheme.seal(tre::core::Mode::kFo, f.premsgs[i], f.users[i].pub, f.pub(),
                                 f.tag_of(i), rng);
  });
  return f;
}

}  // namespace

Outcome run_release(const Options& opt) {
  Outcome out;
  const auto ctx = tre::bls12::Bls12Ctx::get();
  std::vector<double> setup_s;
  Fixture f;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    f = setup(opt.seed);
    setup_s.push_back(seconds_since(t0));
  }
  Tred tred(f.store);
  Tracer tracer;
  std::vector<std::unique_ptr<tre::client::SocketTransport>> tx;
  std::vector<Tracer::Buffer*> seal_buf(kLoad, nullptr), journey_buf(kLoad, nullptr);
  for (unsigned t = 0; t < kLoad; ++t) {
    tx.push_back(std::make_unique<tre::client::SocketTransport>(
        std::vector<tre::client::SocketTransport::Endpoint>{{"127.0.0.1", tred.port()}}));
    if (opt.trace) {
      seal_buf[t] = tracer.new_buffer();
      journey_buf[t] = tracer.new_buffer();
    }
  }
  struct PerThread {
    std::vector<double> seal_ms;
    std::vector<double> ms;
    std::vector<double> traced_ms;
    std::uint64_t journeys = 0;  ///< journeys attempted
    Outcome tally;
  };
  std::vector<PerThread> per(kLoad);
  Counters delta;
  double phase2_s = 0;
  const std::uint64_t window_start = now_ns();

  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t deadline =
        window_start + static_cast<std::uint64_t>(opt.seconds * 1e9 * (round + 1) / kRounds);

    // Phase 1: one fresh ciphertext per receiver. Each sender thread is a
    // sender service with its own scheme, new every round; receiver i
    // goes to sender i % kLoad.
    std::vector<Sealed> sealed(kUsers);
    std::vector<tre::Bytes> msgs(kUsers);
    std::string err = run_threads(kLoad, [&](unsigned t) {
      const Scheme sender(ctx);
      tre::hashing::HmacDrbg rng =
          drbg("sender/" + std::to_string(round) + "/" + std::to_string(t), opt.seed);
      for (size_t i = t; i < kUsers; i += kLoad) {
        msgs[i] = rng.bytes(kMsgBytes);
        Tracer::Buffer* b = (i % 2 == 1) ? seal_buf[t] : nullptr;
        if (b != nullptr) b->begin_op(i);
        ++per[t].tally.attempted;
        const std::uint64_t t0 = now_ns();
        {
          Scope s(b, "core.seal");
          sealed[i] = sender.seal(tre::core::Mode::kFo, msgs[i], f.users[i].pub, f.pub(),
                                  f.tag_of(i), rng);
        }
        per[t].seal_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      }
    });
    if (!err.empty()) out.fail("seal: " + err, false);

    // Phase 2: closed-loop receiver journeys until the round's share of
    // the window closes, and at least until every ciphertext sealed in
    // phase 1 has been opened once.
    const Counters before = Counters::take();
    std::atomic<std::uint64_t> next{0};
    const std::uint64_t phase2_start = now_ns();
    err = run_threads(kLoad, [&](unsigned t) {
      PerThread& me = per[t];
      for (;;) {
        const std::uint64_t j = next.fetch_add(1);
        if (j >= kUsers && now_ns() >= deadline) break;
        const size_t user = j % kUsers;
        const bool fresh_pool = (j / kUsers) % 2 == 0;
        const Sealed& ct = fresh_pool ? sealed[user] : f.presealed[user];
        const tre::Bytes& msg = fresh_pool ? msgs[user] : f.premsgs[user];
        const std::string& tag = f.tag_of(user);
        // Traced and untraced journeys see the same tags: hash_to_g1 cost
        // differs per tag, so alternating by tag would bias the overhead.
        Tracer::Buffer* b = ((user / kEpochs) % 2 == 1) ? journey_buf[t] : nullptr;
        if (b != nullptr) b->begin_op(j);
        ++me.tally.attempted;
        ++me.journeys;

        const std::uint64_t t0 = now_ns();
        std::optional<tre::Bytes> pt;
        const char* failure = nullptr;
        bool wrong = false;
        {
          Scope journey(b, "release.journey");
          const Scheme rx(ctx);
          std::optional<tre::Bytes> reply;
          {
            Scope s(b, "client.roundtrip");
            tx[t]->request(0, tag, [&](tre::Bytes bytes) { reply = std::move(bytes); });
          }
          std::optional<Update> u;
          if (reply) {
            Scope s(b, "core.parse");
            u = Update::try_from_bytes(*ctx, *reply);
          }
          bool verified = false;
          if (u && u->tag == tag) {
            Scope s(b, "core.verify_update");
            verified = rx.verify_update(f.pub(), *u);
          }
          if (verified) {
            Scope s(b, "core.open");
            pt = rx.open(ct, f.users[user].a, *u, f.pub());
          }
          if (!reply) {
            failure = "no reply from tred";
          } else if (!u || u->tag != tag) {
            failure = "served update did not parse for its tag";
            wrong = true;
          } else if (!verified) {
            failure = "served update failed verify_update";
            wrong = true;
          } else if (!pt || *pt != msg) {
            failure = "opened plaintext differs from the sealed one";
            wrong = true;
          }
        }
        const double ms = static_cast<double>(now_ns() - t0) / 1e6;
        if (failure != nullptr) {
          me.tally.fail(failure, wrong);
          continue;
        }
        (b != nullptr ? me.traced_ms : me.ms).push_back(ms);
      }
    });
    phase2_s += seconds_since(phase2_start);
    delta += Counters::take() - before;
    if (!err.empty()) out.fail("journey: " + err, false);
  }

  std::vector<double> seals, journeys, traced;
  std::uint64_t journeys_attempted = 0, connects = 0;
  for (unsigned t = 0; t < kLoad; ++t) {
    seals.insert(seals.end(), per[t].seal_ms.begin(), per[t].seal_ms.end());
    journeys.insert(journeys.end(), per[t].ms.begin(), per[t].ms.end());
    traced.insert(traced.end(), per[t].traced_ms.begin(), per[t].traced_ms.end());
    journeys_attempted += per[t].journeys;
    connects += tx[t]->connects();
    out.absorb(per[t].tally);
  }
  const tre::daemon::Daemon::Stats ds = tred.stats();
  if (ds.error_replies > 0) out.fail("tred sent error replies", false);
  if (connects != kLoad) out.fail("receivers reconnected", false);

  const double completed = static_cast<double>(journeys.size() + traced.size());
  const double per_s = completed / phase2_s;
  const double p50 = quantile(journeys, 0.5), p90 = quantile(journeys, 0.9);
  const double seal_p50 = median(seals);
  const double setup = median(setup_s);
  out.put(out.e2e, "setup_s", setup, "s");
  out.put(out.e2e, "throughput_per_s", per_s, "1/s");
  out.put(out.e2e, "latency_ms_tail", p90, "ms");
  out.put(out.e2e, "side_op_ms_mean", mean(seals), "ms");

  out.put(out.named, "setup_s", setup, "s");
  out.put(out.named, "release.seal_ms_p50", seal_p50, "ms");
  out.put(out.named, "release.seal_ms_mean", mean(seals), "ms");
  out.put(out.named, "release.journey_ms_p50", p50, "ms");
  out.put(out.named, "release.journey_ms_mean", mean(journeys), "ms");
  out.put(out.named, "release.journey_ms_p90", p90, "ms");
  out.put(out.named, "release.journeys_per_s", per_s, "1/s");
  out.put(out.named, "release.seals", static_cast<double>(seals.size()), "count");
  out.put(out.named, "release.journeys", completed, "count");
  out.put(out.named, "release.daemon_error_replies", static_cast<double>(ds.error_replies),
          "count");
  out.put(out.named, "release.reconnects",
          static_cast<double>(connects - std::min<std::uint64_t>(connects, kLoad)), "count");

  if (opt.trace) {
    ProbeInputs in;
    in.server = &f.server->key_pair_for_baselines();
    in.tags = f.tags;
    in.wires = f.wires;
    in.store = f.store.get();
    in.port = tred.port();
    in.seed = opt.seed;
    Breakdown bd;
    bd.op = "release.journey";
    bd.client = {"client.roundtrip"};
    bd.core = {"core.parse", "core.verify_update", "core.open"};
    bd.delta = delta;
    bd.ops_in_window = static_cast<double>(journeys_attempted);
    bd.items_in_window = static_cast<double>(journeys_attempted);
    bd.connects = static_cast<double>(connects);
    const double overhead = ratio_or_zero(median(traced), median(journeys)) - 1;
    emit_layers(out, SpanStats{tracer.merged()}, bd, probe_layers(in), overhead);
    write_trace(tracer, opt, out);
  }
  return out;
}

}  // namespace jb
