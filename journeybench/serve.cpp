// Workload `serve`: tred's request path with no crypto on the client
// side. kConns connections run a closed loop of kGetUpdate requests for
// the current epoch, with a fixed share of kGetRange (kRangeItems items)
// and kGetKey; every reply is byte-compared against the genuine bytes.
// Meanwhile a publisher thread advances the epoch every kPublishMs
// (TimeServer::issue_for + Store::put), so writes run beside the reads.
//
// The genuine bytes of every epoch the publisher will reach are issued
// after set-up, outside setup_s (their number grows with --seconds),
// from the same server key, so the publisher's own output is checked
// too.
//
// The request mix and the publish cadence are assumptions, not measured
// deployment figures; README.md ("serve traffic") says which way each
// one biases the serve figures.
#include <atomic>
#include <random>

#include "client/socket_transport.h"
#include "layers.h"

namespace jb {

namespace {

constexpr size_t kArchive = 1024;    ///< epochs already published at start
constexpr unsigned kConns = 2;       ///< client connections (nproc - 2)
constexpr int kPublishMs = 20;       ///< publisher cadence
constexpr std::uint32_t kRangeItems = 16;
constexpr std::uint64_t kMixPeriod = 32;  ///< per period: 1 range, 1 key, 30 updates
/// Set-ups per run. This set-up is short (under a second), and single
/// set-ups in one process differ by up to ~1.5x, so setup_s takes the
/// median of more of them than the default kSetups.
constexpr int kServeSetups = 9;

struct Fixture {
  std::shared_ptr<tre::daemon::Store> store = std::make_shared<tre::daemon::Store>();
  std::vector<tre::server::TimeSpec> epochs;  ///< archive, then future epochs
  std::unique_ptr<tre::server::Timeline> timeline;
  std::unique_ptr<TimeServer> server;
  std::vector<std::string> tags;
  std::vector<tre::Bytes> wires;  ///< genuine bytes of every epoch
  tre::Bytes pub_wire;

  const tre::bls12::ServerPublicKey381& pub() const { return server->public_key(); }
};

Fixture setup(std::uint64_t seed) {
  const auto ctx = tre::bls12::Bls12Ctx::get();
  Fixture f;
  f.epochs = hourly_epochs(seed, kArchive);
  f.timeline = std::make_unique<tre::server::Timeline>(f.epochs[kArchive - 1].unix_seconds());
  tre::hashing::HmacDrbg server_rng = drbg("server", seed);
  f.server = std::make_unique<TimeServer>(ctx, *f.timeline, tre::server::Granularity::kHour,
                                          server_rng);
  for (const Update& u : f.server->issue_range(f.epochs.front(), f.epochs[kArchive - 1])) {
    f.tags.push_back(u.tag);
    f.wires.push_back(u.to_bytes());
    tre::require(f.store->put(u.tag, f.wires.back()).ok(), "serve: store refused an epoch");
  }
  f.pub_wire = f.pub().to_bytes();
  f.store->set_server_key(kSetName, f.pub_wire);
  return f;
}

/// Appends the next `future` epochs and their genuine bytes: the
/// reference the publisher's output and the replies are checked against.
void add_future(Fixture& f, std::uint64_t seed, size_t future) {
  f.epochs = hourly_epochs(seed, kArchive + future);
  std::vector<std::string> future_tags;
  for (size_t i = kArchive; i < f.epochs.size(); ++i) {
    future_tags.push_back(f.epochs[i].canonical());
  }
  const Scheme scheme(tre::bls12::Bls12Ctx::get());
  for (const Update& u : scheme.issue_updates(f.server->key_pair_for_baselines(), future_tags)) {
    f.tags.push_back(u.tag);
    f.wires.push_back(u.to_bytes());
  }
}

}  // namespace

Outcome run_serve(const Options& opt) {
  Outcome out;
  std::vector<double> setup_s;
  Fixture f;
  for (int i = 0; i < kServeSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    f = setup(opt.seed);
    setup_s.push_back(seconds_since(t0));
  }
  add_future(f, opt.seed, static_cast<size_t>(opt.seconds * 1000 / kPublishMs) + 8);
  Tred tred(f.store);
  Tracer tracer;
  std::atomic<size_t> published{kArchive};

  struct PerThread {
    std::vector<double> ms, traced_ms;
    Outcome tally;
    std::uint64_t connects = 0;
  };
  std::vector<PerThread> per(kConns + 1);  // clients, then the publisher
  const Counters before = Counters::take();
  const std::uint64_t window_start = now_ns();
  const std::uint64_t deadline =
      window_start + static_cast<std::uint64_t>(opt.seconds * 1e9);

  auto publisher = [&](PerThread& me) {
    Tracer::Buffer* buf = opt.trace ? tracer.new_buffer() : nullptr;
    std::uint64_t due = window_start;
    for (size_t n = kArchive; n < f.tags.size(); ++n) {
      due += static_cast<std::uint64_t>(kPublishMs) * 1000000;
      if (due >= deadline) break;
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      Tracer::Buffer* b = (n % 2 == 1) ? buf : nullptr;
      if (b != nullptr) b->begin_op(n);
      ++me.tally.attempted;
      f.timeline->advance_to(f.epochs[n].unix_seconds());
      const std::uint64_t t0 = now_ns();
      tre::Bytes wire;
      bool stored = false;
      {
        Scope p(b, "serve.publish");
        std::optional<Update> u;
        {
          Scope s(b, "timeserver.issue");
          u = f.server->issue_for(f.epochs[n]);
        }
        wire = u->to_bytes();
        Scope s(b, "store.put");
        stored = f.store->put(u->tag, wire).ok();
      }
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      if (!stored || wire != f.wires[n]) {
        me.tally.fail("publisher issued or stored wrong bytes", true);
        continue;  // the epoch stays unpublished; readers keep the previous one
      }
      published.store(n + 1, std::memory_order_release);
      (b != nullptr ? me.traced_ms : me.ms).push_back(ms);
    }
  };

  auto client = [&](unsigned t, PerThread& me) {
    tre::client::SocketTransport tx({{"127.0.0.1", tred.port()}});
    Tracer::Buffer* buf = opt.trace ? tracer.new_buffer() : nullptr;
    std::mt19937_64 pick(drbg("client/" + std::to_string(t), opt.seed).bytes(1)[0] + t);
    for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
      // Whole mix periods alternate, so traced and untraced requests have
      // the same mix of kinds.
      Tracer::Buffer* b = ((i / kMixPeriod) % 2 == 1) ? buf : nullptr;
      if (b != nullptr) b->begin_op(i);
      ++me.tally.attempted;
      const size_t n = published.load(std::memory_order_acquire);
      const std::uint64_t slot = (i + t * kMixPeriod / 2) % kMixPeriod;
      const char* failure = nullptr;
      bool wrong = true;  // a reply that came back but differs
      const std::uint64_t t0 = now_ns();
      {
        Scope r(b, "serve.request");
        if (slot == 7) {
          const std::uint64_t start = pick() % (n - kRangeItems);
          std::optional<tre::client::RangePage> page;
          {
            Scope s(b, "client.range");
            page = tx.request_range(0, start, kRangeItems);
          }
          if (!page) {
            failure = "no range reply";
            wrong = false;
          } else if (page->start != start || page->total < n ||
                     page->updates.size() != kRangeItems) {
            failure = "range reply has the wrong extent";
          } else {
            for (size_t k = 0; k < kRangeItems; ++k) {
              if (page->updates[k] != f.wires[start + k]) failure = "range reply altered bytes";
            }
          }
        } else if (slot == 23) {
          std::optional<tre::daemon::KeyReply> key;
          {
            Scope s(b, "client.key");
            key = tx.get_key(0);
          }
          if (!key) {
            failure = "no key reply";
            wrong = false;
          } else if (key->set_name != kSetName || key->pub != f.pub_wire) {
            failure = "key reply altered bytes";
          }
        } else {
          std::optional<tre::Bytes> reply;
          {
            Scope s(b, "client.roundtrip");
            tx.request(0, f.tags[n - 1], [&](tre::Bytes bytes) { reply = std::move(bytes); });
          }
          if (!reply) {
            failure = "no update reply";
            wrong = false;
          } else if (*reply != f.wires[n - 1]) {
            failure = "update reply altered bytes";
          }
        }
      }
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      if (failure != nullptr) {
        me.tally.fail(failure, wrong);
        continue;
      }
      (b != nullptr ? me.traced_ms : me.ms).push_back(ms);
    }
    me.connects = tx.connects();
  };

  const std::string err = run_threads(kConns + 1, [&](unsigned t) {
    if (t == kConns) {
      publisher(per[t]);
    } else {
      client(t, per[t]);
    }
  });
  const double window_s = seconds_since(window_start);
  const Counters delta = Counters::take() - before;
  if (!err.empty()) out.fail("serve: " + err, false);

  std::vector<double> lat, traced;
  std::uint64_t requests_attempted = 0, connects = 0;
  for (unsigned t = 0; t <= kConns; ++t) {
    if (t < kConns) {
      lat.insert(lat.end(), per[t].ms.begin(), per[t].ms.end());
      traced.insert(traced.end(), per[t].traced_ms.begin(), per[t].traced_ms.end());
      requests_attempted += per[t].tally.attempted;
      connects += per[t].connects;
    }
    out.absorb(per[t].tally);
  }
  const PerThread& pubs = per[kConns];
  const std::vector<double>& publish_ms = pubs.ms;
  const tre::daemon::Daemon::Stats ds = tred.stats();
  if (ds.error_replies > 0) out.fail("tred sent error replies", false);
  if (connects != kConns) out.fail("clients reconnected", false);

  const double replies = static_cast<double>(lat.size() + traced.size());
  const double per_s = replies / window_s;
  // The JSON tail is p90, as on the other workloads: p99 here is set by
  // the host descheduling a thread for a few hundred microseconds, and in
  // a noisy spell its run-to-run spread reached 0.38. p99 is still printed.
  const double p50 = quantile(lat, 0.5), p90 = quantile(lat, 0.9), p99 = quantile(lat, 0.99);
  const double pub_p50 = median(publish_ms);
  const double setup = median(setup_s);
  out.put(out.e2e, "setup_s", setup, "s");
  out.put(out.e2e, "throughput_per_s", per_s, "1/s");
  out.put(out.e2e, "latency_ms_tail", p90, "ms");
  out.put(out.e2e, "side_op_ms_mean", mean(publish_ms), "ms");

  out.put(out.named, "setup_s", setup, "s");
  out.put(out.named, "serve.requests_per_s", per_s, "1/s");
  out.put(out.named, "serve.latency_us_p50", p50 * 1e3, "us");
  out.put(out.named, "serve.latency_us_mean", mean(lat) * 1e3, "us");
  out.put(out.named, "serve.latency_us_p90", p90 * 1e3, "us");
  out.put(out.named, "serve.latency_us_p99", p99 * 1e3, "us");
  out.put(out.named, "serve.publish_ms_p50", pub_p50, "ms");
  out.put(out.named, "serve.publish_ms_mean", mean(publish_ms), "ms");
  out.put(out.named, "serve.replies", replies, "count");
  out.put(out.named, "serve.publishes",
          static_cast<double>(pubs.ms.size() + pubs.traced_ms.size()), "count");
  out.put(out.named, "serve.daemon_error_replies", static_cast<double>(ds.error_replies),
          "count");
  out.put(out.named, "serve.reconnects",
          static_cast<double>(connects - std::min<std::uint64_t>(connects, kConns)), "count");

  if (opt.trace) {
    ProbeInputs in;
    in.server = &f.server->key_pair_for_baselines();
    in.tags.assign(f.tags.begin(), f.tags.begin() + kArchive);
    in.wires.assign(f.wires.begin(), f.wires.begin() + kArchive);
    in.store = f.store.get();
    in.port = tred.port();
    in.seed = opt.seed;
    Breakdown bd;
    bd.op = "serve.request";
    bd.client = {"client.roundtrip", "client.range", "client.key"};
    bd.delta = delta;
    bd.ops_in_window = static_cast<double>(requests_attempted);
    bd.connects = static_cast<double>(connects);
    bd.attr_op = "serve.publish";
    bd.attr_ops_in_window = static_cast<double>(pubs.tally.attempted);
    const double overhead = ratio_or_zero(median(traced), median(lat)) - 1;
    emit_layers(out, SpanStats{tracer.merged()}, bd, probe_layers(in), overhead);
    write_trace(tracer, opt, out);
  }
  return out;
}

}  // namespace jb
