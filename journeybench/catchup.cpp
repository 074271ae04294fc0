// Workload `catchup`: receivers come back after kArchive hourly epochs
// offline (~170 days). Each pages the whole archive from tred over its
// own connection, kPageItems per kGetRange page, through
// BasicUpdateFetcher::fetch_range_verified on a FRESH receiver scheme
// each pass (so every H1 is cold), then opens a kMailbox-ciphertext FO
// mailbox sealed under the newest epoch with open_batch.
//
// kReceivers of them run at once. One receiver alone is a single thread
// of serial G1 work, and its figures then follow the speed of whichever
// core it lands on; on a shared host that speed swings by up to ~1.8x
// within seconds, so several receivers on different cores are what make
// a run's median repeatable.
//
// A receiver's mailbox opens run alone on the host: pages of the other
// receivers finish first and none starts until the opens are done (see
// OpenGate). open_batch fans out on the process-wide work pool, so an open
// that overlaps other receivers' page verification measured the overlap:
// 60-95 ms alone against 110-210 ms overlapped on a 4-core VM, and the
// share of overlap differed from run to run by enough to spread
// side_op_ms_mean by 0.21-0.25 of its median. Each receiver stands in
// for its own machine, and there an open competes with nobody's catch-up.
// Time spent waiting at the gate is left out of every figure.
//
// Every pass calls fetch_range_verified itself. A traced pass times it
// from outside: a decorator around the transport spans each
// request_range (client.range) and notes when the page arrived, so the
// rest of the call — parse and batch verify, the fetcher's trust gate —
// is the core.range_gate span. Batch-verify time comes from the
// registry's core.bls381.batch_verify_ns histogram.
#include <condition_variable>

#include "client/fetcher.h"
#include "client/socket_transport.h"
#include "layers.h"

namespace jb {

namespace {

constexpr size_t kArchive = 4096;  ///< epochs the receiver missed
constexpr size_t kMailbox = 64;    ///< ciphertexts waiting under the newest epoch
constexpr int kMailboxOpens = 4;   ///< open_batch calls per pass, each on a fresh scheme
constexpr unsigned kReceivers = 3; ///< concurrent returning receivers (nproc - 1)

using Fetcher = tre::client::BasicUpdateFetcher<Bls381Backend>;
using PageResult = tre::client::BasicRangeFetchResult<Bls381Backend>;

/// The fetcher's transport, timed from outside the fetcher.
class TimedSource final : public tre::client::UpdateSource {
 public:
  explicit TimedSource(tre::client::SocketTransport& tx) : tx_(tx) {}

  /// Where request_range spans go; null for an untraced pass.
  void trace_into(Tracer::Buffer* buf) { buf_ = buf; }
  /// When the last request_range returned.
  std::uint64_t reply_ns() const { return reply_ns_; }

  size_t mirror_count() const override { return tx_.mirror_count(); }
  bool valid_mirror(size_t idx) const override { return tx_.valid_mirror(idx); }
  void request(size_t idx, const std::string& tag,
               std::function<void(tre::Bytes)> on_reply) override {
    tx_.request(idx, tag, std::move(on_reply));
  }
  std::optional<tre::client::RangePage> request_range(size_t idx, std::uint64_t start,
                                                      std::uint32_t max_count) override {
    std::optional<tre::client::RangePage> page;
    {
      Scope s(buf_, "client.range");
      page = tx_.request_range(idx, start, max_count);
    }
    reply_ns_ = now_ns();
    return page;
  }

 private:
  tre::client::SocketTransport& tx_;
  Tracer::Buffer* buf_ = nullptr;
  std::uint64_t reply_ns_ = 0;
};

/// Pages run concurrently; a mailbox open runs alone. An open waits for
/// the pages in flight, and a page waits while an open is waiting or
/// running, so opens are never starved by back-to-back pages.
class OpenGate {
 public:
  void enter_page() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return opens_ == 0; });
    ++pages_;
  }
  void leave_page() {
    std::lock_guard<std::mutex> lock(mu_);
    --pages_;
    cv_.notify_all();
  }
  void enter_open() {
    std::unique_lock<std::mutex> lock(mu_);
    ++opens_;
    cv_.wait(lock, [&] { return pages_ == 0 && !opening_; });
    opening_ = true;
  }
  void leave_open() {
    std::lock_guard<std::mutex> lock(mu_);
    --opens_;
    opening_ = false;
    cv_.notify_all();
  }

  /// Holds a page or an open slot for its lifetime. The time it took to
  /// get in is added to `waited_ns` and, on a traced pass, recorded as a
  /// catchup.wait span.
  class Slot {
   public:
    Slot(OpenGate& gate, bool open, Tracer::Buffer* buf, std::uint64_t& waited_ns)
        : gate_(gate), open_(open) {
      const std::uint64_t w0 = now_ns();
      open_ ? gate_.enter_open() : gate_.enter_page();
      const std::uint64_t w1 = now_ns();
      waited_ns += w1 - w0;
      if (buf != nullptr) buf->record("catchup.wait", w0, w1);
    }
    ~Slot() { open_ ? gate_.leave_open() : gate_.leave_page(); }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

   private:
    OpenGate& gate_;
    bool open_;
  };

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  unsigned pages_ = 0;  ///< pages in flight
  unsigned opens_ = 0;  ///< opens waiting or running
  bool opening_ = false;
};

struct Fixture {
  std::shared_ptr<tre::daemon::Store> store = std::make_shared<tre::daemon::Store>();
  std::unique_ptr<tre::server::Timeline> timeline;
  std::unique_ptr<TimeServer> server;
  std::vector<std::string> tags;
  std::vector<tre::Bytes> wires;
  tre::bls12::UserKey381 user;
  std::vector<Sealed> mailbox;
  std::vector<tre::Bytes> msgs;

  const tre::bls12::ServerPublicKey381& pub() const { return server->public_key(); }
};

Fixture setup(std::uint64_t seed) {
  const auto ctx = tre::bls12::Bls12Ctx::get();
  Fixture f;
  const std::vector<tre::server::TimeSpec> epochs = hourly_epochs(seed, kArchive);
  f.timeline = std::make_unique<tre::server::Timeline>(epochs.back().unix_seconds());
  tre::hashing::HmacDrbg server_rng = drbg("server", seed);
  f.server = std::make_unique<TimeServer>(ctx, *f.timeline, tre::server::Granularity::kHour,
                                          server_rng);
  const std::vector<Update> issued = f.server->issue_range(epochs.front(), epochs.back());
  for (const Update& u : issued) {
    f.tags.push_back(u.tag);
    f.wires.push_back(u.to_bytes());
    tre::require(f.store->put(u.tag, f.wires.back()).ok(), "catchup: store refused an epoch");
  }
  f.store->set_server_key(kSetName, f.pub().to_bytes());

  const Scheme scheme(ctx);
  tre::require(scheme.verify_update(f.pub(), issued.back()),
               "catchup: newest update does not verify");  // warms server-key lines
  tre::hashing::HmacDrbg user_rng = drbg("receiver", seed);
  f.user = scheme.user_keygen(f.pub(), user_rng);
  f.mailbox.resize(kMailbox);
  f.msgs.resize(kMailbox);
  tre::parallel_for(kMailbox, [&](size_t i) {
    tre::hashing::HmacDrbg rng = drbg("mail/" + std::to_string(i), seed);
    f.msgs[i] = rng.bytes(kMsgBytes);
    f.mailbox[i] = scheme.seal(tre::core::Mode::kFo, f.msgs[i], f.user.pub, f.pub(),
                               f.tags.back(), rng);
  });
  return f;
}

}  // namespace

Outcome run_catchup(const Options& opt) {
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
  tre::server::Timeline fetch_timeline;  // the range path schedules nothing

  // One returning receiver's tally.
  struct Receiver {
    Outcome tally;
    std::vector<double> page_ms, open_batch_ms, traced_pass_ms, untraced_pass_ms;
    double untraced_page_s = 0, untraced_verified = 0, verified = 0;
    std::uint64_t connects = 0;
    size_t passes = 0;
  };
  std::vector<Receiver> rcv(kReceivers);
  OpenGate gate;
  const Counters before = Counters::take();
  const std::uint64_t window_start = now_ns();
  const std::uint64_t deadline =
      window_start + static_cast<std::uint64_t>(opt.seconds * 1e9);

  const std::string err = run_threads(kReceivers, [&](unsigned t) {
    Receiver& me = rcv[t];
    Outcome& out = me.tally;
    Tracer::Buffer* buf = opt.trace ? tracer.new_buffer() : nullptr;
    tre::hashing::HmacDrbg rlc = drbg("rlc/" + std::to_string(t), opt.seed);
    const tre::Bytes fetcher_seed = drbg("fetcher/" + std::to_string(t), opt.seed).bytes(32);
    double last_pass_ns = 0;
    // In a traced run receivers alternate untraced and traced passes,
    // out of phase, so the first round already has both kinds. A pass
    // starts only if half of one still fits in the window.
    while (me.passes == 0 ||
           static_cast<double>(now_ns()) + last_pass_ns / 2 < static_cast<double>(deadline)) {
      const bool traced = opt.trace && (me.passes + t) % 2 == 1;
      Tracer::Buffer* b = traced ? buf : nullptr;
      if (b != nullptr) b->begin_op(me.passes);
      const std::uint64_t pass_t0 = now_ns();
      std::uint64_t waited_ns = 0;
      std::optional<Update> newest;
      {
        Scope pass(b, "catchup.pass");
        const Scheme rx(ctx);
        tre::client::SocketTransport tx({{"127.0.0.1", tred.port()}});
        TimedSource src(tx);
        src.trace_into(b);
        Fetcher fetcher(rx, f.pub(), src, fetch_timeline, {0}, fetcher_seed);
        for (std::uint64_t start = 0; start < kArchive; start += kPageItems) {
          const size_t want = std::min<size_t>(kPageItems, kArchive - start);
          out.attempted += want;
          std::optional<PageResult> page;
          std::uint64_t t0 = 0;
          {
            const OpenGate::Slot slot(gate, false, b, waited_ns);
            t0 = now_ns();
            Scope ps(b, "catchup.page");
            page = fetcher.fetch_range_verified(0, start, kPageItems);
            if (b != nullptr && page) b->record("core.range_gate", src.reply_ns(), now_ns());
          }
          const double ms = static_cast<double>(now_ns() - t0) / 1e6;

          // Every item must come back verified and byte-identical.
          if (!page) {
            out.fail("range page request failed", false, want);
            continue;
          }
          size_t good = 0;
          if (page->total == kArchive && page->start == start && page->served == want &&
              page->rejected_parse == 0 && page->rejected_sig == 0) {
            for (size_t k = 0; k < page->updates.size() && k < want; ++k) {
              if (page->updates[k].to_bytes() == f.wires[start + k]) ++good;
            }
          }
          if (good != want) {
            out.fail("catch-up page lost, rejected or altered updates", true, want - good);
          }
          me.verified += static_cast<double>(good);
          if (!page->updates.empty()) newest = page->updates.back();
          if (!traced) {
            me.page_ms.push_back(ms);
            me.untraced_page_s += ms / 1e3;
            me.untraced_verified += static_cast<double>(good);
          }
        }

        // The mailbox opens on the pass's own scheme first, then on fresh
        // ones (each a receiver process opening the same mailbox), so
        // every open_batch pays the same cold comb build.
        const OpenGate::Slot slot(gate, true, b, waited_ns);
        for (int m = 0; m < kMailboxOpens; ++m) {
          out.attempted += kMailbox;
          if (!newest || newest->tag != f.tags.back()) {
            out.fail("no verified update for the newest epoch", true, kMailbox);
            continue;
          }
          const Scheme opener = m == 0 ? rx : Scheme(ctx);
          const std::uint64_t t0 = now_ns();
          std::vector<std::optional<tre::Bytes>> opened;
          {
            Scope s(b, "core.open_batch");
            opened = opener.open_batch(f.mailbox, f.user.a, *newest, f.pub(), rlc);
          }
          const double ms = static_cast<double>(now_ns() - t0) / 1e6;
          size_t good = 0;
          for (size_t i = 0; i < kMailbox; ++i) {
            if (opened[i] && *opened[i] == f.msgs[i]) ++good;
          }
          if (good != kMailbox) {
            out.fail("mailbox plaintexts differ from the sealed ones", true, kMailbox - good);
          }
          if (!traced) me.open_batch_ms.push_back(ms);
        }
        me.connects += tx.connects();
      }
      last_pass_ns = static_cast<double>(now_ns() - pass_t0);
      (traced ? me.traced_pass_ms : me.untraced_pass_ms)
          .push_back((last_pass_ns - static_cast<double>(waited_ns)) / 1e6);
      ++me.passes;
    }
  });
  Outcome out;
  if (!err.empty()) out.fail("catchup: " + err, false);
  std::vector<double> page_ms, open_batch_ms, traced_pass_ms, untraced_pass_ms;
  double untraced_page_s = 0, untraced_verified = 0, verified = 0;
  std::uint64_t connects = 0;
  size_t passes = 0;
  for (const Receiver& r : rcv) {
    out.absorb(r.tally);
    page_ms.insert(page_ms.end(), r.page_ms.begin(), r.page_ms.end());
    open_batch_ms.insert(open_batch_ms.end(), r.open_batch_ms.begin(), r.open_batch_ms.end());
    traced_pass_ms.insert(traced_pass_ms.end(), r.traced_pass_ms.begin(), r.traced_pass_ms.end());
    untraced_pass_ms.insert(untraced_pass_ms.end(), r.untraced_pass_ms.begin(),
                            r.untraced_pass_ms.end());
    untraced_page_s += r.untraced_page_s;
    untraced_verified += r.untraced_verified;
    verified += r.verified;
    connects += r.connects;
    passes += r.passes;
  }
  const Counters delta = Counters::take() - before;
  const tre::daemon::Daemon::Stats ds = tred.stats();
  if (ds.error_replies > 0) out.fail("tred sent error replies", false);
  if (connects != passes) out.fail("a receiver reconnected within a pass", false);

  // Per receiver: each pages on one core, so the rate of one returning
  // receiver is verified items over that receiver's own page time.
  const double per_s = untraced_verified / untraced_page_s;
  const double p50 = quantile(page_ms, 0.5), p90 = quantile(page_ms, 0.9);
  const double ob = mean(open_batch_ms);
  const double setup = median(setup_s);
  out.put(out.e2e, "setup_s", setup, "s");
  out.put(out.e2e, "throughput_per_s", per_s, "1/s");
  out.put(out.e2e, "latency_ms_tail", p90, "ms");
  out.put(out.e2e, "side_op_ms_mean", ob, "ms");

  out.put(out.named, "setup_s", setup, "s");
  out.put(out.named, "catchup.verified_per_s", per_s, "1/s");
  out.put(out.named, "catchup.mailbox_open_ms", ob, "ms");
  out.put(out.named, "catchup.page_ms_p50", p50, "ms");
  out.put(out.named, "catchup.page_ms_mean", mean(page_ms), "ms");
  out.put(out.named, "catchup.page_ms_p90", p90, "ms");
  out.put(out.named, "catchup.passes", static_cast<double>(passes), "count");
  out.put(out.named, "catchup.verified", verified, "count");
  out.put(out.named, "catchup.h1_misses", delta["core.bls381.cache.tags.miss"], "count");
  out.put(out.named, "catchup.h1_hits", delta["core.bls381.cache.tags.hit"], "count");
  out.put(out.named, "catchup.daemon_error_replies", static_cast<double>(ds.error_replies),
          "count");
  out.put(out.named, "catchup.reconnects",
          static_cast<double>(connects - std::min<std::uint64_t>(connects, passes)), "count");

  if (opt.trace) {
    ProbeInputs in;
    in.server = &f.server->key_pair_for_baselines();
    in.tags = f.tags;
    in.wires = f.wires;
    in.store = f.store.get();
    in.port = tred.port();
    in.seed = opt.seed;
    const SpanStats spans{tracer.merged()};
    Breakdown bd;
    bd.op = "catchup.pass";
    bd.idle = {"catchup.wait"};
    bd.client = {"client.range"};
    bd.core = {"core.range_gate", "core.open_batch"};
    bd.delta = delta;
    bd.ops_in_window = static_cast<double>(passes);
    bd.items_in_window = verified;
    bd.connects = static_cast<double>(connects);
    // Every batch verify of the window is a fetched page's (open_batch
    // does not batch-verify), traced passes and untraced alike.
    const double bv_ns = delta["core.bls381.batch_verify_ns.sum"];
    bd.path_values["core.batch_verify_us_per_item"] = ratio_or_zero(bv_ns, verified) / 1e3;
    const double gate_ms = spans.mean_ns("core.range_gate") / 1e6;
    const double bv_page_ms =
        ratio_or_zero(bv_ns, delta["core.bls381.batch_verify_ns.count"]) / 1e6;
    char line[160];
    std::snprintf(line, sizeof line,
                  " core.range_gate per page %.4f ms: batch verify %.4f ms (registry), "
                  "parse + fetcher bookkeeping %.4f ms",
                  gate_ms, bv_page_ms, gate_ms - bv_page_ms);
    out.report.emplace_back(line);
    const double overhead =
        ratio_or_zero(median(traced_pass_ms), median(untraced_pass_ms)) - 1;
    emit_layers(out, spans, bd, probe_layers(in), overhead);
    write_trace(tracer, opt, out);
  }
  return out;
}

}  // namespace jb
