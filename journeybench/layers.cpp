#include "layers.h"

#include <cstdio>
#include <functional>

#include "client/socket_transport.h"
#include "hashing/kdf.h"

namespace jb {

namespace {

using tre::bls12::Bls12Ctx;
using tre::bls12::G1Point381;

/// Median wall time of `fn()` over `reps` calls, in ns.
double median_call_ns(int reps, const std::function<void()>& fn) {
  std::vector<double> ns;
  ns.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(ns));
}

/// Tags for probes that need more distinct points than the workload has.
std::vector<std::string> probe_tags(const ProbeInputs& in, size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(i < in.tags.size() ? in.tags[i]
                                     : in.tags.front() + "/probe" + std::to_string(i));
  }
  return out;
}

}  // namespace

const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      {"daemon.request_ns_mean", "ns"},
      {"daemon.wait_us_mean", "us"},
      {"daemon.requests", "count"},
      {"daemon.error_replies", "count"},
      {"store.put_us", "us"},
      {"store.range_ms", "ms"},
      {"client.roundtrip_us", "us"},
      {"client.range_ms", "ms"},
      {"client.connects", "count"},
      {"core.parse_us", "us"},
      {"core.verify_update_ms", "ms"},
      {"core.batch_verify_us_per_item", "us"},
      {"core.open_ms", "ms"},
      {"core.open_batch_ms", "ms"},
      {"core.seal_ms", "ms"},
      {"core.pairings_per_op", "count"},
      {"core.multiexp_points_per_item", "count"},
      {"core.tag_cache_hit_ratio", "ratio"},
      {"core.lines_cache_hit_ratio", "ratio"},
      {"core.comb_cache_misses", "count"},
      {"bls12.hash_to_g1_us", "us"},
      {"bls12.g1_from_bytes_us", "us"},
      {"bls12.g1_in_subgroup_us", "us"},
      {"bls12.g1_multiexp_us_per_point", "us"},
      {"bls12.g1_mul_us", "us"},
      {"bls12.g2_mul_us", "us"},
      {"bls12.miller_loop_ms", "ms"},
      {"bls12.final_exp_ms", "ms"},
      {"timeserver.issue_us", "us"},
      {"hashing.oracle_us", "us"},
      {"trace.overhead_frac", "frac"},
      {"trace.op_ms", "ms"},
      {"self.client_frac", "frac"},
      {"self.daemon_frac", "frac"},
      {"self.core_frac", "frac"},
      {"self.unattributed_frac", "frac"},
      {"attr.hash_to_g1_frac", "frac"},
      {"attr.g1_decode_frac", "frac"},
      {"attr.pairing_frac", "frac"},
      {"attr.multiexp_frac", "frac"},
      {"attr.g2_mul_frac", "frac"},
      {"attr.g1_mul_frac", "frac"},
      {"attr.unattributed_frac", "frac"},
  };
  return specs;
}

double ratio_or_zero(double num, double den) { return den > 0 ? num / den : 0; }

std::map<std::string, double> probe_layers(const ProbeInputs& in) {
  tre::require(in.server != nullptr && in.store != nullptr && !in.tags.empty() &&
                   in.tags.size() == in.wires.size(),
               "probe_layers: incomplete inputs");
  const auto ctx = Bls12Ctx::get();
  const auto& pub = in.server->pub;
  tre::hashing::HmacDrbg rng = drbg("probe", in.seed);
  std::map<std::string, double> v;

  // --- bls12, on the workload's own tags and update bytes ---------------------
  const size_t n_items = std::min<size_t>(in.tags.size(), 64);
  std::vector<G1Point381> h1;
  std::vector<tre::Bytes> sig_bytes;
  for (size_t i = 0; i < n_items; ++i) {
    h1.push_back(ctx->hash_to_g1(tre::to_bytes(in.tags[i])));
    const tre::Bytes& w = in.wires[i];
    const size_t g1_len = 1 + ctx->fp()->byte_len;
    sig_bytes.emplace_back(w.end() - static_cast<long>(g1_len), w.end());
  }
  size_t k = 0;
  v["bls12.hash_to_g1_us"] =
      median_call_ns(64, [&] { (void)ctx->hash_to_g1(tre::to_bytes(in.tags[k++ % n_items])); }) /
      1e3;
  std::vector<G1Point381> sigs;
  for (const tre::Bytes& b : sig_bytes) sigs.push_back(ctx->g1_from_bytes(b));
  k = 0;
  v["bls12.g1_from_bytes_us"] =
      median_call_ns(64, [&] { (void)ctx->g1_from_bytes(sig_bytes[k++ % n_items]); }) / 1e3;
  k = 0;
  v["bls12.g1_in_subgroup_us"] =
      median_call_ns(64, [&] { (void)ctx->g1_in_subgroup(sigs[k++ % n_items]); }) / 1e3;

  {
    // Page-sized multi-exp with 128-bit RLC scalars, as batch verify runs it.
    std::vector<std::string> tags = probe_tags(in, kPageItems);
    std::vector<G1Point381> pts;
    std::vector<tre::bls12::Scalar> sc;
    for (const std::string& t : tags) {
      pts.push_back(ctx->hash_to_g1(tre::to_bytes(t)));
      sc.push_back(tre::bls12::Scalar::from_bytes_be(rng.bytes(16)));
    }
    v["bls12.g1_multiexp_us_per_point"] =
        median_call_ns(3, [&] { (void)ctx->g1_multiexp(pts, sc); }) / 1e3 /
        static_cast<double>(pts.size());
  }
  const tre::bls12::Scalar s1 = ctx->random_scalar(rng);
  v["bls12.g1_mul_us"] = median_call_ns(32, [&] { (void)ctx->g1_mul(h1[0], s1); }) / 1e3;
  v["bls12.g2_mul_us"] = median_call_ns(16, [&] { (void)ctx->g2_mul(pub.g, s1); }) / 1e3;
  {
    const auto u = ctx->g2_mul(pub.g, s1);
    const auto prepared = ctx->prepare_g2(u);
    tre::bls12::Fp12 f = ctx->miller_loop(h1[0], *prepared);
    v["bls12.miller_loop_ms"] =
        median_call_ns(8, [&] { f = ctx->miller_loop(h1[0], *prepared); }) / 1e6;
    v["bls12.final_exp_ms"] =
        median_call_ns(8, [&] { (void)ctx->final_exponentiation(f); }) / 1e6;
  }

  // --- hashing: the FO message mask at the benchmark's message size -----------
  const tre::Bytes sigma = rng.bytes(32);
  v["hashing.oracle_us"] =
      median_call_ns(200, [&] { (void)tre::hashing::oracle_bytes("TRE-H4", sigma, kMsgBytes); }) /
      1e3;

  // --- timeserver: issue_for on fresh instants --------------------------------
  {
    std::vector<tre::server::TimeSpec> at = hourly_epochs(in.seed ^ 0x9e3779b9, 16);
    tre::server::Timeline timeline(at.back().unix_seconds());
    tre::hashing::HmacDrbg ts_rng = drbg("probe-timeserver", in.seed);
    TimeServer ts(ctx, timeline, tre::server::Granularity::kHour, ts_rng);
    k = 0;
    v["timeserver.issue_us"] = median_call_ns(16, [&] { (void)ts.issue_for(at[k++]); }) / 1e3;
  }

  // --- daemon store -----------------------------------------------------------
  {
    tre::daemon::Store probe_store;
    k = 0;
    v["store.put_us"] = median_call_ns(128, [&] {
                          const size_t i = k++;
                          (void)probe_store.put(in.tags[0] + "/put" + std::to_string(i),
                                            in.wires[i % in.wires.size()]);
                        }) /
                        1e3;
    v["store.range_ms"] = median_call_ns(8, [&] {
                            (void)in.store->range(0, kPageItems, tre::daemon::kMaxPayload);
                          }) /
                          1e6;
  }

  // --- client, against the workload's own tred ---------------------------------
  {
    tre::client::SocketTransport tx({{"127.0.0.1", in.port}});
    k = 0;
    v["client.roundtrip_us"] = median_call_ns(200, [&] {
                                 tx.request(0, in.tags[k++ % in.tags.size()],
                                            [](tre::Bytes) {});
                               }) /
                               1e3;
    v["client.range_ms"] =
        median_call_ns(8, [&] { (void)tx.request_range(0, 0, kPageItems); }) / 1e6;
  }

  // --- core, on a probe receiver of the workload's server ---------------------
  {
    const Scheme sender(ctx);
    const auto user = sender.user_keygen(pub, rng);
    const std::string& tag = in.tags[0];
    const Update update = Update::from_bytes(*ctx, in.wires[0]);
    k = 0;
    v["core.parse_us"] =
        median_call_ns(64, [&] { (void)Update::try_from_bytes(*ctx, in.wires[k++ % n_items]); }) /
        1e3;
    v["core.verify_update_ms"] = median_call_ns(8, [&] {
                                   const Scheme fresh(ctx);
                                   (void)fresh.verify_update(pub, update);
                                 }) /
                                 1e6;
    {
      std::vector<Update> batch;
      for (size_t i = 0; i < n_items; ++i) batch.push_back(Update::from_bytes(*ctx, in.wires[i]));
      v["core.batch_verify_us_per_item"] =
          median_call_ns(3, [&] {
            const Scheme fresh(ctx);
            (void)fresh.verify_updates_batch(pub, batch, rng);
          }) /
          1e3 / static_cast<double>(batch.size());
    }
    std::vector<Sealed> cts;
    std::vector<tre::Bytes> msgs;
    v["core.seal_ms"] = median_call_ns(16, [&] {
                          msgs.push_back(rng.bytes(kMsgBytes));
                          cts.push_back(sender.seal(tre::core::Mode::kFo, msgs.back(),
                                                    user.pub, pub, tag, rng));
                        }) /
                        1e6;
    k = 0;
    v["core.open_ms"] = median_call_ns(8, [&] {
                          const Scheme fresh(ctx);
                          (void)fresh.open(cts[k++], user.a, update, pub);
                        }) /
                        1e6;
    v["core.open_batch_ms"] = median_call_ns(3, [&] {
                                const Scheme fresh(ctx);
                                (void)fresh.open_batch(cts, user.a, update, pub, rng);
                              }) /
                              1e6;
  }
  return v;
}

void emit_layers(Outcome& out, const SpanStats& spans, const Breakdown& bd,
                 std::map<std::string, double> v, double overhead_frac) {
  // Spans on the workload's path replace the probe figures.
  struct FromSpan {
    const char* span;
    const char* metric;
    double scale;  ///< ns -> metric unit
  };
  static const FromSpan kFromSpans[] = {
      {"client.roundtrip", "client.roundtrip_us", 1e3},
      {"client.range", "client.range_ms", 1e6},
      {"core.parse", "core.parse_us", 1e3},
      {"core.verify_update", "core.verify_update_ms", 1e6},
      {"core.open", "core.open_ms", 1e6},
      {"core.open_batch", "core.open_batch_ms", 1e6},
      {"core.seal", "core.seal_ms", 1e6},
      {"store.put", "store.put_us", 1e3},
      {"timeserver.issue", "timeserver.issue_us", 1e3},
  };
  std::vector<std::string> on_path;
  for (const FromSpan& f : kFromSpans) {
    if (spans.has(f.span)) {
      v[f.metric] = spans.median_ns(f.span) / f.scale;
      on_path.push_back(f.metric);
    }
  }
  for (const auto& [metric, value] : bd.path_values) {
    v[metric] = value;
    on_path.push_back(metric);
  }

  const Counters& d = bd.delta;
  const double ops = std::max(1.0, bd.ops_in_window);
  const double req_mean_ns =
      ratio_or_zero(d["daemon.request_ns.sum"], d["daemon.request_ns.count"]);
  v["daemon.request_ns_mean"] = req_mean_ns;
  v["daemon.requests"] = d["daemon.requests"];
  v["daemon.error_replies"] = d["daemon.error_replies"];
  v["client.connects"] = bd.connects;

  // Client round trips inside the op: their mean minus the daemon's busy
  // time per request is what a request spent waiting (kernel, loopback,
  // poll wake-up, queueing behind other connections).
  double client_ns = 0;
  double client_n = 0;
  for (const std::string& c : bd.client) {
    client_ns += spans.mean_ns(c) * static_cast<double>(spans.count(c));
    client_n += static_cast<double>(spans.count(c));
  }
  const double client_mean_ns = ratio_or_zero(client_ns, client_n);
  v["daemon.wait_us_mean"] = (client_mean_ns - req_mean_ns) / 1e3;

  v["core.pairings_per_op"] = d["core.bls381.pairings"] / ops;
  v["core.multiexp_points_per_item"] =
      ratio_or_zero(d["core.bls381.multiexp.points"], bd.items_in_window);
  v["core.tag_cache_hit_ratio"] =
      ratio_or_zero(d["core.bls381.cache.tags.hit"],
                    d["core.bls381.cache.tags.hit"] + d["core.bls381.cache.tags.miss"]);
  v["core.lines_cache_hit_ratio"] =
      ratio_or_zero(d["core.bls381.pair.lines.hit"],
                    d["core.bls381.pair.lines.hit"] + d["core.bls381.pair.lines.miss"]);
  v["core.comb_cache_misses"] = d["core.bls381.cache.combs.miss"] / ops;
  v["trace.overhead_frac"] = overhead_frac;

  // Self-time split of one traced op. Every client span is one daemon
  // request, so the daemon's share per op is its mean busy time times the
  // requests per op; the client layer keeps the rest of its spans.
  // Shares go into the JSON (a share is meaningful across hosts, and a
  // layer absent from a workload reads 0 rather than a constant time);
  // the report lines give the milliseconds.
  const double traced_ops = static_cast<double>(std::max<size_t>(1, spans.count(bd.op)));
  double idle_ns = 0;
  for (const std::string& w : bd.idle) {
    idle_ns += spans.mean_ns(w) * static_cast<double>(spans.count(w)) / traced_ops;
  }
  const double op_ms = (spans.mean_ns(bd.op) - idle_ns) / 1e6;
  double core_ns = 0;
  for (const std::string& c : bd.core) {
    core_ns += spans.mean_ns(c) * static_cast<double>(spans.count(c)) / traced_ops;
  }
  const double daemon_ns = req_mean_ns * client_n / traced_ops;
  struct Part {
    const char* name;
    double ms;
  };
  const Part self[] = {
      {"self.client_frac", (client_ns / traced_ops - daemon_ns) / 1e6},
      {"self.daemon_frac", daemon_ns / 1e6},
      {"self.core_frac", core_ns / 1e6},
      {"self.unattributed_frac", op_ms - (core_ns + client_ns / traced_ops) / 1e6},
  };

  // bls12 attribution: unit cost x registry count per op of the window;
  // what these units (and, when the op is the one split above, the client
  // and daemon layers) do not explain is the unattributed remainder.
  const bool own_op = bd.attr_op.empty();
  const std::string& aop = own_op ? bd.op : bd.attr_op;
  const double aops = own_op ? ops : std::max(1.0, bd.attr_ops_in_window);
  const double aop_ms = own_op ? op_ms : spans.mean_ns(aop) / 1e6;
  // Every update the op verified was parsed (decompressed and
  // subgroup-checked) once; the publish op parses none.
  const double parses_per_op = own_op ? bd.items_in_window / aops : 0;
  Part attr[] = {
      {"attr.hash_to_g1_frac",
       d["core.bls381.cache.tags.miss"] / aops * v["bls12.hash_to_g1_us"] / 1e3},
      {"attr.g1_decode_frac", parses_per_op * v["bls12.g1_from_bytes_us"] / 1e3},
      {"attr.pairing_frac", d["core.bls381.pairings"] / aops * v["bls12.miller_loop_ms"] +
                                d["core.bls381.finalexp"] / aops * v["bls12.final_exp_ms"]},
      {"attr.multiexp_frac",
       d["core.bls381.multiexp.points"] / aops * v["bls12.g1_multiexp_us_per_point"] / 1e3},
      {"attr.g2_mul_frac", (d["core.bls381.mul.comb"] + d["core.bls381.mul.fixed_base"]) / aops *
                               v["bls12.g2_mul_us"] / 1e3},
      {"attr.g1_mul_frac", d["core.bls381.updates_issued"] / aops * v["bls12.g1_mul_us"] / 1e3},
      {"attr.unattributed_frac", 0},
  };
  double explained_ms = own_op ? self[0].ms + self[1].ms : 0;
  for (const Part& p : attr) explained_ms += p.ms;
  attr[std::size(attr) - 1].ms = aop_ms - explained_ms;
  v["trace.op_ms"] = op_ms;
  for (const Part& p : self) v[p.name] = ratio_or_zero(p.ms, op_ms);
  for (const Part& p : attr) v[p.name] = ratio_or_zero(p.ms, aop_ms);

  for (const LayerSpec& s : layer_specs()) {
    auto it = v.find(s.name);
    if (it == v.end()) throw tre::Error(std::string("per-layer metric not produced: ") + s.name);
    out.put(out.layer, s.name, it->second, s.unit);
  }

  // Report lines.
  char line[256];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    out.report.emplace_back(line);
  };
  add("traced op '%s': %zu traced, mean %.4f ms", bd.op.c_str(), spans.count(bd.op), op_ms);
  if (idle_ns > 0) add("  (%.4f ms per op waiting on other threads left out)", idle_ns / 1e6);
  auto share = [&](const Part& p, double of_ms) {
    add("  %-26s %10.4f ms  %6.2f%%", p.name, p.ms, of_ms > 0 ? 100.0 * p.ms / of_ms : 0.0);
  };
  add(" layer self time per op:");
  for (const Part& p : self) share(p, op_ms);
  add(" bls12 attribution per '%s' op, mean %.4f ms (unit cost x registry count):", aop.c_str(),
      aop_ms);
  for (const Part& p : attr) share(p, aop_ms);
  add(" trace.overhead_frac %.4f (traced vs untraced ops of this run)", overhead_frac);
  std::string src = "  on the workload's path (spans, registry deltas):";
  for (const std::string& m : on_path) src += " " + m;
  out.report.push_back(src);
  out.report.emplace_back("  every other time metric: unit-cost probe on this workload's data");
}

}  // namespace jb
