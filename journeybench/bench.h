// Shared pieces of the receiver-journey benchmark: options, seeded
// inputs, the in-process loopback tred, sample statistics, the traced
// run's span recorder and the result every workload returns.
//
// Everything here sits OUTSIDE the libraries under test: spans wrap the
// benchmark's own calls into each layer's public functions, and the
// obs::Registry counters are only read.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bls12/tre381.h"
#include "daemon/daemon.h"
#include "daemon/store.h"
#include "hashing/drbg.h"
#include "obs/metrics.h"
#include "timeserver/timeserver.h"

namespace jb {

using tre::bls12::Bls381Backend;
using Scheme = tre::bls12::Tre381Scheme;
using Update = tre::bls12::Update381;
using Sealed = tre::bls12::SealedCiphertext381;
using TimeServer = tre::server::BasicTimeServer<Bls381Backend>;

/// The benchmark's set name in the kGetKey reply.
inline constexpr const char* kSetName = "bls12-381";
/// Plaintext size of every sealed message.
inline constexpr size_t kMsgBytes = 256;
/// Catch-up page size: tred's per-kGetRange cap.
inline constexpr std::uint32_t kPageItems = 512;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced run); empty = none
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

// --- Seeded inputs -----------------------------------------------------------

/// An HMAC-DRBG keyed by (label, seed): every key, tag, message and RLC
/// draw of a run comes from one of these, so a seed fixes the inputs.
inline tre::hashing::HmacDrbg drbg(const std::string& label, std::uint64_t seed) {
  return tre::hashing::HmacDrbg(
      tre::to_bytes("journeybench/" + label + "/" + std::to_string(seed)));
}

/// `count` consecutive canonical hourly TimeSpecs ("2027-03-14T09Z"),
/// starting at a seed-chosen hour in 2026..2035.
inline std::vector<tre::server::TimeSpec> hourly_epochs(std::uint64_t seed, size_t count) {
  tre::hashing::HmacDrbg rng = drbg("epochs", seed);
  tre::Bytes draw = rng.bytes(4);
  std::uint64_t offset_h =
      ((std::uint64_t{draw[0]} << 24) | (std::uint64_t{draw[1]} << 16) |
       (std::uint64_t{draw[2]} << 8) | draw[3]) % (10 * 8760);
  const std::int64_t start = 1767225600 + static_cast<std::int64_t>(offset_h) * 3600;
  std::vector<tre::server::TimeSpec> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(tre::server::TimeSpec::from_unix(
        start + static_cast<std::int64_t>(i) * 3600, tre::server::Granularity::kHour));
  }
  return out;
}

// --- Statistics --------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- Results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main: the result line's counters,
/// the end-to-end metrics (generic names shared by every workload), the
/// same figures under their workload-specific names for the report,
/// and, in a traced run, the per-layer metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  ///< first few failure descriptions
  std::vector<Metric> e2e;
  std::vector<Metric> named;   ///< e.g. release.journey_ms_p50
  std::vector<Metric> layer;
  std::vector<std::string> report;  ///< traced-run report lines

  /// Records `count` failed operations with one description.
  void fail(std::string what, bool wrong_output, std::uint64_t count = 1) {
    failed += count;
    if (wrong_output) correct = false;
    if (problems.size() < 8) problems.push_back(std::move(what));
  }
  /// Folds a worker thread's tally into this one.
  void absorb(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    correct = correct && o.correct;
    for (const std::string& p : o.problems) {
      if (problems.size() < 8) problems.push_back(p);
    }
  }
  void put(std::vector<Metric>& into, std::string name, double value, std::string unit) {
    into.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

// --- Loopback tred -----------------------------------------------------------

/// tred (daemon::Daemon over a daemon::Store) on 127.0.0.1, its poll loop
/// on one thread of this process. Stops and joins on destruction.
class Tred {
 public:
  explicit Tred(std::shared_ptr<tre::daemon::Store> store)
      : daemon_(std::move(store), config()), loop_([this] { daemon_.run(); }) {}
  ~Tred() {
    daemon_.stop();
    loop_.join();
  }
  Tred(const Tred&) = delete;
  Tred& operator=(const Tred&) = delete;

  std::uint16_t port() const { return daemon_.port(); }
  tre::daemon::Daemon::Stats stats() const { return daemon_.stats(); }

 private:
  static tre::daemon::DaemonConfig config() {
    tre::daemon::DaemonConfig c;
    c.idle_timeout_ms = 600000;  // receivers idle through set-up phases
    c.max_range_items = kPageItems;
    return c;
  }

  tre::daemon::Daemon daemon_;
  std::thread loop_;
};

// --- Registry counters, read from outside ------------------------------------

/// Global-registry counters and histogram totals at one instant; the
/// difference of two snapshots is what a window of work did.
struct Counters {
  std::map<std::string, double> v;

  static Counters take() {
    static const char* const kNames[] = {
        "core.bls381.pairings",        "core.bls381.finalexp",
        "core.bls381.multiexp.points", "core.bls381.cache.tags.hit",
        "core.bls381.cache.tags.miss", "core.bls381.pair.lines.hit",
        "core.bls381.pair.lines.miss", "core.bls381.cache.combs.hit",
        "core.bls381.cache.combs.miss", "core.bls381.mul.comb",
        "core.bls381.mul.fixed_base",  "core.bls381.mul.varying_base",
        "core.bls381.updates_issued",  "daemon.requests",
        "daemon.error_replies",        "daemon.accepted"};
    tre::obs::Registry& reg = tre::obs::Registry::global();
    Counters c;
    for (const char* n : kNames) c.v[n] = static_cast<double>(reg.counter_value(n));
    for (const char* n : {"daemon.request_ns", "core.bls381.batch_verify_ns"}) {
      tre::obs::Histogram& h = reg.histogram(n);
      c.v[std::string(n) + ".sum"] = static_cast<double>(h.sum());
      c.v[std::string(n) + ".count"] = static_cast<double>(h.count());
    }
    return c;
  }
  Counters operator-(const Counters& base) const {
    Counters d;
    for (const auto& [k, x] : v) {
      auto it = base.v.find(k);
      d.v[k] = x - (it == base.v.end() ? 0 : it->second);
    }
    return d;
  }
  Counters& operator+=(const Counters& o) {
    for (const auto& [k, x] : o.v) v[k] += x;
    return *this;
  }
  double operator[](const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0 : it->second;
  }
};

// --- Traced run: in-memory spans ---------------------------------------------

/// Span recorder for the traced run. Each thread records into its own
/// Buffer (no locking on the hot path); a span's parent is the span open
/// on the same thread when it began, and every span carries the id of
/// the operation (journey, pass, request) that caused it. Layer self
/// times are derived from these spans in emit_layers (layers.h).
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t op;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  ///< index in the same buffer; -1 = root
  };
  /// Every duration a span name recorded, in ns.
  struct Agg {
    std::vector<double> total_ns;
  };

  class Buffer {
   public:
    void begin_op(std::uint64_t op) { op_ = op; }

    /// Records a span that has already ended, as a child of the span
    /// open on this buffer: for work timed from a call's edges rather
    /// than around the call (see catchup's trust-gate span).
    void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
      const std::int64_t parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
      spans_.push_back(Span{name, op_, start_ns, end_ns, parent});
      agg_[name].total_ns.push_back(static_cast<double>(end_ns - start_ns));
    }

   private:
    friend class Tracer;
    friend class Scope;
    std::vector<Span> spans_;  ///< capped raw record, written at exit
    std::vector<size_t> open_;  ///< indices of the spans still open
    std::unordered_map<const char*, Agg> agg_;  ///< keyed by the name literal
    std::uint64_t op_ = 0;
    std::uint64_t dropped_ = 0;
  };

  /// Raw span records kept per buffer (aggregates are never capped).
  static constexpr size_t kMaxSpansPerBuffer = 50000;

  /// The buffer the calling thread records into; one per call site
  /// thread, owned by the tracer.
  Buffer* new_buffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    return buffers_.back().get();
  }

  /// Aggregates merged across buffers (call once recording has stopped).
  std::map<std::string, Agg> merged() const;

  /// Writes every kept span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span on a buffer; a null buffer (untraced operation) records
/// nothing and costs one branch.
class Scope {
 public:
  Scope(Tracer::Buffer* buf, const char* name) : buf_(buf) {
    if (buf_ == nullptr) return;
    name_ = name;
    const std::int64_t parent =
        buf_->open_.empty() ? -1 : static_cast<std::int64_t>(buf_->open_.back());
    index_ = buf_->spans_.size();
    buf_->spans_.push_back(Tracer::Span{name, buf_->op_, now_ns(), 0, parent});
    buf_->open_.push_back(index_);
  }
  ~Scope() {
    if (buf_ == nullptr) return;
    Tracer::Span& s = buf_->spans_[index_];
    s.end_ns = now_ns();
    buf_->open_.pop_back();
    buf_->agg_[name_].total_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
    // Past the cap a root span's record is dropped once it closes (its
    // children are gone too), so the kept file stays a prefix of whole
    // operations.
    if (buf_->open_.empty() && buf_->spans_.size() > Tracer::kMaxSpansPerBuffer) {
      buf_->dropped_ += buf_->spans_.size() - index_;
      buf_->spans_.resize(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::Buffer* buf_;
  const char* name_ = nullptr;
  size_t index_ = 0;
};

/// Per-name aggregate lookups over Tracer::merged().
struct SpanStats {
  std::map<std::string, Tracer::Agg> agg;

  bool has(const std::string& n) const {
    auto it = agg.find(n);
    return it != agg.end() && !it->second.total_ns.empty();
  }
  size_t count(const std::string& n) const {
    return has(n) ? agg.at(n).total_ns.size() : 0;
  }
  /// Median duration of span `n` in ns (0 when absent).
  double median_ns(const std::string& n) const { return has(n) ? median(agg.at(n).total_ns) : 0; }
  double mean_ns(const std::string& n) const { return has(n) ? mean(agg.at(n).total_ns) : 0; }
};

// --- Threads ----------------------------------------------------------------

/// Runs fn(0) .. fn(n-1) on n threads and joins every one. An exception
/// escaping a thread is caught there; the first message is returned
/// ("" when all finished cleanly).
inline std::string run_threads(unsigned n, const std::function<void(unsigned)>& fn) {
  std::mutex mu;
  std::string first_error;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.empty()) first_error = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return first_error;
}

/// Writes the traced run's spans where main asked for them.
inline void write_trace(const Tracer& tracer, const Options& opt, Outcome& out) {
  if (opt.trace_out.empty()) return;
  out.report.push_back(tracer.write(opt.trace_out) ? "spans written to " + opt.trace_out
                                                   : "could not write " + opt.trace_out);
}

// --- Workload entry points ---------------------------------------------------

/// Set-up is run `kSetups` times per run (serve: kServeSetups); setup_s
/// is their median.
inline constexpr int kSetups = 3;

Outcome run_release(const Options& opt);
Outcome run_catchup(const Options& opt);
Outcome run_serve(const Options& opt);

}  // namespace jb
