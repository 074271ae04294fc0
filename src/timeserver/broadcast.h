// One-way broadcast channel simulation (the GPS analogy of §3).
//
// The server publishes; subscribers receive with configurable per-delivery
// loss probability and delay jitter, all deterministic under a seed.
// Receivers that miss an update fall back to the server's archive (the
// daemon::Store behind TimeServer::archive()) — the examples exercise
// exactly that path, and experiment E7 measures the store.
//
// Backend-generic: the bus carries BasicKeyUpdate<B> for whichever
// pairing backend the server runs on; `BroadcastBus` is the type-1
// instantiation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "bigint/bigint.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "timeserver/timeline.h"

namespace tre::server {

template <class B>
class BasicBroadcastBus {
 public:
  using Handler = std::function<void(const core::BasicKeyUpdate<B>&)>;
  using SubscriberId = size_t;

  explicit BasicBroadcastBus(Timeline& timeline, ByteSpan seed = {})
      : timeline_(timeline),
        rng_(seed.empty() ? ByteSpan(to_bytes("broadcast-bus-default")) : seed) {}

  SubscriberId subscribe(Handler handler) {
    require(handler != nullptr, "BroadcastBus: null handler");
    subscribers_.push_back(Subscriber{next_id_, std::move(handler)});
    return next_id_++;
  }

  void unsubscribe(SubscriberId id) {
    std::erase_if(subscribers_, [id](const Subscriber& s) { return s.id == id; });
  }

  /// Per-delivery drop probability in [0, 1].
  void set_loss_probability(double p) {
    require(p >= 0.0 && p <= 1.0, "BroadcastBus: loss probability out of range");
    loss_probability_ = p;
  }

  /// Uniform delivery delay in [min, max] seconds.
  void set_delay_range(std::int64_t min_seconds, std::int64_t max_seconds) {
    require(0 <= min_seconds && min_seconds <= max_seconds,
            "BroadcastBus: bad delay range");
    delay_min_ = min_seconds;
    delay_max_ = max_seconds;
  }

  /// Per-publish delivery accounting: which subscribers got a scheduled
  /// delivery and which the lossy medium silently dropped. Cumulative
  /// totals stay in Stats; this surfaces each call's gaps as data so the
  /// publisher can react (re-broadcast, archive pointer, …) instead of
  /// the loss disappearing into a counter.
  struct PublishOutcome {
    std::uint64_t scheduled = 0;         // deliveries scheduled this call
    std::uint64_t lost = 0;              // subscribers the medium dropped
    std::vector<SubscriberId> missed;    // exactly who lost this update
    bool complete() const { return lost == 0; }
  };

  /// Schedules delivery to every live subscriber (loss/delay applied
  /// independently per subscriber) and reports the outcome.
  PublishOutcome publish(const core::BasicKeyUpdate<B>& update) {
    PublishOutcome outcome;
    ++stats_.published;
    // The server transmits once regardless of audience size — that is the
    // scheme's scalability claim; per-subscriber loss/delay model the
    // receive side of a shared medium.
    stats_.bytes_broadcast += update.to_bytes().size();
    for (const auto& sub : subscribers_) {
      Bytes draw = rng_.bytes(8);
      double u = static_cast<double>(bigint::BigInt<1>::from_bytes_be(draw).w[0]) /
                 static_cast<double>(UINT64_MAX);
      if (u < loss_probability_) {
        ++stats_.drops;
        ++outcome.lost;
        outcome.missed.push_back(sub.id);
        continue;
      }
      std::int64_t delay = delay_min_;
      if (delay_max_ > delay_min_) {
        Bytes jitter = rng_.bytes(8);
        delay += static_cast<std::int64_t>(
            bigint::BigInt<1>::from_bytes_be(jitter).w[0] %
            static_cast<std::uint64_t>(delay_max_ - delay_min_ + 1));
      }
      ++stats_.deliveries;
      ++outcome.scheduled;
      // Copy update and handler by value: subscriber list may change before
      // the event fires.
      Handler handler = sub.handler;
      core::BasicKeyUpdate<B> copy = update;
      timeline_.schedule(delay, [handler = std::move(handler),
                                 copy = std::move(copy)] { handler(copy); });
    }
    return outcome;
  }

  struct Stats {
    std::uint64_t published = 0;       // publish() calls
    std::uint64_t deliveries = 0;      // per-subscriber deliveries scheduled
    std::uint64_t drops = 0;           // per-subscriber losses
    std::uint64_t bytes_broadcast = 0; // wire bytes sent by the server
  };
  const Stats& stats() const { return stats_; }
  size_t subscriber_count() const { return subscribers_.size(); }

 private:
  struct Subscriber {
    SubscriberId id;
    Handler handler;
  };

  Timeline& timeline_;
  hashing::HmacDrbg rng_;
  std::vector<Subscriber> subscribers_;
  SubscriberId next_id_ = 0;
  double loss_probability_ = 0.0;
  std::int64_t delay_min_ = 0;
  std::int64_t delay_max_ = 0;
  Stats stats_;
};

using BroadcastBus = BasicBroadcastBus<core::Tre512Backend>;

extern template class BasicBroadcastBus<core::Tre512Backend>;

}  // namespace tre::server
