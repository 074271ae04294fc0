// Mirrored update archive over the simulated network.
//
// The paper's server keeps old updates "at a publicly accessible place";
// at planetary scale that place is a set of replicas. The origin pushes
// each new update to every mirror over its link; receivers poll their
// assigned mirror with bounded retry until the update is present. What
// the model surfaces (experiments E16/E18):
//   * availability latency — how long after the release instant a
//     receiver actually holds the update (replication + poll delay),
//   * origin offload — requests absorbed by mirrors instead of the
//     origin, the reason the passive-server design scales reads,
//   * Byzantine tolerance — mirrors are UNTRUSTED; with a FaultPlan
//     installed on the Network, a replica may serve corrupted,
//     relabelled, or garbage bytes, or none at all. Receivers survive
//     because updates self-authenticate (ê(sG,H1(T)) == ê(G,I_T)), the
//     check client/fetcher.h builds its pipeline on.
//
// The origin and every replica keep a daemon::Store of wire bytes —
// replication carries the bytes, and an honest replica serves them as
// stored.
//
// Backend-generic: BasicMirroredArchive<B> replicates whichever
// backend's updates the server broadcasts; the trust boundary in fetch()
// uses that backend's wire codec, so e.g. a type-1 update served to a
// BLS12-381 receiver is rejected at parse time. `MirroredArchive` is the
// type-1 instantiation.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "core/tre.h"
#include "daemon/store.h"
#include "simnet/network.h"
#include "threshold/threshold.h"

namespace tre::simnet {

namespace detail {

// Fleet-wide mirrors of the per-instance counters, plus per-behaviour
// breakdown of dishonest replies (compiled out under -DTRE_METRICS=OFF).
// Shared across backends: replication traffic is replication traffic.
struct MirrorProbes {
  obs::CounterProbe publishes{"simnet.archive.publishes"};
  obs::CounterProbe replication_messages{"simnet.archive.replication_messages"};
  obs::CounterProbe origin_requests{"simnet.archive.origin_requests"};
  obs::CounterProbe mirror_requests{"simnet.archive.mirror_requests"};
  obs::CounterProbe byzantine_replies{"simnet.archive.byzantine_replies"};
  obs::CounterProbe byzantine_bitflip{"simnet.archive.byzantine.bitflip"};
  obs::CounterProbe byzantine_relabel{"simnet.archive.byzantine.relabel"};
  obs::CounterProbe byzantine_garbage{"simnet.archive.byzantine.garbage"};
  obs::CounterProbe fetch_successes{"simnet.archive.fetch_successes"};
  obs::CounterProbe fetch_rejected{"simnet.archive.fetch_rejected"};
  obs::CounterProbe fetch_timeouts{"simnet.archive.fetch_timeouts"};
  // Threshold-beacon traffic: mirrors doubling as beacon nodes serving
  // their own partial updates.
  obs::CounterProbe partial_publishes{"simnet.archive.partial_publishes"};
  obs::CounterProbe partial_requests{"simnet.archive.partial_requests"};
};

inline const MirrorProbes& mirror_probes() {
  static const MirrorProbes p;
  return p;
}

}  // namespace detail

template <class B>
class BasicMirroredArchive {
 public:
  /// Builds origin + `mirror_count` mirrors, all linked to the origin
  /// with `replication_link`. `params` is needed receiver-side: fetched
  /// bytes are parsed (and possibly rejected) at the trust boundary.
  BasicMirroredArchive(std::shared_ptr<const typename B::Params> params,
                       Network& net, server::Timeline& timeline,
                       size_t mirror_count, LinkSpec replication_link)
      : params_(std::move(params)),
        net_(net),
        timeline_(timeline),
        origin_(net.add_node("origin")) {
    require(params_ != nullptr, "MirroredArchive: null params");
    mirrors_.reserve(mirror_count);
    for (size_t i = 0; i < mirror_count; ++i) {
      NodeId node = net_.add_node("mirror-" + std::to_string(i));
      net_.connect(origin_, node, replication_link);
      mirrors_.push_back(Replica{node, std::make_unique<daemon::Store>()});
    }
  }

  NodeId origin() const { return origin_; }
  size_t mirror_count() const { return mirrors_.size(); }

  NodeId mirror_node(size_t idx) const {
    require(idx < mirrors_.size(), "MirroredArchive: bad mirror index");
    return mirrors_[idx].node;
  }

  /// Origin-side: stores locally and pushes one copy of the wire bytes
  /// per mirror. A mirror that is crashed (per the fault plan) at the
  /// replication arrival instant misses the update until a later
  /// publish. A different update for an already-published tag throws:
  /// the origin never equivocates.
  void publish(const core::BasicKeyUpdate<B>& update) {
    publishes_.add();
    detail::mirror_probes().publishes.add();
    Bytes wire = update.to_bytes();
    require(origin_archive_.put(update.tag, wire).ok(),
            "MirroredArchive: conflicting update for the same tag");
    for (size_t i = 0; i < mirrors_.size(); ++i) {
      replication_messages_.add();
      detail::mirror_probes().replication_messages.add();
      // Bytes captured by value: the mirror stores them at arrival time.
      // Its put cannot conflict — the origin, its only writer, already
      // refused any conflicting update above.
      net_.send(origin_, mirrors_[i].node, wire.size(),
                [this, i, tag = update.tag, wire] {
                  (void)mirrors_[i].archive->put(tag, wire);
                });
    }
  }

  static constexpr size_t kOrigin = static_cast<size_t>(-1);

  /// One wire-level request/response round trip: `on_reply` receives the
  /// served bytes exactly as the replica chose to send them — honest
  /// mirrors serve the stored `KeyUpdate` bytes, Byzantine mirrors (per the
  /// network's FaultPlan) may serve corrupted/relabelled/garbage bytes.
  /// No callback fires when the update is absent, a leg is lost, or the
  /// mirror stays silent; the CALLER owns retry timing. This is the
  /// primitive client::UpdateFetcher drives.
  void request(NodeId receiver, size_t mirror_idx, std::string tag,
               LinkSpec access_link, std::function<void(Bytes)> on_reply) {
    require(mirror_idx == kOrigin || mirror_idx < mirrors_.size(),
            "MirroredArchive: bad mirror index");
    NodeId target = node_for(mirror_idx);
    net_.connect(receiver, target, access_link);
    if (mirror_idx == kOrigin) {
      origin_requests_.add();
      detail::mirror_probes().origin_requests.add();
    } else {
      mirror_requests_.add();
      detail::mirror_probes().mirror_requests.add();
    }
    // Request leg; the replica decides its reply (if any) at arrival time.
    size_t request_bytes = tag.size();  // before the move below
    net_.send(receiver, target, request_bytes,
              [this, receiver, mirror_idx, target, tag = std::move(tag),
               on_reply = std::move(on_reply)]() mutable {
                std::optional<Bytes> reply = replica_reply(mirror_idx, tag);
                if (!reply) return;
                size_t wire = reply->size();
                net_.send(target, receiver, wire,
                          [bytes = std::move(*reply),
                           on_reply = std::move(on_reply)] { on_reply(bytes); });
              });
  }

  /// Beacon-node side: mirror `mirror_idx` doubles as node i of a t-of-n
  /// threshold beacon and stores ITS OWN partial update for later
  /// serving. There is no origin replication here — partials originate
  /// at the node that holds the share. Re-publishing the same partial is
  /// a no-op; a DIFFERENT partial for a stored tag throws and the first
  /// one stays served, as publish() refuses a conflicting update.
  void publish_partial(size_t mirror_idx,
                       const threshold::BasicPartialUpdate<B>& partial) {
    require(mirror_idx < mirrors_.size(), "MirroredArchive: bad mirror index");
    detail::mirror_probes().partial_publishes.add();
    daemon::Store& store = *mirrors_[mirror_idx].archive;
    require(store.put_partial(partial.tag, partial.to_bytes()).ok(),
            "MirroredArchive: conflicting partial for the same tag");
  }

  /// Wire-level beacon reply, synchronous (quorum collection is a bulk
  /// path — see UpdateSource::request_partial): what mirror `mirror_idx`
  /// puts on the wire for its partial on `tag`. Honest nodes serve the
  /// stored PartialUpdate bytes; Byzantine nodes (per the network's
  /// FaultPlan) serve bit-flipped, relabelled, or garbage bytes; crashed
  /// or dropping nodes stay silent (nullopt).
  std::optional<Bytes> partial_reply(size_t mirror_idx, const std::string& tag) {
    require(mirror_idx < mirrors_.size(), "MirroredArchive: bad mirror index");
    detail::mirror_probes().partial_requests.add();
    FaultPlan* plan = net_.fault_plan();
    NodeId node = mirrors_[mirror_idx].node;
    if (plan && !plan->node_up(node, timeline_.now())) {
      return std::nullopt;  // crashed
    }
    const daemon::Store& store = *mirrors_[mirror_idx].archive;
    std::optional<Bytes> found = store.find_partial(tag);

    ByzantineMode mode = ByzantineMode::kHonest;
    if (plan) mode = plan->behaviour(node);
    switch (mode) {
      case ByzantineMode::kHonest:
        return found;
      case ByzantineMode::kDrop:
        return std::nullopt;
      case ByzantineMode::kBitFlip:
        if (!found) return std::nullopt;
        count_byzantine(detail::mirror_probes().byzantine_bitflip);
        return plan->flip_one_bit(*found);
      case ByzantineMode::kRelabel: {
        // Serve some OTHER tag's partial signature under the requested
        // tag — well-formed bytes that fail the pairing check. Tags are
        // unique per lane, so of the two oldest entries at least one is
        // another tag's.
        for (const Bytes& wire : store.partial_range(0, 2, kUnbounded).updates) {
          if (found && wire == *found) continue;
          auto other = threshold::BasicPartialUpdate<B>::from_bytes(*params_, wire);
          count_byzantine(detail::mirror_probes().byzantine_relabel);
          return threshold::BasicPartialUpdate<B>{other.index, tag, other.sig}
              .to_bytes();
        }
        if (!found) return std::nullopt;
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(found->size());
      }
      case ByzantineMode::kGarbage: {
        size_t len = found ? found->size() : 4 + tag.size() + B::gu_wire_bytes(*params_);
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(len);
      }
    }
    return std::nullopt;
  }

  /// Receiver-side convenience poller: polls `mirror_idx` (or the origin
  /// when mirror_idx == kOrigin) over `access_link` until a reply parses
  /// as an update for `tag` (and passes `verify` when provided), then
  /// invokes `done` with it. Retries use exponential backoff starting at
  /// `poll_period` seconds (doubling per poll, capped at 8×). A reply
  /// that is garbage, relabelled, or unverifiable counts as a failed
  /// poll and is recorded in Stats::fetch_rejected. Gives up after
  /// `max_polls` polls. For the hardened multi-mirror pipeline
  /// (failover, health, jittered backoff) use client::UpdateFetcher.
  void fetch(NodeId receiver, size_t mirror_idx, std::string tag,
             LinkSpec access_link, std::int64_t poll_period, size_t max_polls,
             std::function<void(const core::BasicKeyUpdate<B>&)> done,
             std::function<bool(const core::BasicKeyUpdate<B>&)> verify = nullptr) {
    require(mirror_idx == kOrigin || mirror_idx < mirrors_.size(),
            "MirroredArchive: bad mirror index");
    require(poll_period > 0, "MirroredArchive: poll period must be positive");
    auto job = std::make_shared<FetchJob>();
    job->receiver = receiver;
    job->mirror_idx = mirror_idx;
    job->tag = std::move(tag);
    job->access_link = access_link;
    job->base_period = poll_period;
    job->polls_left = max_polls;
    job->on_done = std::move(done);
    job->verify = std::move(verify);
    poll_once(std::move(job));
  }

  /// Point-in-time view over the instance registry (mirrored into
  /// obs::Registry::global() as simnet.archive.*).
  struct Stats {
    std::uint64_t publishes = 0;
    std::uint64_t replication_messages = 0;
    std::uint64_t origin_requests = 0;
    std::uint64_t mirror_requests = 0;
    std::uint64_t byzantine_replies = 0;  // dishonest bytes actually served
    std::uint64_t fetch_successes = 0;
    std::uint64_t fetch_rejected = 0;     // replies discarded by fetch()
    std::uint64_t fetch_timeouts = 0;
  };

  Stats stats() const {
    return Stats{publishes_.value(),         replication_messages_.value(),
                 origin_requests_.value(),   mirror_requests_.value(),
                 byzantine_replies_.value(), fetch_successes_.value(),
                 fetch_rejected_.value(),    fetch_timeouts_.value()};
  }

  /// The instance-local registry backing stats() (snapshot/export hook).
  const obs::Registry& metrics() const { return reg_; }

 private:
  // A replica's store holds the updates replicated from the origin and,
  // when it doubles as a beacon node, its own partials.
  struct Replica {
    NodeId node;
    std::unique_ptr<daemon::Store> archive;
  };

  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  void count_byzantine(const obs::CounterProbe& breakdown) {
    byzantine_replies_.add();
    detail::mirror_probes().byzantine_replies.add();
    breakdown.add();
  }

  struct FetchJob {
    NodeId receiver;
    size_t mirror_idx;
    std::string tag;
    LinkSpec access_link;
    std::int64_t base_period;
    size_t polls_left;
    size_t backoff_shift = 0;  // doubling exponent, capped at 8× the base
    bool done = false;
    bool timed_out = false;
    std::function<void(const core::BasicKeyUpdate<B>&)> on_done;
    std::function<bool(const core::BasicKeyUpdate<B>&)> verify;
  };

  NodeId node_for(size_t mirror_idx) const {
    return mirror_idx == kOrigin ? origin_ : mirrors_[mirror_idx].node;
  }

  const daemon::Store& archive_for(size_t mirror_idx) const {
    return mirror_idx == kOrigin ? origin_archive_ : *mirrors_[mirror_idx].archive;
  }

  /// What the replica puts on the wire for `tag` (empty = stay silent).
  std::optional<Bytes> replica_reply(size_t mirror_idx, const std::string& tag) {
    const daemon::Store& archive = archive_for(mirror_idx);
    std::optional<Bytes> found = archive.find(tag);

    ByzantineMode mode = ByzantineMode::kHonest;
    FaultPlan* plan = net_.fault_plan();
    // The origin is the server's own box; only mirrors go Byzantine.
    if (plan && mirror_idx != kOrigin) mode = plan->behaviour(node_for(mirror_idx));

    switch (mode) {
      case ByzantineMode::kHonest:
        return found;
      case ByzantineMode::kDrop:
        return std::nullopt;
      case ByzantineMode::kBitFlip:
        if (!found) return std::nullopt;  // nothing to corrupt yet
        count_byzantine(detail::mirror_probes().byzantine_bitflip);
        return plan->flip_one_bit(*found);
      case ByzantineMode::kRelabel: {
        // Serve the newest OTHER archived update's signature under the
        // requested tag — a well-formed point that fails
        // self-authentication. Tags are unique, so it is one of the two
        // newest entries.
        daemon::Store::RangeView last = archive.range(
            archive.size() < 2 ? 0 : archive.size() - 2, 2, kUnbounded);
        for (auto it = last.updates.rbegin(); it != last.updates.rend(); ++it) {
          if (found && *it == *found) continue;
          auto other = core::BasicKeyUpdate<B>::from_bytes(*params_, *it);
          count_byzantine(detail::mirror_probes().byzantine_relabel);
          return core::BasicKeyUpdate<B>{tag, other.sig}.to_bytes();
        }
        if (last.updates.empty()) return std::nullopt;
        // Only the requested update exists: degrade to garbage of honest size.
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(found->size());
      }
      case ByzantineMode::kGarbage: {
        size_t len = found ? found->size() : tag.size() + 2 + B::gu_wire_bytes(*params_);
        count_byzantine(detail::mirror_probes().byzantine_garbage);
        return plan->garbage(len);
      }
    }
    return std::nullopt;
  }

  void poll_once(std::shared_ptr<FetchJob> job) {
    if (job->done || job->timed_out) return;
    if (job->polls_left == 0) {
      job->timed_out = true;
      fetch_timeouts_.add();
      detail::mirror_probes().fetch_timeouts.add();
      return;
    }
    --job->polls_left;
    request(job->receiver, job->mirror_idx, job->tag, job->access_link,
            [this, job](Bytes wire) {
              if (job->done || job->timed_out) return;
              // The trust boundary: bytes from an untrusted replica must
              // parse, carry the requested tag (relabelling is an attack),
              // and pass the caller's verification before acceptance.
              std::optional<core::BasicKeyUpdate<B>> parsed =
                  core::BasicKeyUpdate<B>::try_from_bytes(*params_, wire);
              if (!parsed || parsed->tag != job->tag ||
                  (job->verify && !job->verify(*parsed))) {
                fetch_rejected_.add();  // a failed poll; retry is already armed
                detail::mirror_probes().fetch_rejected.add();
                return;
              }
              job->done = true;
              fetch_successes_.add();
              detail::mirror_probes().fetch_successes.add();
              job->on_done(*parsed);
            });
    // Receiver-driven exponential backoff: the next poll fires whether or
    // not the replica answers (absence and garbage cost the same).
    std::int64_t delay = job->base_period
                         << std::min<size_t>(job->backoff_shift, 3);
    ++job->backoff_shift;
    timeline_.schedule(delay, [this, job] { poll_once(job); });
  }

  std::shared_ptr<const typename B::Params> params_;
  Network& net_;
  server::Timeline& timeline_;
  NodeId origin_;
  daemon::Store origin_archive_;
  std::vector<Replica> mirrors_;
  // Instance accounting in a private registry; handles resolved once
  // because registry lookup takes a lock.
  obs::Registry reg_;
  obs::Counter& publishes_ = reg_.counter("publishes");
  obs::Counter& replication_messages_ = reg_.counter("replication_messages");
  obs::Counter& origin_requests_ = reg_.counter("origin_requests");
  obs::Counter& mirror_requests_ = reg_.counter("mirror_requests");
  obs::Counter& byzantine_replies_ = reg_.counter("byzantine_replies");
  obs::Counter& fetch_successes_ = reg_.counter("fetch_successes");
  obs::Counter& fetch_rejected_ = reg_.counter("fetch_rejected");
  obs::Counter& fetch_timeouts_ = reg_.counter("fetch_timeouts");
};

using MirroredArchive = BasicMirroredArchive<core::Tre512Backend>;

extern template class BasicMirroredArchive<core::Tre512Backend>;

}  // namespace tre::simnet
