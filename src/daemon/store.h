// The one archive: a thread-safe store of PRE-SERIALIZED artifacts —
// the paper's public "list of old key updates" (§3).
//
// tred never parses what it serves. Updates enter as the exact bytes
// core::BasicKeyUpdate<B>::to_bytes() produced and leave the same way;
// the pairing check that decides whether those bytes mean anything runs
// in the client (the paper's self-authentication argument — §3 — is
// what makes an untrusted byte-shuffling server safe). Keeping the store
// backend-free also means one daemon binary serves either curve: the
// set name in the key reply tells receivers which codec to parse with.
// The time server (timeserver/timeserver.h) and the simnet origin and
// replicas (simnet/mirrors.h) keep their archives here too, decoding
// with the backend codec only where they need a typed update back.
//
// Updates and a beacon node's own partials are two lanes of the same
// shape — publication order plus a tag index — under one
// no-equivocation rule: an identical re-publish is a no-op, a different
// one is refused with Errc::kConflict and the first bytes stay served.
//
// Concurrency: a shared_mutex. The event loop only reads; a publisher
// thread (a TimeServer hitting a granule boundary, tre_cli serve's
// backfill) may put() concurrently. Reads are the hot path — the lock is
// uncontended-shared in steady state.
#pragma once

#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"

namespace tre::daemon {

class Store {
 public:
  /// Installs the key served for kGetKey. `set_name` routes receivers to
  /// the right backend codec ("tre-512", "bls12-381", ...).
  void set_server_key(std::string set_name, Bytes pub_wire);

  /// (set name, public key bytes); empty pub when never configured.
  std::pair<std::string, Bytes> server_key() const;

  /// Archives `wire` under `tag`, publication order preserved.
  /// Idempotent for identical bytes; a CONFLICTING re-publish is refused
  /// (returns Errc::kConflict) — the daemon must never equivocate, and a
  /// refusal is data, not an exception across the event loop.
  Result<bool> put(const std::string& tag, Bytes wire);

  std::optional<Bytes> find(std::string_view tag) const;

  /// Up to `max_count` updates starting at publication position `start`,
  /// additionally capped so the encoded reply stays within
  /// `max_reply_bytes`. `total` reports the archive size so a catch-up
  /// client can tell a capped reply from the end of history.
  struct RangeView {
    std::uint64_t total = 0;
    std::vector<Bytes> updates;
  };
  RangeView range(std::uint64_t start, std::uint32_t max_count,
                  size_t max_reply_bytes) const;

  /// Archives this beacon node's PARTIAL update wire bytes
  /// (threshold::BasicPartialUpdate<B>::to_bytes) under `tag`, same
  /// no-equivocation rule as put(). A daemon serving partials is one
  /// node of a t-of-n beacon: it stores its OWN share's partial per
  /// tag, never anyone else's.
  Result<bool> put_partial(const std::string& tag, Bytes wire);

  std::optional<Bytes> find_partial(std::string_view tag) const;

  /// range() over the partial lane, in publication order.
  RangeView partial_range(std::uint64_t start, std::uint32_t max_count,
                          size_t max_reply_bytes) const;

  size_t size() const;
  size_t total_bytes() const;

 private:
  struct Lane {
    std::vector<std::pair<std::string, Bytes>> ordered;  // (tag, wire)
    std::unordered_map<std::string, size_t> index;       // tag -> position

    Result<bool> put(const std::string& tag, Bytes wire, size_t& total_bytes);
    std::optional<Bytes> find(std::string_view tag) const;
    RangeView range(std::uint64_t start, std::uint32_t max_count,
                    size_t max_reply_bytes) const;
  };

  mutable std::shared_mutex mu_;
  std::string set_name_;
  Bytes pub_;
  Lane updates_;
  Lane partials_;
  size_t total_bytes_ = 0;
};

}  // namespace tre::daemon
