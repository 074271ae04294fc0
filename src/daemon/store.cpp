#include "daemon/store.h"

namespace tre::daemon {

Result<bool> Store::Lane::put(const std::string& tag, Bytes wire,
                              size_t& total_bytes) {
  auto it = index.find(tag);
  if (it != index.end()) {
    if (ordered[it->second].second != wire) return Errc::kConflict;
    return false;  // identical re-publish: nothing to do
  }
  index.emplace(tag, ordered.size());
  total_bytes += wire.size();
  ordered.emplace_back(tag, std::move(wire));
  return true;
}

std::optional<Bytes> Store::Lane::find(std::string_view tag) const {
  auto it = index.find(std::string(tag));
  if (it == index.end()) return std::nullopt;
  return ordered[it->second].second;
}

Store::RangeView Store::Lane::range(std::uint64_t start, std::uint32_t max_count,
                                    size_t max_reply_bytes) const {
  RangeView view;
  view.total = ordered.size();
  // Reply framing overhead per item is 4 length bytes; leave room for
  // the fixed 20-byte range header too.
  size_t budget = max_reply_bytes > 20 ? max_reply_bytes - 20 : 0;
  for (std::uint64_t i = start;
       i < view.total && view.updates.size() < max_count; ++i) {
    const Bytes& wire = ordered[static_cast<size_t>(i)].second;
    if (wire.size() + 4 > budget) break;
    budget -= wire.size() + 4;
    view.updates.push_back(wire);
  }
  return view;
}

void Store::set_server_key(std::string set_name, Bytes pub_wire) {
  std::unique_lock lock(mu_);
  set_name_ = std::move(set_name);
  pub_ = std::move(pub_wire);
}

std::pair<std::string, Bytes> Store::server_key() const {
  std::shared_lock lock(mu_);
  return {set_name_, pub_};
}

Result<bool> Store::put(const std::string& tag, Bytes wire) {
  std::unique_lock lock(mu_);
  return updates_.put(tag, std::move(wire), total_bytes_);
}

std::optional<Bytes> Store::find(std::string_view tag) const {
  std::shared_lock lock(mu_);
  return updates_.find(tag);
}

Store::RangeView Store::range(std::uint64_t start, std::uint32_t max_count,
                              size_t max_reply_bytes) const {
  std::shared_lock lock(mu_);
  return updates_.range(start, max_count, max_reply_bytes);
}

Result<bool> Store::put_partial(const std::string& tag, Bytes wire) {
  std::unique_lock lock(mu_);
  return partials_.put(tag, std::move(wire), total_bytes_);
}

std::optional<Bytes> Store::find_partial(std::string_view tag) const {
  std::shared_lock lock(mu_);
  return partials_.find(tag);
}

Store::RangeView Store::partial_range(std::uint64_t start, std::uint32_t max_count,
                                      size_t max_reply_bytes) const {
  std::shared_lock lock(mu_);
  return partials_.range(start, max_count, max_reply_bytes);
}

size_t Store::size() const {
  std::shared_lock lock(mu_);
  return updates_.ordered.size();
}

size_t Store::total_bytes() const {
  std::shared_lock lock(mu_);
  return total_bytes_;
}

}  // namespace tre::daemon
