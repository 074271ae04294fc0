#include <cstdio>

#include "bench.h"

namespace jb {

std::map<std::string, Tracer::Agg> Tracer::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Agg> out;
  for (const auto& b : buffers_) {
    for (const auto& [name, a] : b->agg_) {
      Agg& m = out[name];
      m.total_ns.insert(m.total_ns.end(), a.total_ns.begin(), a.total_ns.end());
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const Buffer& b = *buffers_[t];
    for (size_t i = 0; i < b.spans_.size(); ++i) {
      const Span& s = b.spans_[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%lld,\"op\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   t, i, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    if (b.dropped_ > 0) {
      std::fprintf(f, "{\"thread\":%zu,\"dropped_spans\":%llu}\n", t,
                   static_cast<unsigned long long>(b.dropped_));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace jb
