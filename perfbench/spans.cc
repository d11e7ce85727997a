#include "spans.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

uint64_t SpanBuffer::Record(const char* name, uint64_t start_ns,
                            uint64_t end_ns, uint64_t parent,
                            uint64_t request) {
  const uint64_t id = NextId();
  return Close(id, name, start_ns, end_ns, parent, request) ? id : 0;
}

bool SpanBuffer::Close(uint64_t id, const char* name, uint64_t start_ns,
                       uint64_t end_ns, uint64_t parent, uint64_t request) {
  if (spans_.size() >= capacity_) {
    dropped_++;
    return false;
  }
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, request, thread_});
  return true;
}

SpanBuffer* SpanLog::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(
      static_cast<uint32_t>(buffers_.size() + 1), capacity_));
  return buffers_.back().get();
}

std::vector<Span> SpanLog::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans().begin(), b->spans().end());
  }
  return all;
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) {
    n += b->dropped();
  }
  return n;
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

std::map<std::string, double> SelfNanosByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_ns;
  for (const Span& s : spans) {
    if (s.request != 0 && s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    if (s.request == 0) {
      continue;
    }
    const auto it = child_ns.find(s.id);
    const double children = it == child_ns.end() ? 0.0 : it->second;
    self[LayerOf(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns) - children;
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) {
    t0 = s.start_ns < t0 ? s.start_ns : t0;
  }
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}",
                  first ? "" : ",", s.name, LayerOf(s.name).c_str(), s.thread,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
