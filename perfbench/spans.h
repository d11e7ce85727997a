// The benchmark's own spans, recorded around its calls into each layer.
//
// A span has a name "<layer>.<call>", a start and end on the monotonic
// clock, the id of the span that caused it (0 for a root) and a request id
// shared by every span of one request.  Each thread appends to its own
// SpanBuffer; buffers are bounded (spans beyond the capacity are counted
// and dropped) and are written out once, after the run, as Chrome trace
// JSON.  Self time of a span is its duration minus the time its child spans
// cover; summed by layer it says where a sampled request spent its time.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string "<layer>.<call>"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;  // 0: a set-up or check phase, not a request
  uint32_t thread = 0;
};

class SpanBuffer {
 public:
  SpanBuffer(uint32_t thread, size_t capacity)
      : thread_(thread), capacity_(capacity) {
    spans_.reserve(capacity);
  }

  // Records a finished span; returns its id, or 0 when the buffer is full.
  uint64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent, uint64_t request);
  // Reserves an id for a span whose children are recorded before it ends;
  // Close() then records it under that id (false when the buffer is full).
  uint64_t Open() { return NextId(); }
  bool Close(uint64_t id, const char* name, uint64_t start_ns,
             uint64_t end_ns, uint64_t parent, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint64_t NextId() {
    return (static_cast<uint64_t>(thread_) << 40) | ++next_;
  }

  uint32_t thread_;
  size_t capacity_;
  uint64_t next_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// Owns the per-thread buffers of one run.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity_per_thread)
      : capacity_(capacity_per_thread) {}

  // A fresh buffer for the calling thread; valid until the log dies.
  SpanBuffer* NewBuffer();

  std::vector<Span> All() const;
  uint64_t dropped() const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// Layer of a span: the part of its name before the first '.'.
std::string LayerOf(const char* name);

// Self time per layer, in nanoseconds, over the spans whose request id is
// not 0 (the sampled requests).
std::map<std::string, double> SelfNanosByLayer(const std::vector<Span>& spans);

// Chrome trace_event JSON ("X" events, microseconds) with each span's id,
// parent and request in args.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
