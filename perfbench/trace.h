// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer: its name, start and end on the
// steady clock, the span that caused it (its parent) and the slot it served.
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; the library itself carries no tracing.  Each
// recording thread appends to its own pre-reserved buffer, so recording
// takes no lock; the buffers are merged and written out once the run ends.
//
// A layer's self time is its spans' durations minus the parts covered by
// their child spans.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds on the steady clock since the first call in this process.
inline double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int64_t id = -1;
  int64_t parent = -1;  // -1: a root span
  uint64_t slot = 0;
};

class Tracer {
 public:
  // `threads` recording threads (ids 0..threads-1); disabled tracers record
  // nothing and every call is a single branch.
  Tracer(bool enabled, uint32_t threads) : enabled_(enabled), buf_(threads) {
    if (enabled_) {
      for (auto& b : buf_) b.reserve(1 << 14);
    }
  }

  bool enabled() const { return enabled_; }

  // Opens a span on thread `th`; returns its id (-1 when disabled).
  int64_t begin(uint32_t th, const char* name, uint64_t slot,
                int64_t parent = -1) {
    if (!enabled_) return -1;
    auto& b = buf_[th];
    Span s;
    s.name = name;
    s.id = static_cast<int64_t>((static_cast<uint64_t>(b.size()) << 8) | th);
    s.parent = parent;
    s.slot = slot;
    s.start = now_s();
    b.push_back(s);
    return s.id;
  }

  void end(int64_t id) {
    if (id < 0) return;
    buf_[id & 0xff][static_cast<size_t>(id >> 8)].end = now_s();
  }

  // Every recorded span, thread buffers concatenated.
  std::vector<Span> spans() const {
    std::vector<Span> all;
    for (const auto& b : buf_) all.insert(all.end(), b.begin(), b.end());
    return all;
  }

  // Per layer name: summed self time in seconds and span count.
  struct Layer {
    double self_s = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Layer> self_times() const {
    const std::vector<Span> all = spans();
    std::map<int64_t, double> child_s;  // parent id -> covered seconds
    for (const auto& s : all) {
      if (s.parent >= 0) child_s[s.parent] += s.end - s.start;
    }
    std::map<std::string, Layer> out;
    for (const auto& s : all) {
      Layer& l = out[s.name];
      const auto it = child_s.find(s.id);
      l.self_s += (s.end - s.start) - (it == child_s.end() ? 0.0 : it->second);
      ++l.count;
    }
    return out;
  }

  // Writes the spans as one JSON array; false if the file cannot be opened.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    const std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                   "\"id\":%lld,\"parent\":%lld,\"slot\":%llu}%s\n",
                   s.name, s.start, s.end, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.slot),
                   i + 1 < all.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<std::vector<Span>> buf_;
};

// Scoped span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, uint32_t th, const char* name, uint64_t slot,
        int64_t parent = -1)
      : t_(t), id_(t.begin(th, name, slot, parent)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& t_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
