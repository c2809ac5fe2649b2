// In-memory span recorder of the benchmark's traced run. Spans are kept
// in a vector and written out once, after the run; a disabled tracer
// records nothing and reads no clock.
#ifndef GEDBENCH_TRACER_HPP_
#define GEDBENCH_TRACER_HPP_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace gedbench {

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  long op = -1;     ///< operation id shared by every span of one op
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  int Begin(const char* name, int parent, long op) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowUs(), 0.0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_us = NowUs();
  }

  /// Records a span measured elsewhere (e.g. a cascade tier's time from
  /// CascadeProbe), laid out from `start_us`.
  void Add(const char* name, double start_us, double dur_us, int parent,
           long op) {
    if (enabled_) spans_.push_back({name, start_us, start_us + dur_us, parent,
                                    op});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span; returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"parent\":%d,\"op\":%ld}\n",
                   i, s.name, s.start_us, s.end_us, s.parent, s.op);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int parent, long op)
      : tracer_(t), id_(t->Begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace gedbench

#endif  // GEDBENCH_TRACER_HPP_
