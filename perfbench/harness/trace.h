// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own code around calls into the pghive layers, kept in
// memory, and written out once the run ends.
#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  std::string name;   ///< "<layer>.<step>", e.g. "lsh.node_hash".
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< 0 while open.
  int parent = -1;     ///< Index of the enclosing span; -1 for a root.
  uint64_t run = 0;    ///< The benchmark run (its seed).

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Thread-safe span store. The parent of a new span is the innermost span
/// still open on the same thread, so concurrent client threads each build
/// their own subtree.
class Tracer {
 public:
  Tracer(std::string workload, uint64_t run);

  int Begin(const std::string& name);
  void End(int index);

  /// Summed duration of every span with this name (ms) and their count.
  double TotalMs(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Durations of every span with this name, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  /// Self time per span name: each span's duration minus the part of it
  /// that its children cover.
  std::map<std::string, double> SelfMsByName() const;
  /// Self time summed per layer, the span-name prefix before the first '.'.
  std::map<std::string, double> SelfMsByLayer() const;

  /// Writes the spans as one JSON document (name, start/end in ns relative
  /// to the tracer's creation, parent, workload, run).
  bool WriteJson(const std::string& path) const;
  /// Self-time tables by span name and by layer, labelled with the
  /// workload.
  std::string SelfTimeTable() const;

 private:
  int64_t NowNs() const;

  const std::string workload_;
  const uint64_t run_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op so the same code path serves
/// the traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
