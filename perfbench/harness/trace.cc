#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

// Open spans of the current thread, innermost last.
thread_local std::vector<int> open_spans;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer(std::string workload, uint64_t run)
    : workload_(std::move(workload)), run_(run), origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.run = run_;
  std::lock_guard<std::mutex> lock(mutex_);
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end_ns = now;
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.ms();
  }
  return total;
}

size_t Tracer::Count(const std::string& name) const {
  return static_cast<size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return s.name == name; }));
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByName() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans_[i].start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, spans_[i].end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - covered) *
        1e-6;
  }
  return self;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::map<std::string, double> layers;
  for (const auto& [name, ms] : SelfMsByName()) {
    layers[name.substr(0, name.find('.'))] += ms;
  }
  return layers;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\": \"" << JsonEscape(workload_) << "\", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << JsonEscape(s.name)
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"workload\": \""
        << JsonEscape(workload_) << "\", \"run\": " << s.run << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string Tracer::SelfTimeTable() const {
  std::map<std::string, double> self = SelfMsByName();
  double root_ms = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) root_ms += s.ms();
  }
  std::vector<std::pair<std::string, double>> rows(self.begin(), self.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::string out = "self time by span, workload " + workload_ + ":\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-26s %7s %12s %12s %7s\n", "span",
                "count", "total_ms", "self_ms", "self%");
  out += line;
  for (const auto& [name, ms] : rows) {
    std::snprintf(line, sizeof line, "  %-26s %7zu %12.3f %12.3f %6.1f%%\n",
                  name.c_str(), Count(name), TotalMs(name), ms,
                  root_ms > 0 ? 100.0 * ms / root_ms : 0.0);
    out += line;
  }
  out += "self time by layer, workload " + workload_ + ":\n";
  for (const auto& [layer, ms] : SelfMsByLayer()) {
    std::snprintf(line, sizeof line, "  %-26s %12.3f ms %6.1f%%\n",
                  layer.c_str(), ms, root_ms > 0 ? 100.0 * ms / root_ms : 0.0);
    out += line;
  }
  return out;
}

}  // namespace perfbench
