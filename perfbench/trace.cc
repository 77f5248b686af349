#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "perfbench.h"

namespace perfbench {

int64_t Trace::Add(std::string name, Clock::time_point start,
                   Clock::time_point end, int64_t parent, uint64_t request) {
  return AddMs(std::move(name), Ms(start), Ms(end), parent, request);
}

int64_t Trace::AddMs(std::string name, double start_ms, double end_ms,
                     int64_t parent, uint64_t request) {
  spans_.push_back({std::move(name), start_ms, end_ms, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Trace::Append(const Trace& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::string Trace::SelfTimeTable() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] += span.end_ms - span.start_ms;
    }
  }
  struct Row {
    size_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = span.end_ms - span.start_ms;
    Row& row = rows[span.name.substr(0, span.name.find('.'))];
    ++row.spans;
    row.total_ms += duration;
    row.self_ms += std::max(0.0, duration - child_ms[i]);
  }
  std::string out = "module          spans    total_ms     self_ms\n";
  for (const auto& [module, row] : rows) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-14s %6zu %11.3f %11.3f\n",
                  module.c_str(), row.spans, row.total_ms, row.self_ms);
    out += line;
  }
  return out;
}

bool Trace::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // One track per request; replay and delta spans carry request 0.
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld},"
                  "\"name\":",
                  static_cast<unsigned long long>(span.request),
                  span.start_ms * 1000.0,
                  (span.end_ms - span.start_ms) * 1000.0, i,
                  static_cast<long long>(span.parent));
    out << line << JsonQuote(span.name) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
