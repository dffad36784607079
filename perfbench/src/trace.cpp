#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace pb {

int Tracer::begin(const std::string& name, const std::string& cat, int tid) {
  Span s;
  s.name = name;
  s.cat = cat;
  s.tid = tid;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = seconds_since(origin_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id, const std::string& args) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_s = seconds_since(origin_) - s.start_s;
  s.args = args;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::record(const std::string& name, const std::string& cat, int tid,
                   Clock::time_point start, double dur_s, int parent,
                   const std::string& args) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.cat = cat;
  s.tid = tid;
  s.parent = parent;
  s.start_s = std::chrono::duration<double>(start - origin_).count();
  s.dur_s = dur_s;
  s.args = args;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.dur_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double self = spans_[i].dur_s - child[i];
    out[spans_[i].cat + "/" + spans_[i].name] += self > 0 ? self : 0.0;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                  s.start_s * 1e6, s.dur_s * 1e6);
    f << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.cat
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid << ", " << buf
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
      << (s.args.empty() ? "" : ", ") << s.args << "}}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace pb
