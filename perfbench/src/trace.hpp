// In-memory span recorder of the traced run.
//
// Spans are recorded only around calls the benchmark itself makes into
// the program's layers (workload -> job -> Partitioner::run, replay ->
// level -> layer call, request -> queue / run / backoff), kept in memory,
// and written as Chrome trace-event JSON at the end (Perfetto and
// chrome://tracing open it as is).  A disabled tracer records nothing:
// Scope costs one branch.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string cat;
    std::string args;  ///< JSON object body (without braces), may be empty
    int tid = 1;
    int parent = -1;
    double start_s = 0;  ///< relative to the tracer's origin
    double dur_s = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on the main thread's stack; returns its id (-1 when off).
  int begin(const std::string& name, const std::string& cat, int tid = 1);
  /// Closes the innermost open span, which must be `id`.
  void end(int id, const std::string& args = {});

  /// Records a finished span with explicit timing (service outcomes).
  int record(const std::string& name, const std::string& cat, int tid,
             Clock::time_point start, double dur_s, int parent,
             const std::string& args = {});

  /// Self time per "cat/name": a span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool write_chrome(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opened at construction, closed at destruction.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, const std::string& cat)
      : t_(t), id_(t.enabled() ? t.begin(name, cat) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_, args_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Attaches a JSON args body written when the span closes.
  void set_args(std::string args) { args_ = std::move(args); }

 private:
  Tracer& t_;
  int id_;
  std::string args_;
};

}  // namespace pb
