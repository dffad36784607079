// Simulated message-passing layer (the MPI substitute for the
// ParMetis-like partitioner, DESIGN.md §3).
//
// The model is BSP supersteps, which matches ParMetis' structure exactly:
// the paper stresses that "each processor sends its match requests in one
// single message to the corresponding processors" per pass.  Within a
// superstep every rank runs its compute function (concurrently on the
// worker pool), sending typed messages that become visible to receivers
// in the NEXT superstep.  The ledger is charged per superstep with
//   compute: max over ranks of metered work
//   comm:    alpha * max messages per rank + beta * max bytes per rank.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/distribution.hpp"
#include "core/host_steps.hpp"
#include "model/machine_model.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace gp {

/// Unrecoverable communication failure: a fail-stopped rank, or message
/// loss the bounded-resend recovery could not repair.
class CommFailure : public std::runtime_error {
 public:
  explicit CommFailure(const std::string& what) : std::runtime_error(what) {}
};

/// A delivered message: sender rank plus a POD byte payload.
struct SimMessage {
  int                       from = 0;
  std::vector<std::uint8_t> bytes;

  /// Reinterprets the payload as a vector of T (POD only).  The payload
  /// must be an exact multiple of sizeof(T) — a mismatch means the sender
  /// and receiver disagree on the message type, which silently truncating
  /// would hide.
  template <typename T>
  [[nodiscard]] std::vector<T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes.size() % sizeof(T) != 0) {
      throw std::runtime_error(
          "SimMessage::as: payload of " + std::to_string(bytes.size()) +
          " bytes is not a multiple of element size " +
          std::to_string(sizeof(T)));
    }
    std::vector<T> out(bytes.size() / sizeof(T));
    std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
    return out;
  }
};

/// Per-rank send/receive interface inside a superstep.
class Mailbox {
 public:
  Mailbox(int rank, int ranks, std::vector<SimMessage>* inbox)
      : rank_(rank), ranks_(ranks), inbox_(inbox),
        outboxes_(static_cast<std::size_t>(ranks)) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int ranks() const { return ranks_; }

  /// Messages sent to this rank in the previous superstep.
  [[nodiscard]] const std::vector<SimMessage>& inbox() const {
    return *inbox_;
  }

  /// Sends a POD vector to `dst` (delivered next superstep).
  template <typename T>
  void send(int dst, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (dst < 0 || dst >= ranks_) {
      throw std::out_of_range("Mailbox::send: destination rank " +
                              std::to_string(dst) + " outside [0, " +
                              std::to_string(ranks_) + ")");
    }
    SimMessage m;
    m.from = rank_;
    m.bytes.resize(data.size() * sizeof(T));
    std::memcpy(m.bytes.data(), data.data(), m.bytes.size());
    outboxes_[static_cast<std::size_t>(dst)].push_back(std::move(m));
  }

  /// Internal: outgoing mail collected by the communicator.
  [[nodiscard]] std::vector<std::vector<SimMessage>>& outboxes() {
    return outboxes_;
  }

 private:
  int rank_, ranks_;
  std::vector<SimMessage>* inbox_;
  std::vector<std::vector<SimMessage>> outboxes_;
};

class SimComm {
 public:
  /// `pool` should have >= ranks workers for genuine concurrency.
  SimComm(int ranks, ThreadPool& pool, CostLedger* ledger);

  [[nodiscard]] int ranks() const { return ranks_; }

  /// Attaches a fault injector: per-message and per-superstep drops plus
  /// rank fail-stop detection.  nullptr disables injection (the default).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Messages eaten in transit by the fault injector so far.
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }

  /// Runs one superstep.  `fn(rank, mailbox)` returns the rank's metered
  /// compute work.  Messages sent become receivable next superstep.
  /// Throws CommFailure when the fault plan fail-stops a rank (the
  /// simulated runtime detects the dead process at the step barrier).
  void superstep(const std::string& label,
                 const std::function<std::uint64_t(int, Mailbox&)>& fn);

  /// Collective: every rank contributes a POD vector; after the call
  /// every rank sees all contributions (indexed by rank).  Metered as an
  /// all-gather.
  template <typename T>
  std::vector<std::vector<T>> allgather(const std::string& label,
                                        std::vector<std::vector<T>> contrib) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t max_bytes = 0;
    for (const auto& c : contrib) {
      max_bytes = std::max<std::uint64_t>(max_bytes, c.size() * sizeof(T));
    }
    if (ledger_) {
      // Ring all-gather: P-1 rounds, each rank forwarding; bytes per rank
      // = (P-1) * max contribution.
      ledger_->charge_messages(
          "comm/allgather/" + label,
          static_cast<std::uint64_t>(ranks_ - 1),
          static_cast<std::uint64_t>(ranks_ - 1) * max_bytes);
    }
    return contrib;  // shared address space: data is already everywhere
  }

  /// Number of supersteps executed (tests/ablations).
  [[nodiscard]] std::uint64_t supersteps() const { return steps_; }

 private:
  int ranks_;
  ThreadPool& pool_;
  CostLedger* ledger_;
  FaultInjector* injector_ = nullptr;
  std::uint64_t steps_ = 0;
  std::uint64_t dropped_ = 0;
  /// pending_[dst] = messages awaiting delivery at the next superstep.
  std::vector<std::vector<SimMessage>> pending_;
};

/// ParMetis's block runner: one SimComm superstep over a level's rank
/// distribution, rank r running block r.
class RankRunner final : public BlockRunner {
 public:
  RankRunner(SimComm& comm, const Distribution& dist)
      : comm_(comm), dist_(dist) {}
  [[nodiscard]] int blocks() const override { return comm_.ranks(); }
  void run(const std::string& label, vid_t /*n*/,
           const BlockBody& body) const override {
    comm_.superstep(label, [&](int r, Mailbox&) {
      return body(r, dist_.begin(r), dist_.end(r));
    });
  }

 private:
  SimComm& comm_;
  const Distribution& dist_;
};

}  // namespace gp
