// In-process simulated cluster: P ranks as threads, message-passing
// channels, MPI-style collectives, and exact byte/round accounting.
//
// This substitutes for the MPI cluster of the paper's evaluation platform.
// Data exchanges are real (buffers move between ranks through channels);
// what the cost model prices analytically, CommStats measures empirically,
// so the "traditional all-to-all vs single sparse exchange" comparison is
// grounded in executed transfers, not just formulas.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/topology.hpp"
#include "common/check.hpp"

namespace lc::comm {

/// Thrown on ranks blocked in a barrier, collective, or recv() when a peer
/// rank exits its body with an exception: the blocked rank cannot make
/// progress (its peer will never arrive), so it unwinds with this instead
/// of deadlocking. SimCluster::run catches these on the way out and
/// rethrows the peer's ORIGINAL exception to the caller.
class RankAborted : public Error {
 public:
  RankAborted() : Error("collective aborted: a peer rank failed") {}
};

/// Aggregate communication counters for one cluster run. Counters are
/// atomic because every rank thread updates them concurrently (Rank::send
/// runs on all ranks at once). In addition to exact byte/message/round
/// counts, every message is priced through an α-β model (Eqn 2), giving a
/// modelled wall-clock communication time — what the exchange would cost
/// on a real interconnect.
struct CommStats {
  std::atomic<std::size_t> bytes_sent{0};
  std::atomic<std::size_t> messages{0};
  // Receive-side mirrors of the counters above. Every delivered message is
  // counted on both sides, so `bytes_received == bytes_sent` and
  // `messages_received == messages` once a run has drained its channels —
  // an invariant the tests assert (historically only RankCommStats had the
  // receive side, so the cluster totals could not be cross-checked).
  std::atomic<std::size_t> bytes_received{0};
  std::atomic<std::size_t> messages_received{0};
  std::atomic<std::size_t> collective_rounds{0};
  // All-gather collectives counted separately: since the ring rewrite they
  // execute (and are priced as) their own algorithm, not a personalised
  // all-to-all.
  std::atomic<std::size_t> allgather_rounds{0};
  // Per-level split of bytes_sent / messages by the cluster topology:
  // intra + inter == total always. On a flat topology (every rank its own
  // node) all traffic is inter-node.
  std::atomic<std::size_t> intra_bytes_sent{0};
  std::atomic<std::size_t> inter_bytes_sent{0};
  std::atomic<std::size_t> intra_messages{0};
  std::atomic<std::size_t> inter_messages{0};
  std::atomic<std::int64_t> modeled_nanos{0};
  // Per-level split of modeled_nanos (intra + inter == total): the
  // telemetry layer pairs these against the planner's per-level wire
  // prediction, so drift is attributable to the link level that caused it.
  std::atomic<std::int64_t> intra_modeled_nanos{0};
  std::atomic<std::int64_t> inter_modeled_nanos{0};

  [[nodiscard]] double modeled_seconds() const {
    return static_cast<double>(modeled_nanos.load()) * 1e-9;
  }
  [[nodiscard]] double intra_modeled_seconds() const {
    return static_cast<double>(intra_modeled_nanos.load()) * 1e-9;
  }
  [[nodiscard]] double inter_modeled_seconds() const {
    return static_cast<double>(inter_modeled_nanos.load()) * 1e-9;
  }

  /// Per-level byte/message totals as a cost-model traffic record.
  [[nodiscard]] LevelTraffic level_traffic() const {
    LevelTraffic t;
    t.intra_bytes = intra_bytes_sent.load();
    t.inter_bytes = inter_bytes_sent.load();
    t.intra_messages = intra_messages.load();
    t.inter_messages = inter_messages.load();
    return t;
  }

  void reset() {
    bytes_sent = 0;
    messages = 0;
    bytes_received = 0;
    messages_received = 0;
    collective_rounds = 0;
    allgather_rounds = 0;
    intra_bytes_sent = 0;
    inter_bytes_sent = 0;
    intra_messages = 0;
    inter_messages = 0;
    modeled_nanos = 0;
    intra_modeled_nanos = 0;
    inter_modeled_nanos = 0;
  }
};

/// Per-rank communication snapshot (SimCluster::rank_stats): who moved the
/// bytes and who sat in barriers. Imbalance here is the load-balance signal
/// the aggregate CommStats cannot show.
struct RankCommStats {
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  std::size_t messages_sent = 0;
  std::size_t messages_received = 0;
  /// Per-level split of bytes_sent (intra + inter == bytes_sent).
  std::size_t intra_bytes_sent = 0;
  std::size_t inter_bytes_sent = 0;
  double barrier_wait_seconds = 0.0;
  /// Time blocked in recv() waiting for a message to arrive.
  double recv_wait_seconds = 0.0;
  /// Exact integer-nanosecond originals of the wait totals above. Every
  /// "comm.barrier" / "comm.recv_wait" trace span records the SAME integer
  /// the counter accrued, so tools/critical_path.py can assert its
  /// per-rank attribution sums match these exactly (no float rounding).
  std::int64_t barrier_wait_ns = 0;
  std::int64_t recv_wait_ns = 0;
};

class SimCluster;

/// Per-rank handle passed to the rank body; provides point-to-point and
/// collective operations. Valid only inside SimCluster::run.
class Rank {
 public:
  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int size() const noexcept;
  /// Node grouping of the cluster this rank belongs to.
  [[nodiscard]] const Topology& topology() const noexcept;

  /// Send a copy of `data` to rank `dst` (non-blocking, buffered).
  void send(int dst, std::span<const double> data);

  /// Receive the next message from rank `src` (blocking, FIFO per channel).
  [[nodiscard]] std::vector<double> recv(int src);

  /// Personalised all-to-all: element [d] of `outgoing` goes to rank d;
  /// returns the vector of buffers received, indexed by source rank.
  /// Counts one collective round.
  [[nodiscard]] std::vector<std::vector<double>> all_to_all(
      const std::vector<std::vector<double>>& outgoing);

  /// All-gather: everyone receives every rank's buffer, indexed by source.
  /// Executed as a forwarding ring over rank ids (each rank talks only to
  /// its neighbours, so on a grouped topology only the node-boundary links
  /// carry inter-node traffic), with its own round accounting
  /// (CommStats::allgather_rounds) rather than the personalised
  /// all-to-all's. Counts one collective round.
  [[nodiscard]] std::vector<std::vector<double>> all_gather(
      std::span<const double> mine);

  /// Sum-reduction visible on all ranks. Deterministic: every rank sums the
  /// per-rank contributions in rank order, so the floating-point result is
  /// bit-identical run to run regardless of thread arrival order. Counts
  /// one collective round.
  [[nodiscard]] double all_reduce_sum(double value);

  /// Synchronisation barrier.
  void barrier();

  /// Count one collective round in the cluster stats. For collectives
  /// composed from send/recv outside this class (comm/hierarchical.hpp);
  /// call from exactly one rank per round.
  void collective_round();

 private:
  friend class SimCluster;
  Rank(SimCluster& cluster, int id) : cluster_(&cluster), id_(id) {}

  SimCluster* cluster_;
  int id_;
};

/// Fixed-size simulated cluster. Construct once, `run` any number of SPMD
/// bodies; stats accumulate until reset.
class SimCluster {
 public:
  /// Flat cluster (every rank its own node): `link` prices each message for
  /// the modelled-time counter (Eqn 2) at both levels.
  explicit SimCluster(int ranks, AlphaBetaModel link = {});

  /// Hierarchical cluster: ranks grouped into nodes by `topo`, messages
  /// classified (and priced) per link level by whether source and
  /// destination share a node.
  SimCluster(Topology topo, HierarchicalLinkModel links = {});

  [[nodiscard]] int size() const noexcept { return ranks_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }
  /// Per-rank counters accumulated since construction or reset_stats().
  [[nodiscard]] RankCommStats rank_stats(int rank) const;
  /// The inter-node (flat-cluster) link model — legacy accessor.
  [[nodiscard]] const AlphaBetaModel& link() const noexcept {
    return links_.inter;
  }
  [[nodiscard]] const HierarchicalLinkModel& links() const noexcept {
    return links_;
  }
  void reset_stats();

  /// Execute `body(rank)` on every rank concurrently; rethrows the first
  /// exception any rank raised after all ranks finish or abort. When a rank
  /// throws, peers blocked (now or later) in barriers, collectives, or
  /// recv() are unwound with RankAborted rather than deadlocking, and the
  /// cluster is reset to a clean, reusable state before rethrowing.
  void run(const std::function<void(Rank&)>& body);

  /// One-slot memo for state derived from this cluster's shape (the octree
  /// exchange plan of core::distributed_lowcomm_convolve): returns the kept
  /// object when `key` and T match the last call's, otherwise drops it,
  /// keeps `build()`'s result instead, and returns that. Type-erased so
  /// comm does not depend on its users; the object lives until replaced or
  /// until the cluster is destroyed. Call from outside run().
  template <class T, class Build>
  [[nodiscard]] std::shared_ptr<const T> memo(const std::string& key,
                                              Build&& build) {
    return std::static_pointer_cast<const T>(
        memo_slot(typeid(T), key, [&]() -> std::shared_ptr<const void> {
          return build();
        }));
  }

 private:
  friend class Rank;

  // A queued message plus its out-of-band trace context: the 8-byte flow id
  // the sender minted (0 = untraced). Carried like an MPI envelope tag —
  // NOT part of the payload, so byte accounting (and the static traffic
  // mirror's byte-exactness) is unchanged by tracing.
  struct Message {
    std::vector<double> data;
    std::uint64_t trace_ctx = 0;
  };

  struct Channel {
    std::mutex mutex;
    std::condition_variable available;
    std::deque<Message> queue;
  };

  // Atomic backing store for RankCommStats, one slot per rank.
  struct RankCounters {
    std::atomic<std::size_t> bytes_sent{0};
    std::atomic<std::size_t> bytes_received{0};
    std::atomic<std::size_t> messages_sent{0};
    std::atomic<std::size_t> messages_received{0};
    std::atomic<std::size_t> intra_bytes_sent{0};
    std::atomic<std::size_t> inter_bytes_sent{0};
    std::atomic<std::int64_t> barrier_wait_ns{0};
    std::atomic<std::int64_t> recv_wait_ns{0};
  };

  Channel& channel(int src, int dst) {
    return channels_[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(ranks_) +
                     static_cast<std::size_t>(dst)];
  }
  void barrier_wait(int rank);
  void abort_run();
  std::shared_ptr<const void> memo_slot(
      std::type_index type, const std::string& key,
      const std::function<std::shared_ptr<const void>()>& build);
  void throw_if_aborted() const {
    if (aborted_.load()) throw RankAborted();
  }

  int ranks_;
  Topology topo_;
  HierarchicalLinkModel links_;
  std::vector<Channel> channels_;
  CommStats stats_;
  std::vector<RankCounters> per_rank_;

  // Central barrier (generation-counted). `aborted_` is raised when a rank
  // body throws: every blocking wait (barrier, recv) re-checks it so peers
  // unwind via RankAborted for ANY number of pending synchronisation
  // points, not just the one in flight when the failure happened.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  std::uint64_t barrier_generation_ = 0;
  std::atomic<bool> aborted_{false};

  // Reduction scratch: one slot per rank. Each rank writes only its own
  // slot before the pre-read barrier and every rank sums the slots in rank
  // order between the two barriers, so the result is deterministic
  // (bit-identical across runs) and the barriers provide the
  // happens-before edges — no mutex, no arrival-order dependence.
  std::vector<double> reduce_slots_;

  std::mutex memo_mutex_;
  std::type_index memo_type_ = typeid(void);
  std::string memo_key_;
  std::shared_ptr<const void> memo_value_;
};

}  // namespace lc::comm
