#include "comm/sim_cluster.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lc::comm {

namespace {

// Process-wide comm metrics, aggregated across clusters (the obs registry's
// view; per-cluster and per-rank exactness lives in CommStats/RankCommStats).
struct CommMetrics {
  obs::Counter& bytes_sent =
      obs::Registry::global().counter("comm.bytes_sent");
  obs::Counter& messages = obs::Registry::global().counter("comm.messages");
  obs::Histogram& barrier_wait = obs::Registry::global().histogram(
      "comm.barrier_wait_seconds");
  obs::Histogram& recv_wait = obs::Registry::global().histogram(
      "comm.recv_wait_seconds");

  static CommMetrics& get() {
    static CommMetrics m;
    return m;
  }
};

// Process-wide flow-id mint: ids must be unique across every SimCluster a
// process runs (the demo stitches two clusters into one trace), so the
// counter is global, never per-cluster. 0 is reserved for "untraced".
std::uint64_t next_flow_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

const char* flow_name(bool inter_node) {
  return inter_node ? "comm.msg.inter" : "comm.msg.intra";
}

}  // namespace

int Rank::size() const noexcept { return cluster_->size(); }

const Topology& Rank::topology() const noexcept {
  return cluster_->topology();
}

void Rank::send(int dst, std::span<const double> data) {
  LC_CHECK_ARG(dst >= 0 && dst < cluster_->size(), "bad destination rank");
  const std::size_t bytes = data.size() * sizeof(double);
  const bool inter_node = !cluster_->topo_.same_node(id_, dst);
  // Mint the flow context BEFORE enqueueing so the matching 'f' endpoint
  // (recorded by the receiver) can never precede the 's' in the trace.
  obs::Tracer& tracer = obs::Tracer::global();
  std::uint64_t ctx = 0;
  if (tracer.enabled()) {
    ctx = next_flow_id();
    tracer.record_flow(flow_name(inter_node), ctx, bytes, /*finish=*/false);
  }
  auto& ch = cluster_->channel(id_, dst);
  {
    std::lock_guard lock(ch.mutex);
    ch.queue.push_back(SimCluster::Message{
        std::vector<double>(data.begin(), data.end()), ctx});
  }
  ch.available.notify_one();
  cluster_->stats_.bytes_sent += bytes;
  cluster_->stats_.messages += 1;
  if (inter_node) {
    cluster_->stats_.inter_bytes_sent += bytes;
    cluster_->stats_.inter_messages += 1;
  } else {
    cluster_->stats_.intra_bytes_sent += bytes;
    cluster_->stats_.intra_messages += 1;
  }
  const auto modeled = static_cast<std::int64_t>(
      cluster_->links_.level(inter_node).message_time(bytes) * 1e9);
  cluster_->stats_.modeled_nanos += modeled;
  if (inter_node) {
    cluster_->stats_.inter_modeled_nanos += modeled;
  } else {
    cluster_->stats_.intra_modeled_nanos += modeled;
  }
  auto& mine = cluster_->per_rank_[static_cast<std::size_t>(id_)];
  mine.bytes_sent += bytes;
  mine.messages_sent += 1;
  if (inter_node) {
    mine.inter_bytes_sent += bytes;
  } else {
    mine.intra_bytes_sent += bytes;
  }
  CommMetrics& metrics = CommMetrics::get();
  metrics.bytes_sent.add(bytes);
  metrics.messages.add();
}

std::vector<double> Rank::recv(int src) {
  LC_CHECK_ARG(src >= 0 && src < cluster_->size(), "bad source rank");
  auto& ch = cluster_->channel(src, id_);
  SimCluster::Message msg;
  // One clock sample pair feeds BOTH the recv-wait counter and the
  // "comm.recv_wait" trace span, so the trace's per-rank wait attribution
  // sums to RankCommStats::recv_wait_ns exactly.
  obs::Tracer& tracer = obs::Tracer::global();
  const std::int64_t wait_start = tracer.now_ns();
  {
    std::unique_lock lock(ch.mutex);
    ch.available.wait(lock, [&] {
      return !ch.queue.empty() || cluster_->aborted_.load();
    });
    // Messages already delivered are still consumed; only an empty queue
    // with a dead sender is hopeless.
    if (ch.queue.empty()) cluster_->throw_if_aborted();
    msg = std::move(ch.queue.front());
    ch.queue.pop_front();
  }
  const std::int64_t waited_ns = tracer.now_ns() - wait_start;
  const std::size_t bytes = msg.data.size() * sizeof(double);
  auto& mine = cluster_->per_rank_[static_cast<std::size_t>(id_)];
  mine.recv_wait_ns += waited_ns;
  if (tracer.enabled()) {
    tracer.record("comm.recv_wait", wait_start, waited_ns);
    if (msg.trace_ctx != 0) {
      const bool inter_node = !cluster_->topo_.same_node(src, id_);
      tracer.record_flow(flow_name(inter_node), msg.trace_ctx, bytes,
                         /*finish=*/true);
    }
  }
  CommMetrics::get().recv_wait.record(static_cast<double>(waited_ns) * 1e-9);
  cluster_->stats_.bytes_received += bytes;
  cluster_->stats_.messages_received += 1;
  mine.bytes_received += bytes;
  mine.messages_received += 1;
  return std::move(msg.data);
}

std::vector<std::vector<double>> Rank::all_to_all(
    const std::vector<std::vector<double>>& outgoing) {
  const int p = size();
  LC_CHECK_ARG(static_cast<int>(outgoing.size()) == p,
               "all_to_all needs one buffer per rank");
  // Self-delivery does not touch the network; remote buffers do.
  for (int d = 0; d < p; ++d) {
    if (d != id_) send(d, outgoing[static_cast<std::size_t>(d)]);
  }
  std::vector<std::vector<double>> incoming(static_cast<std::size_t>(p));
  incoming[static_cast<std::size_t>(id_)] =
      outgoing[static_cast<std::size_t>(id_)];
  for (int s = 0; s < p; ++s) {
    if (s != id_) incoming[static_cast<std::size_t>(s)] = recv(s);
  }
  if (id_ == 0) cluster_->stats_.collective_rounds += 1;
  barrier();
  return incoming;
}

std::vector<std::vector<double>> Rank::all_gather(std::span<const double> mine) {
  // Forwarding ring over rank ids: step s receives the buffer that
  // originated s hops upstream and passes the previous one on. Each rank
  // sends p−1 real messages to its successor only, so on a grouped
  // topology the expensive inter-node link is crossed once per node per
  // step (at the node boundary) instead of by every (src, dst) pair — and
  // the byte/message/modelled accounting below is derived from the
  // messages the ring actually moves, not borrowed from all_to_all.
  const int p = size();
  std::vector<std::vector<double>> incoming(static_cast<std::size_t>(p));
  incoming[static_cast<std::size_t>(id_)].assign(mine.begin(), mine.end());
  const int next = (id_ + 1) % p;
  const int prev = (id_ + p - 1) % p;
  std::vector<double> cur = incoming[static_cast<std::size_t>(id_)];
  for (int step = 1; step < p; ++step) {
    send(next, cur);
    cur = recv(prev);
    incoming[static_cast<std::size_t>((id_ + p - step) % p)] = cur;
  }
  if (id_ == 0) {
    cluster_->stats_.collective_rounds += 1;
    cluster_->stats_.allgather_rounds += 1;
  }
  barrier();
  return incoming;
}

double Rank::all_reduce_sum(double value) {
  auto& c = *cluster_;
  // Deterministic rank-ordered reduction: publish into my slot, wait for
  // everyone, then sum the slots in rank order. The sum every rank computes
  // is the same fixed-order sequence of additions no matter which thread
  // arrived first, so results are bit-identical run to run (the old
  // arrival-order accumulator was not). The barriers carry the
  // happens-before edges for the plain slot writes; the trailing barrier
  // keeps a fast rank's next reduction from overwriting a slot a slow rank
  // is still reading.
  c.reduce_slots_[static_cast<std::size_t>(id_)] = value;
  barrier();
  double result = 0.0;
  for (int r = 0; r < c.size(); ++r) {
    result += c.reduce_slots_[static_cast<std::size_t>(r)];
  }
  if (id_ == 0) {
    c.stats_.collective_rounds += 1;
    // A tree reduction moves one double per rank (up and down).
    c.stats_.bytes_sent += 2 * sizeof(double) * static_cast<std::size_t>(size());
    c.stats_.messages += 2 * static_cast<std::size_t>(size());
    c.stats_.bytes_received +=
        2 * sizeof(double) * static_cast<std::size_t>(size());
    c.stats_.messages_received += 2 * static_cast<std::size_t>(size());
  }
  // Attribute each rank's share of the synthetic tree traffic to itself:
  // non-leaders reduce to their node leader (intra); leaders combine across
  // nodes (inter). On a flat topology every rank is a leader, so the whole
  // synthetic volume is inter-node, as before the topology existed.
  const bool crosses_nodes = c.topo_.is_leader(id_);
  auto& mine = c.per_rank_[static_cast<std::size_t>(id_)];
  mine.bytes_sent += 2 * sizeof(double);
  mine.bytes_received += 2 * sizeof(double);
  mine.messages_sent += 2;
  mine.messages_received += 2;
  if (crosses_nodes) {
    mine.inter_bytes_sent += 2 * sizeof(double);
    c.stats_.inter_bytes_sent += 2 * sizeof(double);
    c.stats_.inter_messages += 2;
  } else {
    mine.intra_bytes_sent += 2 * sizeof(double);
    c.stats_.intra_bytes_sent += 2 * sizeof(double);
    c.stats_.intra_messages += 2;
  }
  barrier();
  return result;
}

void Rank::barrier() { cluster_->barrier_wait(id_); }

void Rank::collective_round() { cluster_->stats_.collective_rounds += 1; }

// Topology::flat rejects ranks < 1 for us.
SimCluster::SimCluster(int ranks, AlphaBetaModel link)
    : SimCluster(Topology::flat(ranks), HierarchicalLinkModel::uniform(link)) {}

SimCluster::SimCluster(Topology topo, HierarchicalLinkModel links)
    : ranks_(topo.ranks()),
      topo_(std::move(topo)),
      links_(links),
      per_rank_(static_cast<std::size_t>(ranks_)),
      reduce_slots_(static_cast<std::size_t>(ranks_), 0.0) {
  channels_ = std::vector<Channel>(static_cast<std::size_t>(ranks_) *
                                   static_cast<std::size_t>(ranks_));
}

RankCommStats SimCluster::rank_stats(int rank) const {
  LC_CHECK_ARG(rank >= 0 && rank < ranks_, "bad rank");
  const RankCounters& c = per_rank_[static_cast<std::size_t>(rank)];
  RankCommStats out;
  out.bytes_sent = c.bytes_sent.load();
  out.bytes_received = c.bytes_received.load();
  out.messages_sent = c.messages_sent.load();
  out.messages_received = c.messages_received.load();
  out.intra_bytes_sent = c.intra_bytes_sent.load();
  out.inter_bytes_sent = c.inter_bytes_sent.load();
  out.barrier_wait_ns = c.barrier_wait_ns.load();
  out.recv_wait_ns = c.recv_wait_ns.load();
  out.barrier_wait_seconds = static_cast<double>(out.barrier_wait_ns) * 1e-9;
  out.recv_wait_seconds = static_cast<double>(out.recv_wait_ns) * 1e-9;
  return out;
}

void SimCluster::reset_stats() {
  stats_.reset();
  for (RankCounters& c : per_rank_) {
    c.bytes_sent = 0;
    c.bytes_received = 0;
    c.messages_sent = 0;
    c.messages_received = 0;
    c.intra_bytes_sent = 0;
    c.inter_bytes_sent = 0;
    c.barrier_wait_ns = 0;
    c.recv_wait_ns = 0;
  }
}

std::shared_ptr<const void> SimCluster::memo_slot(
    std::type_index type, const std::string& key,
    const std::function<std::shared_ptr<const void>()>& build) {
  std::lock_guard lock(memo_mutex_);
  if (memo_value_ == nullptr || memo_type_ != type || memo_key_ != key) {
    // Release the old object before building: only one is ever held.
    memo_value_.reset();
    memo_value_ = build();
    memo_type_ = type;
    memo_key_ = key;
  }
  return memo_value_;
}

void SimCluster::barrier_wait(int rank) {
  // Single clock sample pair for the counter AND the "comm.barrier" trace
  // span (see recv): critical-path attribution must sum exactly.
  obs::Tracer& tracer = obs::Tracer::global();
  const std::int64_t wait_start = tracer.now_ns();
  std::unique_lock lock(barrier_mutex_);
  throw_if_aborted();
  const std::uint64_t gen = barrier_generation_;
  if (++barrier_waiting_ == ranks_) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [&] {
      return barrier_generation_ != gen || aborted_.load();
    });
  }
  lock.unlock();
  const std::int64_t waited_ns = tracer.now_ns() - wait_start;
  per_rank_[static_cast<std::size_t>(rank)].barrier_wait_ns += waited_ns;
  if (tracer.enabled()) tracer.record("comm.barrier", wait_start, waited_ns);
  CommMetrics::get().barrier_wait.record(static_cast<double>(waited_ns) *
                                         1e-9);
  // A generation bump from abort_run also lands here; distinguish by flag
  // so ranks stop at THIS barrier instead of sailing into the next one.
  throw_if_aborted();
}

void SimCluster::abort_run() {
  // Raise the flag first so every wait predicate that runs after the
  // notifications below observes it; then wake all sleepers. Each notify is
  // issued under that waiter's own mutex, so no wakeup can be lost.
  aborted_.store(true);
  {
    std::lock_guard lock(barrier_mutex_);
    barrier_waiting_ = 0;
    ++barrier_generation_;
  }
  barrier_cv_.notify_all();
  for (auto& ch : channels_) {
    std::lock_guard lock(ch.mutex);
    ch.available.notify_all();
  }
}

void SimCluster::run(const std::function<void(Rank&)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks_));
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (int r = 0; r < ranks_; ++r) {
    threads.emplace_back([&, r] {
      // Label the track so stitched multi-rank traces read "rank N", and
      // so tools/critical_path.py can group the per-run thread ids of one
      // rank. Only when tracing — the label allocates this thread's buffer.
      if (obs::Tracer::global().enabled()) {
        obs::Tracer::global().set_thread_label("rank " + std::to_string(r));
      }
      Rank rank(*this, r);
      try {
        body(rank);
      } catch (...) {
        // Record the error BEFORE raising the abort flag: cascading
        // RankAborted unwinds on peer ranks are ordered after the flag, so
        // the original exception always wins the first_error slot.
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        abort_run();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Reset synchronisation state and drain channel leftovers so the next
  // run starts clean after an error.
  if (first_error) {
    aborted_.store(false);
    {
      std::lock_guard lock(barrier_mutex_);
      barrier_waiting_ = 0;
    }
    // (Reduction slots need no reset: every reduction rewrites all slots
    // before any rank reads them.)
    for (auto& ch : channels_) {
      std::lock_guard lock(ch.mutex);
      ch.queue.clear();
    }
    std::rethrow_exception(first_error);
  }
}

}  // namespace lc::comm
