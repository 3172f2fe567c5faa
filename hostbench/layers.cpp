/// Isolated layer microbenches. Each layer is driven through its public
/// functions: the ones a live workload cannot reach from outside (the
/// transport choke point, the matching engine, the contention lock, the slab
/// pool, the flight recorder) and the World set-up steps. Every cost is the
/// median over batches of 64 calls, so one descheduled batch moves nothing.

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "net/contention_lock.h"
#include "net/flightrec.h"
#include "net/slab_pool.h"
#include "tmpi/matching.h"
#include "tmpi/tmpi.h"
#include "tmpi/transport.h"

namespace hostbench {

namespace {

namespace net = tmpi::net;
namespace detail = tmpi::detail;

constexpr int kBatch = 64;
constexpr int kBatches = 2000;
constexpr std::size_t kBytes = 64;
constexpr tmpi::Tag kTag = 7;

double per_op(std::uint64_t batch_ns) { return static_cast<double>(batch_ns) / kBatch; }

/// Median per-op cost over kBatches runs of `batch`, which returns the host
/// ns of the part it timed.
template <class F>
double per_op_median(F&& batch) {
  std::vector<double> v;
  v.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) v.push_back(per_op(batch()));
  return median(std::move(v));
}

void world_costs(LayerCosts& out) {
  constexpr int kReps = 31;
  std::vector<double> construct;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    tmpi::World w(tmpi::WorldConfig{});
    construct.push_back(static_cast<double>(ns_between(t0, Clock::now())) * 1e-3);
  }
  out.construct_us = median(std::move(construct));

  tmpi::World w(tmpi::WorldConfig{});
  w.run([](tmpi::Rank&) {});
  std::vector<double> spawn;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    w.run([](tmpi::Rank&) {});
    spawn.push_back(static_cast<double>(ns_between(t0, Clock::now())) * 1e-3);
  }
  out.run_spawn_us = median(std::move(spawn));
}

/// An eager 64 B envelope from world rank 1 on the world communicator.
detail::Envelope make_envelope(int ctx, net::SlabPool& pool, const std::byte* payload) {
  detail::Envelope env;
  env.ctx_id = ctx;
  env.src = 1;
  env.src_world = 1;
  env.tag = kTag;
  env.bytes = kBytes;
  env.payload.acquire(pool, kBytes);
  std::memcpy(env.payload.data(), payload, kBytes);
  return env;
}

detail::PostedRecv make_posted(int ctx, std::byte* buf) {
  detail::PostedRecv pr;
  pr.ctx_id = ctx;
  pr.src = 1;
  pr.src_world = 1;
  pr.tag = kTag;
  pr.buf = buf;
  pr.capacity = kBytes;
  pr.req = detail::make_req_state();
  pr.req->kind = detail::ReqKind::kRecv;
  return pr;
}

/// Transport::inject and Transport::deliver called from a rank thread of a
/// default World; deliver lands on a posted receive, as on `stream`.
void transport_costs(LayerCosts& out) {
  tmpi::World w(tmpi::WorldConfig{});
  w.run([&](tmpi::Rank& rank) {
    if (rank.rank() != 0) return;
    detail::Transport& tp = w.transport();
    const int ctx = rank.world_comm().impl()->ctx_id;

    detail::OpDesc op;
    op.kind = detail::OpKind::kEagerP2p;
    op.bytes = kBytes;
    op.src_world_rank = 0;
    op.dst_world_rank = 1;
    op.tag = kTag;
    out.inject_ns = per_op_median([&] {
      const Clock::time_point t0 = Clock::now();
      for (int j = 0; j < kBatch; ++j) (void)tp.inject(op);
      return ns_between(t0, Clock::now());
    });

    op.src_world_rank = 1;
    op.dst_world_rank = 0;
    net::SlabPool& pool = w.rank_state(1).vcis.at(0).payload_pool();
    const std::array<std::byte, kBytes> payload{};
    std::array<std::array<std::byte, kBytes>, kBatch> bufs{};
    std::array<detail::Envelope, kBatch> envs;
    out.deliver_ns = per_op_median([&] {
      for (int j = 0; j < kBatch; ++j) {
        tp.post_recv(0, 0, make_posted(ctx, bufs[static_cast<std::size_t>(j)].data()));
        envs[static_cast<std::size_t>(j)] = make_envelope(ctx, pool, payload.data());
      }
      const net::Time arrival = net::ThreadClock::get().now();
      const Clock::time_point t0 = Clock::now();
      for (auto& env : envs) (void)tp.deliver(op, std::move(env), arrival);
      return ns_between(t0, Clock::now());
    });
  });
}

/// A bare MatchingEngine on the default (auto) policy with the world
/// communicator's hints, i.e. the ordered list: post, deposit onto a posted
/// receive, and deposit into the unexpected queue.
void matching_costs(LayerCosts& out) {
  detail::MatchingEngine eng;
  eng.configure(detail::MatchPolicy::kAuto, nullptr);
  const net::CostModel cm{};
  net::VirtualClock clk;
  net::SlabPool pool;
  const std::array<std::byte, kBytes> payload{};
  std::array<std::array<std::byte, kBytes>, kBatch> bufs{};
  std::array<detail::Envelope, kBatch> envs;
  std::array<detail::PostedRecv, kBatch> posts;

  std::vector<double> post_ns;
  std::vector<double> posted_ns;
  std::vector<double> unexpected_ns;
  for (int b = 0; b < kBatches; ++b) {
    for (int j = 0; j < kBatch; ++j) {
      posts[static_cast<std::size_t>(j)] = make_posted(0, bufs[static_cast<std::size_t>(j)].data());
      envs[static_cast<std::size_t>(j)] = make_envelope(0, pool, payload.data());
    }
    Clock::time_point t0 = Clock::now();
    for (auto& pr : posts) eng.post_recv(std::move(pr), clk, cm, nullptr);
    post_ns.push_back(per_op(ns_between(t0, Clock::now())));
    t0 = Clock::now();
    for (auto& env : envs) (void)eng.deposit(std::move(env), clk, cm, nullptr);
    posted_ns.push_back(per_op(ns_between(t0, Clock::now())));

    for (int j = 0; j < kBatch; ++j) {
      posts[static_cast<std::size_t>(j)] = make_posted(0, bufs[static_cast<std::size_t>(j)].data());
      envs[static_cast<std::size_t>(j)] = make_envelope(0, pool, payload.data());
    }
    t0 = Clock::now();
    for (auto& env : envs) (void)eng.deposit(std::move(env), clk, cm, nullptr);
    unexpected_ns.push_back(per_op(ns_between(t0, Clock::now())));
    for (auto& pr : posts) eng.post_recv(std::move(pr), clk, cm, nullptr);
  }
  out.post_recv_ns = median(std::move(post_ns));
  out.deposit_posted_ns = median(std::move(posted_ns));
  out.deposit_unexpected_ns = median(std::move(unexpected_ns));
}

void lock_costs(LayerCosts& out) {
  const net::CostModel cm{};
  net::ContentionLock lock;
  net::VirtualClock clk;
  out.lock_uncontended_ns = per_op_median([&] {
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kBatch; ++j) {
      lock.lock(clk, cm, nullptr);
      lock.unlock(clk);
    }
    return ns_between(t0, Clock::now());
  });

  // Two threads acquiring the same lock back to back: host ns per
  // acquisition when every acquisition may have to take the lock over from
  // the other core.
  constexpr int kOps = 100000;
  constexpr int kReps = 5;
  std::vector<double> handoff;
  std::uint64_t shared = 0;
  for (int r = 0; r < kReps; ++r) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    auto body = [&] {
      net::VirtualClock c;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kOps; ++i) {
        lock.lock(c, cm, nullptr);
        ++shared;
        lock.unlock(c);
      }
    };
    std::thread a(body);
    std::thread b(body);
    while (ready.load() < 2) {
    }
    const Clock::time_point t0 = Clock::now();
    go.store(true, std::memory_order_release);
    a.join();
    b.join();
    handoff.push_back(static_cast<double>(ns_between(t0, Clock::now())) / (2.0 * kOps));
  }
  if (shared != std::uint64_t{2} * kOps * kReps) throw std::runtime_error("lock lost an update");
  out.lock_handoff_ns = median(std::move(handoff));
}

void slab_costs(LayerCosts& out) {
  net::SlabPool pool;
  net::PooledBuf buf;
  out.slab_ns = per_op_median([&] {
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kBatch; ++j) {
      buf.acquire(pool, kBytes);
      buf.release();
    }
    return ns_between(t0, Clock::now());
  });
}

void flightrec_costs(LayerCosts& out) {
  net::FlightRecConfig cfg;
  cfg.path = "";
  net::FlightRecorder fr(cfg);
  net::TraceEvent ev;
  ev.kind = net::TraceEv::kInject;
  ev.rank = 0;
  ev.vci = 0;
  ev.peer = 1;
  ev.tag = kTag;
  ev.value = kBytes;
  out.flightrec_record_ns = per_op_median([&] {
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kBatch; ++j) {
      ev.ts = static_cast<net::Time>(j);
      fr.record(ev);
    }
    return ns_between(t0, Clock::now());
  });
}

}  // namespace

LayerCosts measure_layers() {
  LayerCosts out;
  world_costs(out);
  transport_costs(out);
  matching_costs(out);
  lock_costs(out);
  slab_costs(out);
  flightrec_costs(out);
  return out;
}

}  // namespace hostbench
