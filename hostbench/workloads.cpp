/// The three closed-loop workloads, driven through tmpi's public API.
///
///   stream     2 ranks x 1 thread, 64 B isend/irecv, 64 in flight, a 0-byte
///              ack per window
///   pingpong   2 ranks x 1 thread, blocking 64 B send/recv round trips
///   contended  2 ranks x 2 threads (Rank::parallel) on one communicator and
///              one VCI, 8 B, 64 in flight, one tag per thread
///
/// Every message carries a seeded pattern that the receiver checks, together
/// with the matched status; every count sent must equal the count checked.
/// A mismatch is counted as a failed operation, never skipped.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstring>
#include <limits>
#include <optional>

#include "harness.h"
#include "tmpi/tmpi.h"

namespace hostbench {

namespace {

constexpr int kWindow = 64;
constexpr std::size_t kMaxBytes = 64;
constexpr std::size_t kPatterns = 256;
constexpr tmpi::Tag kAckTagBase = 100;
constexpr int kSlices = 20;
constexpr std::int64_t kNoLast = std::numeric_limits<std::int64_t>::max();

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seeded payloads. Message m of direction d carries pattern (m + 31 d) mod
/// 256, so neighbouring messages differ and a misrouted or reordered payload
/// fails the check.
class Patterns {
 public:
  explicit Patterns(std::uint64_t seed) {
    std::uint64_t x = seed ^ 0x7f4a7c159e3779b9ULL;
    for (auto& p : pat_) {
      for (std::size_t w = 0; w < kMaxBytes; w += 8) {
        const std::uint64_t v = splitmix64(x);
        std::memcpy(p.data() + w, &v, 8);
      }
    }
  }
  [[nodiscard]] const std::byte* of(std::uint64_t m, int dir) const {
    return pat_[(m + 31 * static_cast<std::uint64_t>(dir)) % kPatterns].data();
  }

 private:
  std::array<std::array<std::byte, kMaxBytes>, kPatterns> pat_{};
};

std::size_t msg_bytes(Shape s) { return s == Shape::kContended ? 8 : 64; }
int pairs_of(Shape s) { return s == Shape::kContended ? 2 : 1; }
int data_msgs_per_iter(Shape s) { return s == Shape::kPingpong ? 2 : kWindow; }

tmpi::WorldConfig make_config(Tier t) {
  tmpi::WorldConfig wc;
  wc.nranks = 2;
  wc.ranks_per_node = 1;
  wc.num_vcis = 1;
  switch (t) {
    case Tier::kDefault:
      break;
    case Tier::kFlightrecOff:
      wc.trace_info.set("tmpi_flightrec", "0");
      break;
    case Tier::kFullTrace:
      wc.trace_info.set("tmpi_trace", "1");
      wc.trace_info.set("tmpi_trace_path", "");  // record in memory, never write
      break;
    case Tier::kParallel:
      wc.exec_mode = "parallel";
      break;
  }
  return wc;
}

std::uint64_t thread_vcsw() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw);
}

/// Benchmark span around one tmpi call; a null sink records nothing.
class Span {
 public:
  Span(SpanTotals* sink, Call c) : sink_(sink), c_(static_cast<std::size_t>(c)) {
    if (sink_ != nullptr) t0_ = Clock::now();
  }
  ~Span() {
    if (sink_ != nullptr) {
      sink_->ns[c_] += ns_between(t0_, Clock::now());
      ++sink_->calls[c_];
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTotals* sink_;
  std::size_t c_;
  Clock::time_point t0_{};
};

struct ThreadStats {
  SpanTotals spans;
  std::uint64_t vcsw = 0;
  double wall_ns = 0;
  tmpi::net::Time vt_start = 0;
  tmpi::net::Time vt_end = 0;
};

/// One sender thread (rank 0) and its receiver thread (rank 1). Counters are
/// owned by the side named in their comment; the phase barrier orders every
/// cross-side read.
struct Pair {
  /// Iteration after which the current phase ends. The sender stores it
  /// before issuing that iteration's messages, so the receiver, which reads
  /// it only after those messages matched, always sees it in time.
  std::atomic<std::int64_t> last_iter{kNoLast};
  std::uint64_t fwd_sent = 0;       // sender
  std::uint64_t fwd_checked = 0;    // receiver
  std::uint64_t back_sent = 0;      // receiver: replies and acks
  std::uint64_t back_checked = 0;   // sender
  std::uint64_t failed_tx = 0;      // sender
  std::uint64_t failed_rx = 0;      // receiver
  std::uint64_t checksum_tx = 0;    // sender
  std::uint64_t checksum_rx = 0;    // receiver
  std::array<ThreadStats, 2> ts;    // [0] sender, [1] receiver
  LatencyHist* rtt = nullptr;
};

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

/// Fold a checked payload into a running checksum (FNV-style).
void fold(std::uint64_t& cs, const std::byte* buf, std::size_t bytes) {
  std::uint64_t w = 0;
  std::memcpy(&w, buf, std::min<std::size_t>(bytes, 8));
  cs = (cs ^ w) * 0x100000001b3ULL;
}

/// One setup of a pass: a World, its spawn and warm-up, and (when
/// `measured`) the measured phase inside the same World::run().
class Setup {
 public:
  Setup(const PassSpec& spec, const Patterns& pat, bool measured,
        std::vector<LatencyHist>& hists)
      : spec_(spec),
        pat_(pat),
        measured_(measured),
        bytes_(msg_bytes(spec.shape)),
        npairs_(pairs_of(spec.shape)),
        sync_(2 * npairs_, Boundary{this}),
        prime_(2 * npairs_) {
    slices_.reserve(kSlices);  // no allocation inside the measured phase
    for (int i = 0; i < npairs_; ++i) {
      pairs_[static_cast<std::size_t>(i)].rtt = &hists[static_cast<std::size_t>(i)];
    }
  }

  /// Construct the World and run the setup; adds to `out`.
  void run(PassResult& out) {
    const Clock::time_point t0 = Clock::now();
    tmpi::World world(make_config(spec_.tier));
    world_ = &world;
    world.run([this](tmpi::Rank& rank) {
      if (npairs_ > 1) {
        rank.parallel(npairs_, [this, &rank](int tid) { thread_main(rank, tid); });
      } else {
        thread_main(rank, 0);
      }
    });
    out.setup_s.push_back(static_cast<double>(ns_between(t0, setup_end_)) * 1e-9);
    collect(out);
    world_ = nullptr;
  }

 private:
  /// Phase-barrier completion: runs once, on one thread, while every rank
  /// thread is parked in the barrier.
  struct Boundary {
    Setup* s;
    void operator()() noexcept { s->on_boundary(); }
  };

  struct Phase {
    std::optional<Clock::time_point> deadline;  ///< time-bounded when set
    std::int64_t iters = 0;                     ///< otherwise a fixed count
    bool measured = false;
  };

  void on_boundary() {
    const Clock::time_point now = Clock::now();
    for (Pair& p : pairs_) p.last_iter.store(kNoLast, std::memory_order_relaxed);
    if (boundaries_++ == 0) {
      setup_end_ = now;
      if (!measured_) return;
      snap0_ = world_->snapshot();
      fr0_ = world_->flightrec() != nullptr ? world_->flightrec()->recorded() : 0;
      for (const Pair& p : pairs_) {
        fwd0_ += p.fwd_sent;
        back0_ += p.back_sent;
      }
      delivered_.store(0, std::memory_order_relaxed);
      heap0_ = heap_allocs();
      start_ = Clock::now();
      if (spec_.seconds > 0) {
        const auto span = std::chrono::duration<double>(spec_.seconds);
        deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(span);
        for (int k = 0; k < kSlices; ++k) {
          slice_end_[static_cast<std::size_t>(k)] =
              start_ + std::chrono::duration_cast<Clock::duration>(span * (k + 1) / kSlices);
        }
      }
    } else {
      end_ = now;
      heap1_ = heap_allocs();
      fr1_ = world_->flightrec() != nullptr ? world_->flightrec()->recorded() : 0;
      snap1_ = world_->snapshot();
    }
  }

  /// Per-thread handles for one setup: the communicator, the thread's pair
  /// and role, its span sink (null outside measured spanned phases), and the
  /// request and buffer arrays of a window.
  struct Thread {
    tmpi::Comm comm;
    Pair* pair = nullptr;
    int tid = 0;
    bool sender = false;
    SpanTotals* spans = nullptr;
    std::array<tmpi::Request, kWindow> reqs;
    std::array<std::array<std::byte, kMaxBytes>, kWindow> bufs{};
  };

  void thread_main(tmpi::Rank& rank, int tid) {
    Thread t;
    t.comm = rank.world_comm();
    t.pair = &pairs_[static_cast<std::size_t>(tid)];
    t.tid = tid;
    t.sender = rank.rank() == 0;
    ThreadStats& ts = t.pair->ts[t.sender ? 0 : 1];

    prime(t);
    loop(t, Phase{std::nullopt, spec_.warmup_iters, false});
    ts.vt_start = tmpi::net::ThreadClock::get().now();
    sync_.arrive_and_wait();
    if (!measured_) return;

    Phase ph{std::nullopt, spec_.iters, true};
    if (spec_.seconds > 0) ph.deadline = deadline_;
    if (spec_.spans) t.spans = &ts.spans;
    const std::uint64_t v0 = thread_vcsw();
    const Clock::time_point t0 = Clock::now();
    loop(t, ph);
    ts.wall_ns = static_cast<double>(ns_between(t0, Clock::now()));
    ts.vcsw = thread_vcsw() - v0;
    ts.vt_end = tmpi::net::ThreadClock::get().now();
    sync_.arrive_and_wait();
  }

  /// One iteration with every message arriving before its receive is
  /// posted, on both ranks and all pairs at once. That is the deepest the
  /// unexpected queues can get in this closed loop, so most of the matching
  /// queues' lazy growth (node chunks, position index) happens in set-up
  /// rather than at a host-timing-dependent moment of the measured phase.
  void prime(Thread& t) {
    if (t.sender) {
      sender_out(t);
      prime_.arrive_and_wait();  // data queued unexpected at rank 1
      prime_.arrive_and_wait();  // acks/replies queued unexpected at rank 0
      sender_in(t);
    } else {
      prime_.arrive_and_wait();
      receiver_in(t);
      receiver_out(t);
      prime_.arrive_and_wait();
    }
  }

  void loop(Thread& t, const Phase& ph) {
    Pair& p = *t.pair;
    for (std::int64_t i = 0;; ++i) {
      if (t.sender) {
        const Clock::time_point t0 = Clock::now();
        const bool last = ph.deadline ? t0 >= *ph.deadline : i + 1 >= ph.iters;
        if (last) p.last_iter.store(i, std::memory_order_release);
        sender_out(t);
        sender_in(t);
        account(t, ph, t0);
        if (last) return;
      } else {
        receiver_in(t);
        receiver_out(t);
        if (p.last_iter.load(std::memory_order_acquire) == i) return;
      }
    }
  }

  /// Sender-side per-iteration bookkeeping: RTT sample, delivered count, and
  /// (pair 0 only) the wall-clock slice boundaries.
  void account(Thread& t, const Phase& ph, Clock::time_point t0) {
    if (!ph.measured) return;
    const Clock::time_point t1 = Clock::now();
    t.pair->rtt->add(ns_between(t0, t1));
    const auto per_iter = static_cast<std::uint64_t>(data_msgs_per_iter(spec_.shape));
    const std::uint64_t total = delivered_.fetch_add(per_iter, std::memory_order_relaxed) + per_iter;
    if (t.tid != 0 || !ph.deadline) return;
    if (next_slice_ < kSlices && t1 >= slice_end_[static_cast<std::size_t>(next_slice_)]) {
      slices_.push_back({t1, total});
      while (next_slice_ < kSlices && t1 >= slice_end_[static_cast<std::size_t>(next_slice_)]) {
        ++next_slice_;
      }
    }
  }

  void check(Pair& p, bool rx, const std::byte* buf, const tmpi::Status& st, int src,
             tmpi::Tag tag, std::size_t bytes, const std::byte* expect) {
    const bool ok = st.source == src && st.tag == tag && st.bytes == bytes &&
                    st.err == tmpi::Errc::kSuccess &&
                    (bytes == 0 || std::memcmp(buf, expect, bytes) == 0);
    if (bytes > 0) fold(rx ? p.checksum_rx : p.checksum_tx, buf, bytes);
    if (!ok) ++(rx ? p.failed_rx : p.failed_tx);
  }

  [[nodiscard]] tmpi::Tag data_tag(const Thread& t) const { return static_cast<tmpi::Tag>(t.tid); }
  [[nodiscard]] tmpi::Tag ack_tag(const Thread& t) const { return kAckTagBase + data_tag(t); }

  /// Sender, outgoing half: a window of isends and their wait_all, or one
  /// blocking ping.
  void sender_out(Thread& t) {
    Pair& p = *t.pair;
    const int count = static_cast<int>(bytes_);
    if (spec_.shape == Shape::kPingpong) {
      Span s(t.spans, Call::kSend);
      tmpi::send(pat_.of(p.fwd_sent++, 0), count, tmpi::kByte, 1, 0, t.comm);
      return;
    }
    for (auto& r : t.reqs) {
      Span s(t.spans, Call::kIsend);
      r = tmpi::isend(pat_.of(p.fwd_sent++, 2 * t.tid), count, tmpi::kByte, 1, data_tag(t), t.comm);
    }
    Span s(t.spans, Call::kWait);
    tmpi::wait_all(t.reqs.data(), t.reqs.size());
  }

  /// Sender, incoming half: the window's 0-byte ack, or the reply.
  void sender_in(Thread& t) {
    Pair& p = *t.pair;
    const bool pp = spec_.shape == Shape::kPingpong;
    const std::size_t bytes = pp ? bytes_ : 0;
    const tmpi::Tag tag = pp ? 0 : ack_tag(t);
    tmpi::Status st;
    {
      Span s(t.spans, Call::kRecv);
      st = tmpi::recv(pp ? t.bufs[0].data() : nullptr, static_cast<int>(bytes), tmpi::kByte, 1,
                      tag, t.comm);
    }
    check(p, false, t.bufs[0].data(), st, 1, tag, bytes, pat_.of(p.back_checked++, 1));
  }

  /// Receiver, incoming half: a window of irecvs, their wait_all and the
  /// payload checks, or one blocking receive of the ping.
  void receiver_in(Thread& t) {
    Pair& p = *t.pair;
    const int count = static_cast<int>(bytes_);
    if (spec_.shape == Shape::kPingpong) {
      tmpi::Status st;
      {
        Span s(t.spans, Call::kRecv);
        st = tmpi::recv(t.bufs[0].data(), count, tmpi::kByte, 0, 0, t.comm);
      }
      check(p, true, t.bufs[0].data(), st, 0, 0, bytes_, pat_.of(p.fwd_checked++, 0));
      return;
    }
    for (std::size_t j = 0; j < t.reqs.size(); ++j) {
      Span s(t.spans, Call::kIrecv);
      t.reqs[j] = tmpi::irecv(t.bufs[j].data(), count, tmpi::kByte, 0, data_tag(t), t.comm);
    }
    {
      Span s(t.spans, Call::kWait);
      tmpi::wait_all(t.reqs.data(), t.reqs.size());
    }
    for (std::size_t j = 0; j < t.reqs.size(); ++j) {
      check(p, true, t.bufs[j].data(), t.reqs[j].state()->status, 0, data_tag(t), bytes_,
            pat_.of(p.fwd_checked++, 2 * t.tid));
    }
  }

  /// Receiver, outgoing half: the 0-byte ack, or the reply.
  void receiver_out(Thread& t) {
    Pair& p = *t.pair;
    const bool pp = spec_.shape == Shape::kPingpong;
    Span s(t.spans, Call::kSend);
    tmpi::send(pp ? pat_.of(p.back_sent, 1) : nullptr, pp ? static_cast<int>(bytes_) : 0,
               tmpi::kByte, 0, pp ? 0 : ack_tag(t), t.comm);
    ++p.back_sent;
  }

  /// Fold this setup's counters into `out`; counts that must agree and do
  /// not are added to `failed`.
  void collect(PassResult& out) {
    std::uint64_t fwd = 0;
    std::uint64_t back = 0;
    for (int i = 0; i < npairs_; ++i) {
      const Pair& p = pairs_[static_cast<std::size_t>(i)];
      out.attempted += p.fwd_sent + p.back_sent;
      out.failed += p.failed_tx + p.failed_rx;
      out.failed += absdiff(p.fwd_sent, p.fwd_checked) + absdiff(p.back_sent, p.back_checked);
      out.checksum = out.checksum * 31 + (p.checksum_tx ^ (p.checksum_rx << 1));
      fwd += p.fwd_sent;
      back += p.back_sent;
    }
    if (!measured_) return;

    const std::uint64_t msgs = delivered_.load(std::memory_order_relaxed);
    const std::uint64_t data_sent =
        fwd - fwd0_ + (spec_.shape == Shape::kPingpong ? back - back0_ : 0);
    out.failed += absdiff(msgs, data_sent);
    out.msgs = msgs;

    if (!slices_.empty() && spec_.seconds > 0) {
      std::vector<double> per_msg;
      Clock::time_point t = start_;
      std::uint64_t m = 0;
      for (const auto& [ts, total] : slices_) {
        if (total > m) {
          per_msg.push_back(static_cast<double>(ns_between(t, ts)) / static_cast<double>(total - m));
        }
        t = ts;
        m = total;
      }
      out.host_ns_per_msg = median(per_msg);
    } else if (msgs > 0) {
      out.host_ns_per_msg = static_cast<double>(ns_between(start_, end_)) / static_cast<double>(msgs);
    }

    tmpi::net::Time vt0 = 0;
    tmpi::net::Time vt1 = 0;
    for (int i = 0; i < npairs_; ++i) {
      for (const ThreadStats& ts : pairs_[static_cast<std::size_t>(i)].ts) {
        vt0 = std::max(vt0, ts.vt_start);
        vt1 = std::max(vt1, ts.vt_end);
        out.spans.add(ts.spans);
        out.vcsw += ts.vcsw;
        out.thread_ns += ts.wall_ns;
      }
    }
    out.vt_ns = static_cast<double>(vt1 - vt0);

    // Every message sent in the measured phase, data and acks, must show up
    // in the runtime's own message count.
    const tmpi::net::NetStatsSnapshot d = snap1_ - snap0_;
    const std::uint64_t sent = fwd - fwd0_ + back - back0_;
    out.failed += absdiff(d.messages, sent);
    out.net_messages = d.messages;
    out.lock_acquisitions = d.lock_acquisitions;
    out.contended_acquisitions = d.contended_acquisitions;
    out.unexpected = d.unexpected_messages;
    out.match_probes = d.match_probes;
    out.bucket_hits = d.bucket_hits;
    out.match_lookups = d.bucket_hits + d.bucket_misses + d.wildcard_fallbacks;
    out.flightrec_events = fr1_ - fr0_;
    out.heap_allocs = heap1_ - heap0_;
  }

  const PassSpec& spec_;
  const Patterns& pat_;
  const bool measured_;
  const std::size_t bytes_;
  const int npairs_;
  std::array<Pair, 2> pairs_;
  std::barrier<Boundary> sync_;
  std::barrier<> prime_;
  tmpi::World* world_ = nullptr;

  int boundaries_ = 0;
  Clock::time_point setup_end_{};
  Clock::time_point start_{};
  Clock::time_point end_{};
  Clock::time_point deadline_{};
  std::array<Clock::time_point, kSlices> slice_end_{};
  int next_slice_ = 0;
  std::vector<std::pair<Clock::time_point, std::uint64_t>> slices_;
  std::atomic<std::uint64_t> delivered_{0};
  std::uint64_t fwd0_ = 0;
  std::uint64_t back0_ = 0;
  std::uint64_t heap0_ = 0;
  std::uint64_t heap1_ = 0;
  std::uint64_t fr0_ = 0;
  std::uint64_t fr1_ = 0;
  tmpi::net::NetStatsSnapshot snap0_;
  tmpi::net::NetStatsSnapshot snap1_;
};

}  // namespace

PassResult run_pass(const PassSpec& spec) {
  const Patterns pat(spec.seed);
  std::vector<LatencyHist> hists(static_cast<std::size_t>(pairs_of(spec.shape)));
  PassResult out;
  for (int s = 0; s < spec.setups; ++s) {
    Setup setup(spec, pat, s + 1 == spec.setups, hists);
    setup.run(out);
  }
  for (const LatencyHist& h : hists) out.rtt.merge(h);
  return out;
}

}  // namespace hostbench
