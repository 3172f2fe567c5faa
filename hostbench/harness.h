#ifndef HOSTBENCH_HARNESS_H
#define HOSTBENCH_HARNESS_H

/// \file harness.h
/// Shared types of the tmpi host-time benchmark: workload passes, the
/// benchmark-side spans around tmpi calls, and the isolated layer
/// microbenches. Everything here is driven through tmpi's public functions;
/// the runtime itself carries no benchmark instrumentation.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Global operator-new calls made by this process so far (alloc_count.cpp).
[[nodiscard]] std::uint64_t heap_allocs();

enum class Shape { kStream, kPingpong, kContended };

/// Runtime configuration a pass runs under. kDefault is what a user gets
/// with an empty WorldConfig: serial exec mode, flight recorder on, tracing
/// off. The other tiers exist only for the per-layer differences.
enum class Tier { kDefault, kFlightrecOff, kFullTrace, kParallel };

/// Latency histogram with 4 ns buckets up to ~4 ms and power-of-two buckets
/// beyond. Fixed size, allocated up front, so the peak RSS a run reports
/// does not depend on how many samples a faster runtime takes.
class LatencyHist {
 public:
  LatencyHist() : lin_(kLinear, 0) {}

  void add(std::uint64_t ns) {
    ++n_;
    if (ns >> kShift < kLinear) {
      ++lin_[ns >> kShift];
    } else {
      ++log_[static_cast<std::size_t>(std::bit_width(ns))];
    }
  }

  void merge(const LatencyHist& o) {
    n_ += o.n_;
    for (std::size_t i = 0; i < kLinear; ++i) lin_[i] += o.lin_[i];
    for (std::size_t i = 0; i < log_.size(); ++i) log_[i] += o.log_[i];
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }

  /// Nearest-rank percentile in ns, at the bucket's midpoint (q in (0, 1]);
  /// 0 when empty.
  [[nodiscard]] double percentile(double q) const {
    if (n_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_));
    if (rank < 1) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kLinear; ++i) {
      seen += lin_[i];
      if (seen >= rank) return static_cast<double>((i << kShift) + (std::size_t{1} << (kShift - 1)));
    }
    for (std::size_t b = 0; b < log_.size(); ++b) {
      seen += log_[b];
      if (seen >= rank) return static_cast<double>(std::uint64_t{1} << (b - 1));
    }
    return static_cast<double>(std::uint64_t{1} << 63);
  }

 private:
  static constexpr int kShift = 2;  ///< linear bucket width 2^kShift ns
  static constexpr std::size_t kLinear = std::size_t{1} << 20;
  std::vector<std::uint32_t> lin_;
  std::array<std::uint64_t, 65> log_{};
  std::uint64_t n_ = 0;
};

/// The tmpi calls the benchmark wraps in spans. Blocking `recv` counts as
/// waiting in wait_share: it is a post plus a wait, and the wait dominates.
enum class Call { kIsend, kIrecv, kSend, kRecv, kWait, kCount };
inline constexpr std::size_t kCalls = static_cast<std::size_t>(Call::kCount);

/// Per-call-kind totals of benchmark spans. The spans never nest, so a
/// span's self time is its whole duration.
struct SpanTotals {
  std::array<std::uint64_t, kCalls> ns{};
  std::array<std::uint64_t, kCalls> calls{};

  void add(const SpanTotals& o) {
    for (std::size_t i = 0; i < kCalls; ++i) {
      ns[i] += o.ns[i];
      calls[i] += o.calls[i];
    }
  }
  [[nodiscard]] std::uint64_t ns_of(Call c) const { return ns[static_cast<std::size_t>(c)]; }
  /// Mean span duration of `c` in ns; 0 when never called.
  [[nodiscard]] double mean_ns(Call c) const {
    const std::uint64_t n = calls[static_cast<std::size_t>(c)];
    return n == 0 ? 0.0 : static_cast<double>(ns_of(c)) / static_cast<double>(n);
  }
};

/// One run of a workload shape: `setups` World constructions, each followed
/// by rank spawn and a fixed warm-up; the last one continues, inside the
/// same World::run(), into the measured phase.
struct PassSpec {
  Shape shape = Shape::kStream;
  Tier tier = Tier::kDefault;
  std::uint64_t seed = 1;
  bool spans = false;        ///< wrap every tmpi call in a benchmark span
  int setups = 1;
  std::int64_t warmup_iters = 0;  ///< per thread pair, in every setup
  double seconds = 0;        ///< > 0: time-bounded measured phase
  std::int64_t iters = 0;    ///< otherwise: fixed iterations per pair
};

struct PassResult {
  std::vector<double> setup_s;  ///< one entry per setup
  double host_ns_per_msg = 0;   ///< median over wall-clock slices (timed) or whole phase
  double vt_ns = 0;             ///< virtual time of the measured phase
  std::uint64_t msgs = 0;       ///< data messages sent in the measured phase
  std::uint64_t attempted = 0;  ///< messages sent over the whole pass (data and acks)
  std::uint64_t failed = 0;     ///< payload, status or count mismatches
  std::uint64_t checksum = 0;   ///< fold of every verified payload
  LatencyHist rtt;              ///< one sample per closed-loop iteration

  // Layer counters over the measured phase (from World::snapshot(), the
  // flight recorder, the allocation counter and getrusage).
  std::uint64_t net_messages = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t contended_acquisitions = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t match_probes = 0;
  std::uint64_t bucket_hits = 0;
  std::uint64_t match_lookups = 0;  ///< bucket hits + misses + list fallbacks
  std::uint64_t flightrec_events = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t vcsw = 0;           ///< voluntary context switches, all rank threads

  SpanTotals spans;
  double thread_ns = 0;  ///< measured-phase wall time summed over rank threads
};

[[nodiscard]] PassResult run_pass(const PassSpec& spec);

/// Isolated layer costs, each the median over batches of the per-call host
/// time, driven through the layer's public functions.
struct LayerCosts {
  double construct_us = 0;
  double run_spawn_us = 0;
  double inject_ns = 0;
  double deliver_ns = 0;
  double post_recv_ns = 0;
  double deposit_posted_ns = 0;
  double deposit_unexpected_ns = 0;
  double lock_uncontended_ns = 0;
  double lock_handoff_ns = 0;
  double slab_ns = 0;
  double flightrec_record_ns = 0;
};

[[nodiscard]] LayerCosts measure_layers();

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace hostbench

#endif  // HOSTBENCH_HARNESS_H
