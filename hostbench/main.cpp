/// tmpi host-time benchmark: command line, passes and JSON result.
///
///   hostbench --workload stream|pingpong|contended --seed N --seconds S --trace 0|1
///
/// --trace 0 runs the workload under the default configuration (serial exec
/// mode, flight recorder on, tracing off) and reports the end-to-end metrics.
/// --trace 1 is the separate traced run: benchmark spans around every tmpi
/// call, the isolated layer microbenches, the observability and exec-mode
/// tiers, and the self-check that exact counts repeat. Either way the last
/// stdout line is one JSON object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. A human-readable copy goes to
/// stderr.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace hostbench;

struct Options {
  Shape shape = Shape::kStream;
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-shape closed-loop sizes. One iteration is a window of 64 messages
/// plus its ack (stream, contended: per thread pair) or one round trip
/// (pingpong).
struct Sizes {
  std::int64_t warmup;
  std::int64_t fixed;  ///< iterations of the self-check passes
};

Sizes sizes_of(Shape s) {
  switch (s) {
    case Shape::kStream:
      return {100, 1000};
    case Shape::kPingpong:
      return {1000, 5000};
    case Shape::kContended:
      return {100, 500};
  }
  return {1, 1};
}

/// World constructions per untraced run; setup_s is their median.
constexpr int kSetups = 9;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload stream|pingpong|contended "
               "--seed N --seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(v);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0 or 1");
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload == "stream") {
    o.shape = Shape::kStream;
  } else if (o.workload == "pingpong") {
    o.shape = Shape::kPingpong;
  } else if (o.workload == "contended") {
    o.shape = Shape::kContended;
  } else {
    usage("--workload must be stream, pingpong or contended");
  }
  if (o.seconds < 1 || o.seconds > 600) usage("--seconds must be in [1, 600]");
  return o;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

PassSpec timed_spec(const Options& o, Tier tier, double seconds, int setups, bool spans) {
  PassSpec s;
  s.shape = o.shape;
  s.tier = tier;
  s.seed = o.seed;
  s.spans = spans;
  s.setups = setups;
  s.warmup_iters = sizes_of(o.shape).warmup;
  s.seconds = seconds;
  return s;
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void tally(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.msgs == 0) correct = false;
  }
};

Outcome end_to_end(const Options& o) {
  Outcome out;
  const PassResult r = run_pass(timed_spec(o, Tier::kDefault, o.seconds, kSetups, false));
  out.tally(r);
  out.metrics = {
      {"host_ns_per_msg", r.host_ns_per_msg, "ns"},
      {"rtt_p50_us", r.rtt.percentile(0.50) * 1e-3, "us"},
      {"rtt_p90_us", r.rtt.percentile(0.90) * 1e-3, "us"},
      {"vt_mmsg_per_s", ratio(static_cast<double>(r.msgs) * 1e3, r.vt_ns), "Mmsg/s"},
      {"setup_s", median(r.setup_s), "s"},
      {"rss_peak_mb", rss_peak_mb(), "MB"},
  };
  std::fprintf(stderr, "measured %llu data messages, %llu closed-loop iterations\n",
               static_cast<unsigned long long>(r.msgs),
               static_cast<unsigned long long>(r.rtt.count()));
  return out;
}

/// The counts that must repeat exactly between passes of one seed: the
/// messages and their checksum, and the per-message layer counts. Heap
/// allocations are reported but not required to repeat: the matching
/// queues and the request pool grow lazily to high-water marks that depend
/// on how the two ranks' threads interleave (0-2 allocations per pass after
/// the priming round, none of them per message).
bool same_counts(const char* what, const PassResult& a, const PassResult& b) {
  struct Row {
    const char* name;
    std::uint64_t x, y;
  };
  const Row rows[] = {
      {"messages", a.msgs, b.msgs},
      {"checksum", a.checksum, b.checksum},
      {"lock acquisitions", a.lock_acquisitions, b.lock_acquisitions},
      {"flight-recorder events", a.flightrec_events, b.flightrec_events},
  };
  bool ok = true;
  for (const Row& r : rows) {
    if (r.x != r.y) {
      std::fprintf(stderr, "SELF-CHECK FAILED (%s): %s %llu != %llu\n", what, r.name,
                   static_cast<unsigned long long>(r.x), static_cast<unsigned long long>(r.y));
      ok = false;
    }
  }
  if (a.heap_allocs != b.heap_allocs) {
    std::fprintf(stderr, "note (%s): heap allocations %llu vs %llu (lazy queue growth)\n", what,
                 static_cast<unsigned long long>(a.heap_allocs),
                 static_cast<unsigned long long>(b.heap_allocs));
  }
  return ok;
}

Outcome per_layer(const Options& o) {
  Outcome out;
  const LayerCosts L = measure_layers();

  // Self-check: two untraced passes and one spanned pass of the same seed
  // and fixed size must give identical counts and checksums.
  PassSpec fixed = timed_spec(o, Tier::kDefault, 0, 1, false);
  fixed.iters = sizes_of(o.shape).fixed;
  const PassResult a = run_pass(fixed);
  const PassResult b = run_pass(fixed);
  fixed.spans = true;
  const PassResult c = run_pass(fixed);
  for (const PassResult* r : {&a, &b, &c}) out.tally(*r);
  const bool repeats = same_counts("repeat", a, b);
  const bool traced_matches = same_counts("traced vs untraced", a, c);
  if (!repeats || !traced_matches) out.correct = false;

  // Timed tiers, each on a fresh World with the same warm-up.
  const double t = std::max(0.5, (o.seconds - 3.0) / 5.0);
  const PassResult def = run_pass(timed_spec(o, Tier::kDefault, t, 1, false));
  const PassResult fr_off = run_pass(timed_spec(o, Tier::kFlightrecOff, t, 1, false));
  const PassResult full = run_pass(timed_spec(o, Tier::kFullTrace, t, 1, false));
  const PassResult par = run_pass(timed_spec(o, Tier::kParallel, t, 1, false));
  const PassResult spans = run_pass(timed_spec(o, Tier::kDefault, t, 1, true));
  for (const PassResult* r : {&def, &fr_off, &full, &par, &spans}) out.tally(*r);

  // pingpong makes no nonblocking calls; its isend/irecv costs come from a
  // short companion stream pass with spans.
  SpanTotals nonblocking = spans.spans;
  if (o.shape == Shape::kPingpong) {
    Options so = o;
    so.shape = Shape::kStream;
    PassSpec cs = timed_spec(so, Tier::kDefault, 0, 1, true);
    cs.iters = sizes_of(Shape::kStream).fixed / 4;
    const PassResult comp = run_pass(cs);
    out.tally(comp);
    nonblocking = comp.spans;
  }

  const double blocked_ns = static_cast<double>(spans.spans.ns_of(Call::kWait) +
                                                spans.spans.ns_of(Call::kRecv));
  const double per_msg_layers = L.inject_ns + L.deliver_ns + L.lock_uncontended_ns +
                                L.post_recv_ns + L.slab_ns;
  out.metrics = {
      {"tmpi.world.construct_us", L.construct_us, "us"},
      {"tmpi.world.run_spawn_us", L.run_spawn_us, "us"},
      {"tmpi.p2p.isend_ns", nonblocking.mean_ns(Call::kIsend), "ns"},
      {"tmpi.p2p.irecv_ns", nonblocking.mean_ns(Call::kIrecv), "ns"},
      {"tmpi.p2p.send_ns", spans.spans.mean_ns(Call::kSend), "ns"},
      {"tmpi.p2p.recv_ns", spans.spans.mean_ns(Call::kRecv), "ns"},
      {"rtt_p99_us", def.rtt.percentile(0.99) * 1e-3, "us"},
      {"bench.rtt_samples", static_cast<double>(def.rtt.count()), "count"},
      {"tmpi.request.wait_ns_per_msg", ratio(blocked_ns, static_cast<double>(spans.msgs)), "ns"},
      {"tmpi.request.wait_share", ratio(blocked_ns, spans.thread_ns), "ratio"},
      {"tmpi.request.vcsw_per_msg", ratio(def.vcsw, def.msgs), "1/msg"},
      {"tmpi.transport.inject_ns", L.inject_ns, "ns"},
      {"tmpi.transport.deliver_ns", L.deliver_ns, "ns"},
      {"tmpi.matching.post_recv_ns", L.post_recv_ns, "ns"},
      {"tmpi.matching.deposit_posted_ns", L.deposit_posted_ns, "ns"},
      {"tmpi.matching.deposit_unexpected_ns", L.deposit_unexpected_ns, "ns"},
      {"tmpi.matching.unexpected_share", ratio(a.unexpected, a.net_messages), "ratio"},
      {"tmpi.matching.bucket_hit_share", ratio(a.bucket_hits, a.match_lookups), "ratio"},
      {"tmpi.matching.probes_per_msg", ratio(a.match_probes, a.msgs), "1/msg"},
      {"net.contention_lock.uncontended_ns", L.lock_uncontended_ns, "ns"},
      {"net.contention_lock.handoff_ns", L.lock_handoff_ns, "ns"},
      {"net.contention_lock.contended_share",
       ratio(def.contended_acquisitions, def.lock_acquisitions), "ratio"},
      {"net.contention_lock.acquisitions_per_msg", ratio(a.lock_acquisitions, a.msgs), "1/msg"},
      {"net.slab_pool.acquire_release_ns", L.slab_ns, "ns"},
      {"alloc.heap_per_msg", ratio(a.heap_allocs, a.msgs), "1/msg"},
      {"net.flightrec.record_ns", L.flightrec_record_ns, "ns"},
      {"net.flightrec.events_per_msg", ratio(a.flightrec_events, a.msgs), "1/msg"},
      {"obs.flightrec_ns_per_msg", def.host_ns_per_msg - fr_off.host_ns_per_msg, "ns"},
      {"obs.trace_ns_per_msg", full.host_ns_per_msg - def.host_ns_per_msg, "ns"},
      {"net.pdes.host_ratio", ratio(par.host_ns_per_msg, def.host_ns_per_msg), "ratio"},
      {"layers.unattributed_ns_per_msg", def.host_ns_per_msg - per_msg_layers, "ns"},
      {"bench.trace_overhead_ns_per_msg", spans.host_ns_per_msg - def.host_ns_per_msg, "ns"},
  };
  std::fprintf(stderr,
               "host ns/msg by tier: default %.1f, flightrec off %.1f, full trace %.1f, "
               "parallel %.1f, benchmark spans %.1f\n",
               def.host_ns_per_msg, fr_off.host_ns_per_msg, full.host_ns_per_msg,
               par.host_ns_per_msg, spans.host_ns_per_msg);
  return out;
}

void print(const Outcome& out) {
  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-42s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string js = "{\"correct\": ";
  js += out.correct && out.failed == 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(out.attempted < 1 ? 1 : out.attempted);
  js += ", \"failed\": " + std::to_string(out.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.10g", out.metrics[i].value);
    js += (i == 0 ? "\"" : ", \"") + out.metrics[i].name + "\": {\"value\": " + num +
          ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    const Outcome out = o.trace ? per_layer(o) : end_to_end(o);
    print(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
