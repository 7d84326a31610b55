// perfbench: the repository benchmark. Runs one named workload against a
// raid::Rig and prints its metrics; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics in two clocks: host time (what
// the simulator costs) from repeated untraced runs, medians over the runs,
// and simulated time (what the modelled cluster does), which is identical
// on every run of a seed. --trace 1 reports the per-layer metrics: stats
// counters from an untraced run, self time per span category from a
// separate traced run of the same window, and a host-time pass over each
// layer's public API. Both modes check their outputs (see `correct`).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "layers.hpp"
#include "obs/trace.hpp"
#include "sim/slab.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] - '0';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact nearest-rank percentile of simulated latencies.
struct Pct {
  double ms = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly after the percentile's rank
};

Pct percentile(std::vector<csar::sim::Duration> v, double q) {
  Pct p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  p.ms = static_cast<double>(v[idx]) / 1e6;
  p.beyond = v.size() - 1 - idx;
  return p;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit, double v) {
    if (!std::isfinite(v)) {
      check(false, name + " is finite");
      v = 0;
    }
    metrics_.push_back({name, unit, v});
    std::printf("METRIC %-32s %16.6f %s\n", name.c_str(), v, unit.c_str());
  }
  void check(bool cond, const std::string& what) {
    std::printf("CHECK  %-60s [%s]\n", what.c_str(), cond ? "ok" : "FAIL");
    if (!cond) correct = false;
  }
  void print_json(std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

  bool correct = true;

 private:
  std::vector<Metric> metrics_;
};

/// Every simulated outcome of a run, for exact comparison between runs.
struct SimSignature {
  std::uint64_t fingerprint, events, arrivals, completed, shed, failed;
  std::uint64_t bytes, elapsed, verified, mismatches;
  bool operator==(const SimSignature&) const = default;
};

SimSignature signature(const RunResult& r) {
  return {r.fingerprint, r.delta.events, r.arrivals, r.completed, r.shed,
          r.failed, r.bytes_served, r.window_end - r.window_start,
          r.verified_reads, r.verify_mismatches};
}

/// Checks every run must pass, whatever the mode.
void check_run(Report& rep, const Spec& spec, const RunResult& r,
               const char* label) {
  const std::string l = std::string(label) + ": ";
  rep.check(r.late == 0, l + "every request issued at its due time");
  rep.check(r.arrivals > 0 && r.completed > 0, l + "requests completed");
  if (spec.materialize) {
    rep.check(r.verified_reads > 0 && r.verify_mismatches == 0,
              l + "reads match the shadow copy (" +
                  std::to_string(r.verified_reads) + " checked)");
  }
  if (spec.rebuild) {
    rep.check(r.rebuild_ok, l + "wiped server rebuilt and admitted");
  }
}

double fail_frac(const RunResult& r) {
  return r.arrivals == 0
             ? 1.0
             : static_cast<double>(r.shed + r.failed) /
                   static_cast<double>(r.arrivals);
}

/// p99 over every arrival, a shed or failed one counting as infinitely late.
double p99_all_ms(const RunResult& r) {
  std::vector<csar::sim::Duration> all = r.write_lat;
  all.insert(all.end(), r.read_lat.begin(), r.read_lat.end());
  all.insert(all.end(), r.shed + r.failed,
             std::numeric_limits<csar::sim::Duration>::max());
  const Pct p = percentile(std::move(all), 0.99);
  const bool none = p.samples == 0 || p.ms >= 1e12;
  return none ? std::numeric_limits<double>::infinity() : p.ms;
}

/// Highest rung of a fixed ladder of multiples of the nominal rate that
/// meets the workload's p99 limit with fail_frac <= 1%. The ladder climbs
/// from the nominal rate and stops at the first rung that misses (it steps
/// down instead when the nominal rate already misses).
double capacity_rps(Report& rep, const Spec& spec, std::uint64_t seed) {
  static constexpr double kLadder[] = {0.5, 0.75, 1.0, 1.25, 1.5,
                                       2.0, 2.5,  3.0, 4.0};
  constexpr std::size_t kNominal = 2;
  RunOptions opt;
  opt.final_verify = false;
  auto meets = [&](std::size_t i) {
    opt.rate_scale = kLadder[i];
    const RunResult r = run_workload(spec, seed, opt);
    const double ff = fail_frac(r);
    const double p99 = p99_all_ms(r);
    const bool ok = ff <= 0.01 && p99 <= spec.p99_limit_ms && r.rebuild_ok;
    std::printf("LADDER %.2fx rate=%.0f/s fail_frac=%.5f write_p50=%.6f ms "
                "read_p50=%.6f ms p99=%.3f ms limit=%.0f ms -> %s\n",
                kLadder[i], spec.rate_rps * kLadder[i], ff,
                percentile(r.write_lat, 0.5).ms, percentile(r.read_lat, 0.5).ms,
                p99, spec.p99_limit_ms, ok ? "meets" : "misses");
    if (r.verify_mismatches != 0 || r.late != 0) {
      rep.check(false, "ladder run outputs correct");
    }
    return ok;
  };
  std::size_t best = std::size(kLadder);
  if (meets(kNominal)) {
    best = kNominal;
    while (best + 1 < std::size(kLadder) && meets(best + 1)) ++best;
  } else {
    for (std::size_t i = kNominal; i-- > 0;) {
      if (meets(i)) {
        best = i;
        break;
      }
    }
  }
  return best == std::size(kLadder) ? 0.0 : spec.rate_rps * kLadder[best];
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_run(const char* label, const RunResult& r) {
  std::printf("RUN %s: arrivals=%llu completed=%llu shed=%llu failed=%llu "
              "events=%llu sim_s=%.6f setup_s=%.3f run_s=%.3f "
              "slot_misses=%llu fingerprint=0x%016llx\n",
              label, static_cast<unsigned long long>(r.arrivals),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.delta.events),
              r.sim_elapsed_s(), r.setup_s, r.run_s,
              static_cast<unsigned long long>(r.slot_misses),
              static_cast<unsigned long long>(r.fingerprint));
}

// ------------------------------------------------------------ end to end

/// Host seconds of a fixed CPU and memory workload that shares no code with
/// the simulator. Half has an event loop's profile: a binary heap of timed
/// entries, small heap allocations freed out of order, hash-table updates
/// and a pointer chase over a few MiB. The other half is an integer hash
/// loop that stays in registers.
double reference_s() {
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::uint32_t n = 1u << 20;
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t i = n - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<std::uint32_t> nx(n);
    for (std::uint32_t i = 0; i < n; ++i) nx[order[i]] = order[(i + 1) % n];
    return nx;
  }();
  const auto t0 = Clock::now();
  struct Item {
    std::uint64_t key;
    std::vector<std::uint32_t>* payload;
    bool operator>(const Item& o) const { return key > o.key; }
  };
  std::vector<Item> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::uint32_t p = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < 150000; ++i) {
    p = next[p];
    auto* v = new std::vector<std::uint32_t>(8 + (p & 63), p);
    heap.push_back({(static_cast<std::uint64_t>(p) << 16) + acc, v});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 2048) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      Item it = heap.back();
      heap.pop_back();
      acc += it.payload->back() + it.key;
      table[static_cast<std::uint32_t>(it.key) & 0xFFFF] += acc;
      delete it.payload;
    }
  }
  for (Item& it : heap) delete it.payload;
  std::uint64_t x = acc | 1;
  for (int i = 0; i < 16000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += (x * 0x9E3779B97F4A7C15ULL) >> 7;
  }
  volatile std::uint64_t sink = acc + table.size();
  (void)sink;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nominal duration of reference_s() on a quiet machine. Host times are
/// reported at this reference speed: each repetition's raw host time is
/// scaled by kReferenceS over the reference loop's time measured just before
/// and just after it, so a machine-wide slowdown shared by both cancels out.
/// The raw medians are printed beside the metrics.
constexpr double kReferenceS = 0.08;

int run_end_to_end(const Args& a, const Spec& spec) {
  Report rep;
  std::vector<RunResult> runs;
  std::vector<double> scale;  // kReferenceS / reference time around each run
  const auto t0 = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // Host time: repeat the whole set-up + window until the time is spent
  // (at least three runs); every run must reproduce the first exactly.
  double ref_before = reference_s();
  while (runs.size() < 3 || (elapsed() < a.seconds && runs.size() < 64)) {
    runs.push_back(run_workload(spec, a.seed, RunOptions{}));
    const double ref_after = reference_s();
    scale.push_back(kReferenceS / (0.5 * (ref_before + ref_after)));
    ref_before = ref_after;
    print_run(("rep" + std::to_string(runs.size())).c_str(), runs.back());
  }
  const double rss = peak_rss_mib();
  const RunResult& r = runs.front();
  check_run(rep, spec, r, "rep1");
  bool same = true;
  for (const RunResult& o : runs) same = same && signature(o) == signature(r);
  rep.check(same, "every simulated outcome identical across " +
                      std::to_string(runs.size()) + " runs");

  std::vector<double> run_s, raw_run_s, setup_s, raw_setup_s;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    run_s.push_back(runs[i].run_s * scale[i]);
    setup_s.push_back(runs[i].setup_s * scale[i]);
    raw_run_s.push_back(runs[i].run_s);
    raw_setup_s.push_back(runs[i].setup_s);
  }
  const double run = median(run_s);
  std::printf(
      "INFO runs=%zu raw_run_s=%.6f raw_setup_s=%.6f speed_scale=%.4f\n",
      runs.size(), median(raw_run_s), median(raw_setup_s), median(scale));
  rep.add("host_us_per_op", "us", run * 1e6 / static_cast<double>(r.completed));
  rep.add("events_per_sec", "1/s", static_cast<double>(r.delta.events) / run);
  rep.add("host_s_per_sim_s", "s/s", run / r.sim_elapsed_s());
  rep.add("peak_rss_mib", "MiB", rss);
  rep.add("setup_s", "s", median(setup_s));

  const char* names[] = {"sim_write_p50_ms", "sim_write_p99_ms",
                         "sim_read_p50_ms", "sim_read_p99_ms"};
  const Pct pcts[] = {
      percentile(r.write_lat, 0.50), percentile(r.write_lat, 0.99),
      percentile(r.read_lat, 0.50), percentile(r.read_lat, 0.99)};
  for (std::size_t i = 0; i < 4; ++i) {
    std::printf("SAMPLES %s n=%zu beyond=%zu\n", names[i], pcts[i].samples,
                pcts[i].beyond);
    rep.check(pcts[i].beyond >= 10,
              std::string(names[i]) + " has at least ten samples beyond it");
    rep.add(names[i], "ms", pcts[i].ms);
  }
  rep.add("sim_served_mib_s", "MiB/s",
          static_cast<double>(r.bytes_served) / (1024.0 * 1024.0) /
              r.sim_elapsed_s());
  rep.add("sim_capacity_rps", "1/s", capacity_rps(rep, spec, a.seed));
  if (spec.rebuild) rep.add("sim_rebuild_s", "s", r.rebuild_s);
  std::printf("INFO fail_frac=%.6f\n", fail_frac(r));
  rep.print_json(r.arrivals, r.shed + r.failed);
  return 0;
}

// ------------------------------------------------------------- per layer

/// Per-category self time of the traced window: each span's duration minus
/// the part of it that its child spans cover.
std::map<std::string, double> self_time_ms(const csar::obs::Tracer& t,
                                           csar::sim::Time lo,
                                           csar::sim::Time hi) {
  const auto& ev = t.events();
  std::map<csar::obs::SpanId, std::size_t> index;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].ph == 'X') index.emplace(ev[i].id, i);
  }
  struct Child {
    std::size_t parent;
    csar::sim::Time start, end;
  };
  std::vector<Child> kids;
  for (const auto& e : ev) {
    if (e.ph != 'X' || e.parent == 0) continue;
    const auto it = index.find(e.parent);
    if (it != index.end()) {
      kids.push_back({it->second, e.start, e.start + e.dur});
    }
  }
  std::sort(kids.begin(), kids.end(), [](const Child& x, const Child& y) {
    return x.parent != y.parent ? x.parent < y.parent : x.start < y.start;
  });
  std::vector<csar::sim::Duration> covered(ev.size(), 0);
  for (std::size_t i = 0; i < kids.size();) {
    const std::size_t p = kids[i].parent;
    const csar::sim::Time ps = ev[p].start;
    const csar::sim::Time pe = ev[p].start + ev[p].dur;
    csar::sim::Time run_s = 0, run_e = 0;
    bool open = false;
    for (; i < kids.size() && kids[i].parent == p; ++i) {
      const csar::sim::Time s = std::max(kids[i].start, ps);
      const csar::sim::Time e = std::min(kids[i].end, pe);
      if (e <= s) continue;
      if (open && s <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered[p] += run_e - run_s;
      run_s = s;
      run_e = e;
      open = true;
    }
    if (open) covered[p] += run_e - run_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const auto& e = ev[i];
    if (e.ph != 'X' || e.start < lo || e.start > hi) continue;
    std::string bucket = e.cat;
    if (bucket == "server" && std::strcmp(e.name, "iod_queue") == 0) {
      bucket = "iod_queue";
    }
    out[bucket] += static_cast<double>(e.dur - covered[i]) / 1e6;
  }
  return out;
}

int run_per_layer(const Args& a, const Spec& spec) {
  Report rep;
  const auto t0 = Clock::now();
  // Untraced and traced runs alternate; the traced one must reproduce the
  // untraced one exactly, and their host-time ratio is the tracing overhead.
  // The first traced run's tracer feeds the self-time breakdown.
  const RunResult plain = run_workload(spec, a.seed, RunOptions{});
  print_run("untraced", plain);
  csar::obs::Tracer tracer;
  RunOptions topt;
  topt.tracer = &tracer;
  const RunResult traced = run_workload(spec, a.seed, topt);
  print_run("traced", traced);
  std::printf("INFO traced spans=%zu\n", tracer.span_count());
  check_run(rep, spec, plain, "untraced");
  check_run(rep, spec, traced, "traced");
  auto same = [&plain](const RunResult& r) {
    return signature(r) == signature(plain) && r.write_lat == plain.write_lat &&
           r.read_lat == plain.read_lat;
  };
  bool unchanged = same(traced);
  std::vector<double> overhead = {traced.run_s / plain.run_s - 1.0};
  for (int pair = 0; pair < 2; ++pair) {
    csar::obs::Tracer t;
    RunOptions o;
    o.tracer = &t;
    const RunResult tr = run_workload(spec, a.seed, o);
    const RunResult un = run_workload(spec, a.seed, RunOptions{});
    unchanged = unchanged && same(tr) && same(un);
    overhead.push_back(tr.run_s / un.run_s - 1.0);
  }
  rep.check(unchanged, "tracing leaves every simulated outcome unchanged");

  const Counters& d = plain.delta;
  auto num = [](std::uint64_t x) { return static_cast<double>(x); };
  auto per = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  auto mib = [](std::uint64_t x) { return static_cast<double>(x) / (1 << 20); };
  const double ops = num(std::max<std::uint64_t>(1, plain.completed));

  rep.add("fail_frac", "frac", fail_frac(plain));
  rep.add("verify_mismatches", "count",
          num(plain.verify_mismatches + traced.verify_mismatches));

  rep.add("sim.events_per_op", "count", per(num(d.events), ops));
  rep.add("sim.slab_chunk_mib", "MiB",
          mib(csar::sim::slab::stats().chunk_bytes));
  rep.add("sim.slab_recycled_frac", "frac",
          per(num(plain.slab_recycled), num(plain.slab_allocs)));

  rep.add("pvfs.rpcs_per_op", "count", per(num(d.rpcs), ops));
  rep.add("pvfs.batch_subs_per_batch", "count",
          per(num(d.batch_subs), num(d.batches)));
  rep.add("pvfs.retries", "count", num(d.retries));
  rep.add("pvfs.lock_waits_per_acq", "frac",
          per(num(d.lock_waits), num(d.lock_acqs)));

  rep.add("hw.cache_hit_frac", "frac",
          per(num(d.cache_hits), num(d.cache_hits + d.cache_misses)));
  rep.add("hw.cache_dirty_evictions", "count", num(d.cache_dirty_evictions));
  rep.add("hw.cache_prereads", "count", num(d.cache_prereads));
  rep.add("hw.disk_busy_frac", "frac",
          per(csar::sim::to_seconds(d.disk_busy),
              plain.sim_elapsed_s() * spec.nservers));
  rep.add("hw.disk_ops_per_op", "count", per(num(d.disk_ops), ops));

  rep.add("raid.ec_decode_mib", "MiB", mib(d.ec_decode_bytes));
  rep.add("raid.degraded_reads", "count", num(d.degraded_reads));
  rep.add("raid.rebuild_mib", "MiB", mib(plain.rebuild_bytes));
  rep.add("raid.rebuild_passes", "count", num(plain.rebuild_passes));

  // Traced self time per completed op, by span category.
  std::map<std::string, double> self =
      self_time_ms(tracer, traced.window_start, traced.window_end);
  const std::pair<const char*, const char*> cats[] = {
      {"raid.fs_self_ms", "fs"},           {"pvfs.rpc_self_ms", "rpc"},
      {"pvfs.server_req_self_ms", "server"}, {"pvfs.iod_queue_ms", "iod_queue"},
      {"pvfs.lock_wait_ms", "lock"},       {"net.xfer_self_ms", "net"},
      {"localfs.disk_self_ms", "disk"},
  };
  for (const auto& [name, cat] : cats) rep.add(name, "ms", self[cat] / ops);
  rep.add("obs.trace_overhead_frac", "frac", median(overhead));

  // Host-time layer pass, repeated until the time is spent; medians, at the
  // reference speed like the end-to-end host metrics.
  std::map<std::string, std::vector<double>> passes;
  double ref_before = reference_s();
  for (int pass = 0;; ++pass) {
    const std::map<std::string, double> m = measure_layers(spec, plain, a.seed);
    const double ref_after = reference_s();
    const double scale = kReferenceS / (0.5 * (ref_before + ref_after));
    ref_before = ref_after;
    for (const auto& [k, v] : m) {
      const bool rate = k.find("gbps") != std::string::npos;
      passes[k].push_back(rate ? v / scale : v * scale);
    }
    const double el = std::chrono::duration<double>(Clock::now() - t0).count();
    if (pass >= 2 && el >= a.seconds) break;
    if (pass >= 31) break;
  }
  for (const auto& [k, v] : passes) {
    const char* unit = k.find("gbps") != std::string::npos      ? "GB/s"
                       : k.find("_us") != std::string::npos ? "us"
                                                            : "ns";
    rep.add(k, unit, median(v));
  }
  rep.print_json(plain.arrivals, plain.shed + plain.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const Spec* spec = find_spec(a.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 a.workload.c_str());
    for (const Spec& s : all_specs()) {
      std::fprintf(stderr, " %s", s.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);
  return a.trace == 0 ? run_end_to_end(a, *spec) : run_per_layer(a, *spec);
}
