// The benchmark's workloads: an open-loop, multi-tenant load generator over a
// raid::Rig, plus the three named traffic mixes it runs.
//
// Every workload is an open loop of independent tenants. Each tenant draws
// Poisson arrivals from its own seeded stream and may keep at most
// `max_outstanding` requests in flight; an arrival that finds the cap full is
// shed and counts as failed. Latency runs from the moment a request was due
// to its completion, in simulated time. The simulated generator is never
// late: every request is checked to issue at its due time (`late` stays 0).
//
// Requests never overlap an in-flight request on the same bytes of the same
// file (the generator picks the next free aligned slot), so a shadow copy of
// every materialized file predicts exactly what each read must return.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "raid/scheme.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// A run of files sharing one path prefix, and through the policy's
/// prefix rules, one redundancy scheme.
struct FileGroup {
  std::string prefix;
  csar::raid::Scheme scheme;
  std::uint32_t nfiles = 0;
  std::uint64_t file_bytes = 0;
};

/// rebuild_wipe's fault: at `crash_at_s` into the window the victim crashes;
/// `restart_after_s` later it restarts with a blank disk, and the
/// RebuildCoordinator rebuilds it under `rate_cap` bytes/s. Arrivals stop at
/// admit.
struct RebuildPlan {
  double crash_at_s = 0;
  double restart_after_s = 0;
  std::uint32_t victim = 0;
  double rate_cap = 0;
};

struct Spec {
  std::string name;
  std::uint32_t nservers = 0;
  std::uint32_t nclients = 0;
  std::uint32_t ntenants = 0;
  std::uint32_t stripe_unit = 0;
  std::vector<FileGroup> groups;
  double rate_rps = 0;    ///< nominal offered rate, all tenants together
  double window_s = 0;    ///< arrival window (rebuild_wipe: ends at admit)
  std::uint32_t max_outstanding = 0;
  double read_frac = 0;
  std::uint32_t small_bytes = 0;  ///< sub-stripe request size
  /// When nonzero, sub-stripe requests draw their length uniformly from
  /// [small_min_bytes, small_bytes] at byte granularity instead.
  std::uint32_t small_min_bytes = 0;
  double full_frac = 0;   ///< share of writes covering one whole group
  double zipf = 0;        ///< file popularity skew (0 = uniform)
  bool materialize = false;
  std::uint64_t cache_bytes = 0;  ///< simulated page cache per server
  double p99_limit_ms = 0;        ///< latency limit for sim_capacity_rps
  std::optional<RebuildPlan> rebuild;
};

const std::vector<Spec>& all_specs();
const Spec* find_spec(std::string_view name);

/// Stats-struct counters summed over the deployment; a run reports the
/// difference between window end and window start.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t retries = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_subs = 0;
  std::uint64_t lock_acqs = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_prereads = 0;
  std::uint64_t cache_dirty_evictions = 0;
  std::uint64_t disk_ops = 0;
  csar::sim::Duration disk_busy = 0;
  std::uint64_t ec_decode_bytes = 0;
  std::uint64_t degraded_reads = 0;

  Counters operator-(const Counters& o) const;
};

struct RunResult {
  // --- simulated time (deterministic for a seed) ---
  std::uint64_t arrivals = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< admitted requests that returned an error
  std::uint64_t completed = 0;
  std::uint64_t late = 0;    ///< issues whose time differed from the due time
  std::uint64_t slot_misses = 0;  ///< arrivals with no free slot (shed)
  std::vector<csar::sim::Duration> write_lat;
  std::vector<csar::sim::Duration> read_lat;
  std::uint64_t bytes_served = 0;
  csar::sim::Time window_start = 0;
  csar::sim::Time window_end = 0;  ///< last completion of the window
  std::uint64_t fingerprint = 0;
  std::uint64_t verified_reads = 0;
  std::uint64_t verify_mismatches = 0;
  Counters delta;
  bool rebuild_ok = true;
  double rebuild_s = 0;        ///< crash -> admit
  std::uint64_t rebuild_bytes = 0;
  std::uint64_t rebuild_passes = 0;
  /// The recorded mix the host-time layer pass replays: request size ->
  /// count, over the window's admitted requests.
  std::map<std::uint64_t, std::uint64_t> size_mix;
  // --- host time ---
  double setup_s = 0;  ///< rig construction + file creation + prefill
  double run_s = 0;    ///< the measured window
  // --- simulator self-report ---
  std::uint64_t slab_allocs = 0;
  std::uint64_t slab_recycled = 0;

  double sim_elapsed_s() const {
    return csar::sim::to_seconds(window_end - window_start);
  }
};

struct RunOptions {
  double rate_scale = 1.0;  ///< multiple of the nominal rate
  /// Attached for the measured window only (prefill and read-back stay
  /// untraced); not owned.
  csar::obs::Tracer* tracer = nullptr;
  /// Read every materialized file back against its shadow after the window.
  bool final_verify = true;
};

RunResult run_workload(const Spec& spec, std::uint64_t seed,
                       const RunOptions& opt);

}  // namespace perfbench
