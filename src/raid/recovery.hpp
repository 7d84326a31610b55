// Recovery: degraded reads and writes while servers are down, and server
// reconstruction after a failure — the fault tolerance the redundancy
// schemes exist for (the paper's stated long-term objective, §1).
//
//  RAID1        a failed server's data is served from (and rebuilt out of)
//               the mirror blocks on its successor's redundancy file.
//  Group codes  RAID4/RAID5 (k = N-1, m = 1) and rs(k,m) share one engine,
//               driven by GroupCode: a lost fragment is decoded from k live
//               fragments of its group (for m = 1, the XOR of the surviving
//               data units and the parity unit).
//  Hybrid       group-code reconstruction yields the *base* stripe content
//               (parity is computed only against the data files, which
//               partial writes never touch); the newest partial-stripe data
//               is then overlaid from the mirrored overflow copies on the
//               failed server's successor. This is exactly why the Hybrid
//               scheme must write partial stripes to overflow instead of
//               updating blocks in place.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.hpp"
#include "common/interval_set.hpp"
#include "common/result.hpp"
#include "pvfs/client.hpp"
#include "raid/policy.hpp"
#include "raid/scheme.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace csar::raid {

/// Knobs for rebuild_server. The defaults reproduce the legacy behaviour:
/// full-file reconstruction at full pipeline speed.
struct RebuildOptions {
  /// Restrict reconstruction to the stripe units / parity groups / overflow
  /// entries whose *global* byte ranges intersect this set (nullptr =
  /// rebuild everything). The RebuildCoordinator passes the stale regions of
  /// a non-wipe rejoiner, or the regions dirtied by concurrent writes on a
  /// re-copy pass.
  const IntervalSet* delta = nullptr;
  /// Pace reconstruction traffic through this bucket (nullptr = full
  /// pipeline speed). Charged with an estimate of the bytes each unit moves
  /// (survivor reads + replacement write), before the unit is issued.
  sim::TokenBucket* throttle = nullptr;
  /// Hybrid: restore every overflow entry even when `delta` filters the
  /// data/parity scan (set when the overflow content itself is suspect,
  /// e.g. lost dirty pages under the overflow file).
  bool restore_all_overflow = false;
  /// Other servers that are *also* unavailable while this one rebuilds
  /// (concurrent outages). Group codes with m >= 2 coding fragments decode
  /// around them — any k live fragments suffice. With m = 1 (and for RAID1)
  /// the list is ignored: there is no second fragment to route around, and
  /// if the monitor's view is stale, trying the reads is the only way to
  /// succeed (they fail loudly if a needed server really is down).
  std::vector<std::uint32_t> also_down;
};

class Recovery {
 public:
  /// Each file's scheme, redundancy generation and overflow-overlay status
  /// resolve through the per-file policy. The policy is not owned and must
  /// outlive this object.
  Recovery(pvfs::Client& client, const RedundancyPolicy* policy)
      : client_(&client), policy_(policy) {}

  /// Read [off, off+len) of `f` while server `failed` is down; data on
  /// surviving servers is read normally, lost pieces are reconstructed.
  /// The one-victim form of the overload below.
  sim::Task<Result<Buffer>> degraded_read(const pvfs::OpenFile& f,
                                          std::uint64_t off,
                                          std::uint64_t len,
                                          std::uint32_t failed);

  /// Multi-failure degraded read: `failed` lists every server currently
  /// down (ascending, at least one). Group codes tolerate up to m
  /// concurrent victims — each lost piece is decoded client-side from the
  /// minimal k-subset of live fragments; RAID0/RAID1 accept one victim.
  sim::Task<Result<Buffer>> degraded_read(const pvfs::OpenFile& f,
                                          std::uint64_t off, std::uint64_t len,
                                          std::vector<std::uint32_t> failed);

  /// Write [off, off+data.size()) of `f` while server `failed` is down —
  /// continued operation in degraded mode (the one-victim form of the
  /// overload below).
  sim::Task<Result<void>> degraded_write(const pvfs::OpenFile& f,
                                         std::uint64_t off, Buffer data,
                                         std::uint32_t failed);

  /// Multi-failure degraded write. Redundancy is maintained so the write
  /// survives: RAID1 updates whichever of the two copies is alive; group
  /// codes record writes to lost units *in the coding* (reconstruct-write),
  /// keep every live coding fragment consistent while at most m servers
  /// are down, and skip groups whose coding servers are all down (the
  /// rebuild recomputes those); Hybrid routes partial-stripe copies to
  /// whichever of the owner/successor pair survives.
  sim::Task<Result<void>> degraded_write(const pvfs::OpenFile& f,
                                         std::uint64_t off, Buffer data,
                                         std::vector<std::uint32_t> failed);

  /// Rebuild everything server `failed` stored for `f` — its data file,
  /// its redundancy file (mirror blocks or parity units), its own overflow
  /// entries (from the mirrors on its successor) and the mirror entries it
  /// held for its predecessor. The server must already be back online
  /// (recover()ed onto a blank disk); `file_size` bounds the scan. `opt`
  /// restricts the scan to a delta and/or paces it (see RebuildOptions).
  sim::Task<Result<void>> rebuild_server(const pvfs::OpenFile& f,
                                         std::uint32_t failed,
                                         std::uint64_t file_size,
                                         RebuildOptions opt = {});

  /// Build scheme `to`'s base redundancy for `f` at generation `red_gen`,
  /// reading only the raw data files (never the old redundancy, never the
  /// overflow overlay — both stay authoritative until the migrator flips
  /// the file). `delta` restricts the pass to the given global byte ranges
  /// (re-copy passes over regions dirtied by concurrent writes) and
  /// `throttle` paces the copy traffic. No locks are taken: until the flip
  /// only the migrator writes generation `red_gen`, and data reads are raw.
  /// RAID1, the parity-rotating schemes and rs(k,m) are buildable targets.
  sim::Task<Result<void>> build_redundancy(const pvfs::OpenFile& f, Scheme to,
                                           std::uint32_t red_gen,
                                           std::uint64_t file_size,
                                           const IntervalSet* delta = nullptr,
                                           sim::TokenBucket* throttle =
                                               nullptr);

 private:
  /// Concurrent failures the file's scheme survives: m for group codes,
  /// one for RAID0/RAID1 (RAID0 still fails on any lost piece).
  std::uint32_t failure_budget(const pvfs::OpenFile& f) const;

  /// Requests to the coding servers of one group: with one coding fragment
  /// the single request goes by rpc, with several by one rpc_all.
  sim::Task<std::vector<pvfs::Response>> coding_rpcs(
      const GroupCode& gc,
      std::vector<std::pair<std::uint32_t, pvfs::Request>> reqs);

  /// Rebuild fragment `target` (data fragments [0,k), coding fragments
  /// [k,k+m)) of group `g` over unit columns [c0, c0+len) by fetching
  /// exactly k live fragments, skipping every server in `down`, and
  /// combining them with rs_reconstruct_coeffs. Errors if fewer than k
  /// fragments are live. No overflow overlay.
  sim::Task<Result<Buffer>> reconstruct(const pvfs::OpenFile& f,
                                        const GroupCode& gc, std::uint64_t g,
                                        std::uint32_t target, std::uint64_t c0,
                                        std::uint64_t len,
                                        const std::vector<std::uint32_t>& down,
                                        bool for_rebuild);

  /// The bytes of one lost piece (within a single stripe unit of a down
  /// server): RAID1's mirror or a group-code reconstruct, then the overflow
  /// overlay of a Hybrid or ex-Hybrid file.
  sim::Task<Result<Buffer>> reconstruct_piece(
      const pvfs::OpenFile& f, const std::vector<std::uint32_t>& down,
      std::uint64_t global_off, std::uint64_t len);

  pvfs::Client* client_;
  const RedundancyPolicy* policy_;
};

}  // namespace csar::raid
