// RebuildCoordinator: online, write-safe reconstruction. These tests drive
// the coordinator the way the storm and figure benches do — crash a server
// under a live client, restart it (blank or with a surviving disk) and let
// the coordinator rebuild and admit it without quiescing — then verify the
// result byte-for-byte against a reference model.
#include "raid/rebuild.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/rng.hpp"
#include "raid/health.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 32 * 1024;
constexpr std::uint64_t kFile = 1024 * 1024;

RigParams rig_params(Scheme scheme = Scheme::hybrid,
                     std::uint32_t nservers = 5) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = nservers;
  p.rpc.timeout = sim::ms(150);
  p.rpc.max_attempts = 4;
  p.rpc.backoff = sim::ms(5);
  return p;
}

/// Spin until the coordinator has nothing left to do (or `bound` elapses).
sim::Task<void> await_idle(Rig& r, RebuildCoordinator& co,
                           sim::Duration bound) {
  const sim::Time give_up = r.sim.now() + bound;
  while (!co.idle() && r.sim.now() < give_up) {
    co_await r.sim.sleep(sim::ms(5));
  }
}

// A server restarts blank mid-workload; the client keeps writing patterned
// data while the coordinator rebuilds. Every write must land exactly once:
// regions dirtied during the copy are re-copied before admit, so the final
// content matches the reference model byte for byte.
TEST(RebuildCoordinator, ConcurrentWritesStayByteExact) {
  Rig rig(rig_params());
  HealthParams hp;
  hp.interval = sim::ms(50);
  HealthMonitor mon(rig.client(), hp);
  rig.client_fs().enable_failover(&mon);
  RebuildCoordinator coord(rig, mon, RebuildParams{});

  run_sim_void(rig, [](Rig& r, HealthMonitor& m,
                       RebuildCoordinator& co) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    co.track(*f, kFile);
    RefFile ref;
    Rng rng(4242);
    Buffer preload = Buffer::pattern(kFile, rng.next());
    ref.write(0, preload);
    auto wr = co_await fs.write(*f, 0, std::move(preload));
    CO_ASSERT_TRUE(wr.ok());
    auto fl = co_await fs.flush(*f);
    CO_ASSERT_TRUE(fl.ok());

    m.start();
    co.start();
    r.server(1).crash();

    // Write through the outage: once the monitor flags the server these go
    // down the degraded path and land only in the redundancy, so the
    // coordinator must track them as stale for the rebuild.
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t len = 1 + rng.below(3 * kSu);
      const std::uint64_t off = rng.below(kFile - len);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto w = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(w.ok());
      co_await r.sim.sleep(sim::ms(10));
    }
    r.server(1).restart(/*wipe_disk=*/true);

    // Keep writing while the rebuild runs; offsets and lengths are
    // arbitrary (unaligned) so the dirty tracking sees partial units.
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t len = 1 + rng.below(3 * kSu);
      const std::uint64_t off = rng.below(kFile - len);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto w = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(w.ok());
      co_await r.sim.sleep(sim::ms(1));
    }

    co_await await_idle(r, co, sim::sec(60));
    EXPECT_FALSE(r.server(1).fenced());
    EXPECT_GE(co.stats().rebuilds_completed, 1u);
    EXPECT_EQ(co.stats().rebuilds_failed, 0u);
    EXPECT_GT(co.stats().dirty_bytes, 0u);

    auto rd = co_await fs.read(*f, 0, kFile);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, kFile));
    m.stop();
    co.stop();
  }(rig, mon, coord));
}

struct NonWipeOutcome {
  RebuildStats stats;
  bool fenced = true;
  bool byte_exact = false;
};

/// Crash a server whose dirty pages are volatile, degraded-write around it
/// while it is down, then restart it with (wipe=false) or without
/// (wipe=true kept as control) its disk contents.
NonWipeOutcome run_restart(bool wipe, Scheme scheme = Scheme::hybrid,
                           std::uint32_t nservers = 5) {
  RigParams rp = rig_params(scheme, nservers);
  rp.fs.volatile_dirty_pages = true;
  Rig rig(rp);
  HealthParams hp;
  hp.interval = sim::ms(50);
  HealthMonitor mon(rig.client(), hp);
  rig.client_fs().enable_failover(&mon);
  RebuildCoordinator coord(rig, mon, RebuildParams{});

  NonWipeOutcome out;
  run_sim_void(rig, [](Rig& r, HealthMonitor& m, RebuildCoordinator& co,
                       bool wipe, NonWipeOutcome* out) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    co.track(*f, kFile);
    RefFile ref;
    Rng rng(777);
    Buffer preload = Buffer::pattern(kFile, rng.next());
    ref.write(0, preload);
    auto wr = co_await fs.write(*f, 0, std::move(preload));
    CO_ASSERT_TRUE(wr.ok());
    auto fl = co_await fs.flush(*f);
    CO_ASSERT_TRUE(fl.ok());

    // Recent writes whose pages are still dirty when the crash hits: their
    // only on-disk copy is the redundancy, so a non-wipe rejoin must still
    // reconstruct them.
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t off = (i * 5) * kSu;
      Buffer data = Buffer::pattern(kSu, rng.next());
      ref.write(off, data);
      auto w = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(w.ok());
    }

    m.start();
    co.start();
    r.server(1).crash();
    co_await r.sim.sleep(sim::ms(200));

    // Degraded writes during the outage land only in the redundancy.
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t len = 1 + rng.below(2 * kSu);
      const std::uint64_t off = rng.below(kFile - len);
      Buffer data = Buffer::pattern(len, rng.next());
      ref.write(off, data);
      auto w = co_await fs.write(*f, off, std::move(data));
      CO_ASSERT_TRUE(w.ok());
      co_await r.sim.sleep(sim::ms(1));
    }

    r.server(1).restart(wipe);
    co_await await_idle(r, co, sim::sec(60));
    out->stats = co.stats();
    out->fenced = r.server(1).fenced();
    auto rd = co_await fs.read(*f, 0, kFile);
    CO_ASSERT_TRUE(rd.ok());
    out->byte_exact = *rd == ref.expect(0, kFile);
    m.stop();
    co.stop();
  }(rig, mon, coord, wipe, &out));
  return out;
}

// A non-wipe restart takes the delta path: only regions degraded-written
// during the outage or lost with the dirty page cache are reconstructed,
// which moves far less data than the wipe control's full rebuild — and the
// result is still byte-exact.
void expect_delta_beats_full(Scheme scheme, std::uint32_t nservers) {
  const NonWipeOutcome delta = run_restart(/*wipe=*/false, scheme, nservers);
  EXPECT_GE(delta.stats.delta_rebuilds, 1u);
  EXPECT_EQ(delta.stats.full_rebuilds, 0u);
  EXPECT_EQ(delta.stats.rebuilds_failed, 0u);
  EXPECT_GT(delta.stats.lost_dirty_bytes, 0u);
  EXPECT_FALSE(delta.fenced);
  EXPECT_TRUE(delta.byte_exact);

  const NonWipeOutcome full = run_restart(/*wipe=*/true, scheme, nservers);
  EXPECT_GE(full.stats.full_rebuilds, 1u);
  EXPECT_FALSE(full.fenced);
  EXPECT_TRUE(full.byte_exact);
  EXPECT_LT(delta.stats.bytes_rebuilt, full.stats.bytes_rebuilt);
}

TEST(RebuildCoordinator, NonWipeRestartDeltaRebuilds) {
  expect_delta_beats_full(Scheme::hybrid, 5);
}

// The same scenario on rs(4,2), whose crashed server loses coding units at
// dense slots: every lost unit must map back to the group it coded.
TEST(RebuildCoordinator, NonWipeRestartDeltaRebuildsRs) {
  expect_delta_beats_full(Scheme::rs(4, 2), 6);
}

// The crash-loss mapping itself: losing redundancy-file unit q of server s
// taints exactly the group whose coding fragment lived there — found here
// by brute force over the geometry, not through coding_fragment.
TEST(RebuildCoordinator, LostCodingUnitTaintsExactlyItsGroup) {
  const GroupCode gc =
      *group_code(Scheme::rs(4, 2), pvfs::StripeLayout{kSu, 6});
  const std::uint64_t ngroups = 24;
  const std::uint64_t size = ngroups * gc.width();
  for (std::uint32_t s = 0; s < 6; ++s) {
    for (std::uint64_t q = 0;; ++q) {
      std::optional<std::uint64_t> owner;
      for (std::uint64_t g = 0; g < ngroups; ++g) {
        for (std::uint32_t j = 0; j < gc.m(); ++j) {
          if (gc.coding_server(g, j) == s && gc.coding_off(g, j) == q * kSu) {
            ASSERT_FALSE(owner.has_value()) << "slot " << q << " shared";
            owner = g;
          }
        }
      }
      if (!owner) break;
      // A few bytes inside the unit, and the whole unit, taint the group.
      for (const Interval lost : {Interval{q * kSu + 100, q * kSu + 200},
                                  Interval{q * kSu, (q + 1) * kSu}}) {
        IntervalSet stale;
        taint_lost_coding(gc, s, lost, size, stale);
        const auto got = stale.to_vector();
        ASSERT_EQ(got.size(), 1u) << "server " << s << " slot " << q;
        EXPECT_EQ(got[0].start, gc.group_start(*owner));
        EXPECT_EQ(got[0].end, gc.group_end(*owner));
      }
    }
  }
}

struct CapOutcome {
  RebuildStats stats;
  sim::Duration rebuild = 0;  // restart -> first admit
};

/// Wipe-rebuild a quiet rig (no foreground writes after the restart) under
/// `rate_cap` so the copy time is governed by the token bucket alone.
CapOutcome run_capped(double rate_cap) {
  Rig rig(rig_params());
  HealthParams hp;
  hp.interval = sim::ms(50);
  HealthMonitor mon(rig.client(), hp);
  rig.client_fs().enable_failover(&mon);
  RebuildParams rbp;
  rbp.rate_cap = rate_cap;
  RebuildCoordinator coord(rig, mon, rbp);

  CapOutcome out;
  run_sim_void(rig, [](Rig& r, HealthMonitor& m, RebuildCoordinator& co,
                       CapOutcome* out) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    co.track(*f, kFile);
    auto wr = co_await fs.write(*f, 0, Buffer::pattern(kFile, 9));
    CO_ASSERT_TRUE(wr.ok());
    auto fl = co_await fs.flush(*f);
    CO_ASSERT_TRUE(fl.ok());
    m.start();
    co.start();
    r.server(1).crash();
    co_await r.sim.sleep(sim::ms(100));
    const sim::Time restart_at = r.sim.now();
    r.server(1).restart(/*wipe_disk=*/true);
    co_await await_idle(r, co, sim::sec(120));
    out->stats = co.stats();
    out->rebuild = co.stats().first_admit_at - restart_at;
    EXPECT_FALSE(r.server(1).fenced());
    m.stop();
    co.stop();
  }(rig, mon, coord, &out));
  return out;
}

// The token bucket bounds the reconstruction rate from above, so the
// rebuild cannot finish faster than bytes/rate (minus the initial burst) —
// and the whole throttled run is bit-deterministic.
TEST(RebuildCoordinator, RateCapBoundsRebuildDeterministically) {
  const double cap = 8.0 * 1024 * 1024;  // bytes/sec
  const CapOutcome a = run_capped(cap);
  EXPECT_GE(a.stats.rebuilds_completed, 1u);
  EXPECT_EQ(a.stats.rebuilds_failed, 0u);
  EXPECT_GT(a.stats.bytes_rebuilt, 0u);

  // Duration lower bound: everything beyond the burst is paced at `cap`.
  const double paced =
      static_cast<double>(a.stats.bytes_rebuilt) - (1 << 20);
  if (paced > 0) {
    EXPECT_GE(sim::to_seconds(a.rebuild), paced / cap * 0.95);
  }
  // Effective rate never exceeds the cap (burst allowance included).
  const double eff =
      static_cast<double>(a.stats.bytes_rebuilt) / sim::to_seconds(a.rebuild);
  EXPECT_LE(eff, cap * 1.05 + (1 << 20) / sim::to_seconds(a.rebuild));

  // Uncapped control must be faster.
  const CapOutcome un = run_capped(0.0);
  EXPECT_LT(un.rebuild, a.rebuild);

  // Bit-determinism: identical params => identical stats and timings.
  const CapOutcome b = run_capped(cap);
  EXPECT_EQ(a.rebuild, b.rebuild);
  EXPECT_EQ(a.stats.bytes_rebuilt, b.stats.bytes_rebuilt);
  EXPECT_EQ(a.stats.passes, b.stats.passes);
  EXPECT_EQ(a.stats.first_admit_at, b.stats.first_admit_at);
  EXPECT_EQ(a.stats.last_rebuild_time, b.stats.last_rebuild_time);
}

}  // namespace
}  // namespace csar::raid
