// The distributed parity-lock protocol (§5.1): serialization of concurrent
// read-modify-writes on one stripe, parity consistency under concurrency,
// deadlock freedom of the ordered acquisition, and the NO-LOCK ablation.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "raid/rig.hpp"
#include "sim/sync.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::parity_consistent;
using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 4096;

TEST(ParityLock, ConcurrentDisjointWritersKeepParityConsistent) {
  // The paper's Figure 3 setup: N-1 clients each write a distinct block of
  // the same stripe concurrently. With locking, the final parity must be
  // the XOR of all blocks.
  RigParams p;
  p.scheme = Scheme::raid5;
  p.nservers = 6;
  p.nclients = 5;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    sim::WaitGroup wg(r.sim);
    wg.add(5);
    for (std::uint32_t c = 0; c < 5; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     sim::WaitGroup* done) -> sim::Task<void> {
        Buffer data = Buffer::pattern(kSu, 100 + client);
        auto wr = co_await rr.client_fs(client).write(
            file, static_cast<std::uint64_t>(client) * kSu, std::move(data));
        EXPECT_TRUE(wr.ok());
        done->done();
      }(r, *f, c, &wg));
    }
    co_await wg.wait();
    EXPECT_TRUE(co_await parity_consistent(r, *f, 5 * kSu));
    // Every writer took the same stripe's parity lock exactly once.
    std::uint64_t acq = 0;
    std::uint64_t waits = 0;
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      acq += r.server(s).lock_stats().acquisitions;
      waits += r.server(s).lock_stats().waits;
    }
    EXPECT_EQ(acq, 5u);
    EXPECT_GT(waits, 0u);  // they really did contend
  }(rig));
}

TEST(ParityLock, NoLockLeavesParityInconsistentUnderContention) {
  // The R5 NO LOCK ablation transfers the same bytes but can corrupt the
  // parity when RMWs interleave — exactly the paper's justification for the
  // locking protocol.
  RigParams p;
  p.scheme = Scheme::raid5_nolock;
  p.nservers = 6;
  p.nclients = 5;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    sim::WaitGroup wg(r.sim);
    wg.add(5);
    for (std::uint32_t c = 0; c < 5; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     sim::WaitGroup* done) -> sim::Task<void> {
        Buffer data = Buffer::pattern(kSu, 200 + client);
        auto wr = co_await rr.client_fs(client).write(
            file, static_cast<std::uint64_t>(client) * kSu, std::move(data));
        EXPECT_TRUE(wr.ok());
        done->done();
      }(r, *f, c, &wg));
    }
    co_await wg.wait();
    // All five clients read the parity (zeros) before anyone wrote it, so
    // each wrote only its own delta: the last write wins and the parity is
    // NOT the XOR of all five blocks. (The data blocks themselves are fine.)
    const bool consistent =
        co_await parity_consistent(r, *f, 5 * kSu, /*report=*/false);
    EXPECT_FALSE(consistent)
        << "NO-LOCK should corrupt parity under this interleaving";
  }(rig));
}

TEST(ParityLock, QueuedReadersWakeFifo) {
  RigParams p;
  p.scheme = Scheme::raid5;
  p.nservers = 4;
  p.nclients = 3;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    // Three clients RMW the same block region: fully serialized.
    sim::WaitGroup wg(r.sim);
    wg.add(3);
    std::vector<sim::Time> finish;
    for (std::uint32_t c = 0; c < 3; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     sim::WaitGroup* done,
                     std::vector<sim::Time>* out) -> sim::Task<void> {
        auto wr = co_await rr.client_fs(client).write(
            file, 100, Buffer::pattern(500, client));
        EXPECT_TRUE(wr.ok());
        out->push_back(rr.sim.now());
        done->done();
      }(r, *f, c, &wg, &finish));
    }
    co_await wg.wait();
    CO_ASSERT_EQ(finish.size(), 3u);
    // Completion times are strictly increasing: serialized, FIFO.
    EXPECT_LT(finish[0], finish[1]);
    EXPECT_LT(finish[1], finish[2]);
    std::uint64_t waits = 0;
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      waits += r.server(s).lock_stats().waits;
    }
    EXPECT_EQ(waits, 2u);  // second and third queued
  }(rig));
}

TEST(ParityLock, TwoPartialStripesAcquireInGroupOrder) {
  // A write spanning two groups without a full stripe takes two parity
  // locks; ordered acquisition avoids deadlock even with many concurrent
  // writers doing the same.
  RigParams p;
  p.scheme = Scheme::raid5;
  p.nservers = 4;
  p.nclients = 8;
  // This test pins the exact live-process count below; lease watchdogs are
  // transient extra processes, so switch them off (they have their own
  // coverage in the fault tests).
  p.parity_lock_lease = 0;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();  // 3 units
    sim::WaitGroup wg(r.sim);
    wg.add(8);
    for (std::uint32_t c = 0; c < 8; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     std::uint64_t width,
                     sim::WaitGroup* done) -> sim::Task<void> {
        // Straddle the group boundary: partial tail of g0 + partial head of
        // g1, no full group. All clients hit the same two parity locks.
        auto wr = co_await rr.client_fs(client).write(
            file, width - 600, Buffer::pattern(1200, client));
        EXPECT_TRUE(wr.ok());
        done->done();
      }(r, *f, c, w, &wg));
    }
    co_await wg.wait();  // completing at all proves deadlock freedom
    // Only daemon dispatchers (servers + manager) and this checker remain.
    EXPECT_EQ(r.sim.live_processes(), r.p.nservers + 2u);
  }(rig));
}

TEST(ParityLock, LeaseReclaimsAbandonedLock) {
  // An RMW client that dies (or times out) between read_red and write_red
  // leaves the parity lock held with no owner. Without leases every later
  // writer of the group queues forever; with leases the lock is handed to
  // the first waiter once the lease runs out.
  RigParams p;
  p.scheme = Scheme::raid5;
  p.nservers = 4;
  p.parity_lock_lease = sim::ms(400);
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    auto wr = co_await r.client_fs().write(*f, 0, Buffer::pattern(2 * w, 7));
    CO_ASSERT_TRUE(wr.ok());
    // Take group 0's parity lock by hand and abandon it.
    const GroupCode gc = *group_code(Scheme::raid5, f->layout);
    const std::uint32_t ps = gc.coding_server(0, 0);
    pvfs::Request lr;
    lr.op = pvfs::Op::read_red;
    lr.handle = f->handle;
    lr.off = gc.coding_off(0, 0);
    lr.len = kSu;
    lr.su = f->layout.stripe_unit;
    lr.lock = true;
    auto resp = co_await r.client().rpc(ps, std::move(lr));
    CO_ASSERT_TRUE(resp.ok);
    const sim::Time stuck_at = r.sim.now();
    // A partial write into group 0 needs the same parity lock; it queues
    // behind the orphan and completes only after the lease expires.
    auto wr2 = co_await r.client_fs().write(*f, 100, Buffer::pattern(500, 9));
    CO_ASSERT_TRUE(wr2.ok());
    EXPECT_GE(r.sim.now(), stuck_at + sim::ms(400));
    EXPECT_EQ(r.server(ps).lock_stats().lease_expirations, 1u);
  }(rig));
}

TEST(ParityLock, LockStatsQuietForAlignedWrites) {
  RigParams p;
  p.scheme = Scheme::raid5;
  p.nservers = 5;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    auto wr = co_await r.client_fs().write(*f, 0, Buffer::pattern(8 * w, 1));
    CO_ASSERT_TRUE(wr.ok());
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      EXPECT_EQ(r.server(s).lock_stats().acquisitions, 0u);
    }
  }(rig));
}

TEST(ParityLock, HybridNeedsNoLocksForPartialWrites) {
  // The reason Hybrid survives high client counts in Figure 6(a): its
  // partial-stripe path writes overflow copies without parity RMW.
  RigParams p;
  p.scheme = Scheme::hybrid;
  p.nservers = 6;
  p.nclients = 5;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    sim::WaitGroup wg(r.sim);
    wg.add(5);
    for (std::uint32_t c = 0; c < 5; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     sim::WaitGroup* done) -> sim::Task<void> {
        auto wr = co_await rr.client_fs(client).write(
            file, static_cast<std::uint64_t>(client) * kSu,
            Buffer::pattern(kSu, client));
        EXPECT_TRUE(wr.ok());
        done->done();
      }(r, *f, c, &wg));
    }
    co_await wg.wait();
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      EXPECT_EQ(r.server(s).lock_stats().acquisitions, 0u);
    }
  }(rig));
}

TEST(ParityLock, ConcurrentMixedTrafficStaysConsistent) {
  // Stress: several clients writing disjoint regions with mixed sizes; the
  // parity invariant must hold at quiesce for RAID5 with locking.
  RigParams p;
  p.scheme = Scheme::raid5;
  p.nservers = 6;
  p.nclients = 4;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();
    sim::WaitGroup wg(r.sim);
    wg.add(4);
    // Client c owns the disjoint region [c*4w, (c+1)*4w).
    for (std::uint32_t c = 0; c < 4; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     std::uint64_t width,
                     sim::WaitGroup* done) -> sim::Task<void> {
        Rng rng(500 + client);
        const std::uint64_t base = client * 4 * width;
        for (int i = 0; i < 10; ++i) {
          const std::uint64_t off = base + rng.below(3 * width);
          const std::uint64_t len =
              1 + rng.below(width);  // stays inside the region
          auto wr = co_await rr.client_fs(client).write(
              file, off, Buffer::pattern(len, rng.next()));
          EXPECT_TRUE(wr.ok());
        }
        done->done();
      }(r, *f, c, w, &wg));
    }
    co_await wg.wait();
    EXPECT_TRUE(co_await parity_consistent(r, *f, 16 * w));
  }(rig));
}

}  // namespace
}  // namespace csar::raid
