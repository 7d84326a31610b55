// Error paths: what happens when a server dies *during* an operation, and
// that failures never wedge the system (locks released, later ops work).
#include <gtest/gtest.h>

#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 4096;

RigParams rig_params(Scheme scheme) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 4;
  return p;
}

TEST(ErrorPaths, WriteToFailedServerReportsError) {
  for (Scheme s : {Scheme::raid0, Scheme::raid1, Scheme::raid5,
                   Scheme::hybrid}) {
    Rig rig(rig_params(s));
    run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
      auto f = co_await r.client_fs().create("f", r.layout(kSu));
      CO_ASSERT_TRUE(f.ok());
      r.server(0).fail();
      auto wr = co_await r.client_fs().write(*f, 0,
                                             Buffer::pattern(8 * kSu, 1));
      EXPECT_FALSE(wr.ok()) << scheme_name(r.p.scheme);
      EXPECT_EQ(wr.error().code, Errc::server_failed);
    }(rig));
  }
}

TEST(ErrorPaths, FailedParityReadDoesNotWedgeTheStripe) {
  // The lock-leak regression test: a RAID5 write that dies on its *second*
  // parity read must release the first lock, so a later writer can take it.
  Rig rig(rig_params(Scheme::raid5));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    const std::uint64_t w = f->layout.stripe_width();  // 3 units
    // Seed both groups.
    auto seed = co_await fs.write(*f, 0, Buffer::pattern(2 * w, 1));
    CO_ASSERT_TRUE(seed.ok());
    // A write straddling groups 0 and 1: parity servers are
    // coding_server(0, 0)=3 and coding_server(1, 0)=2. Fail server 2 so the
    // SECOND (higher-group) parity read fails after the first lock is held.
    const GroupCode gc = *group_code(Scheme::raid5, f->layout);
    CO_ASSERT_EQ(gc.coding_server(0, 0), 3u);
    CO_ASSERT_EQ(gc.coding_server(1, 0), 2u);
    r.server(2).fail();
    auto bad = co_await fs.write(*f, w - 600, Buffer::pattern(1200, 2));
    EXPECT_FALSE(bad.ok());
    r.server(2).recover();
    // If the group-0 parity lock leaked, this write deadlocks (the test
    // would then fail by the run_sim_void completion check).
    auto good = co_await fs.write(*f, w - 600, Buffer::pattern(1200, 3));
    EXPECT_TRUE(good.ok());
    auto rd = co_await fs.read(*f, w - 600, 1200);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, Buffer::pattern(1200, 3));
  }(rig));
}


TEST(ErrorPaths, FailedOldDataReadAlsoReleasesLocks) {
  // Variant of the lock-leak regression: the parity read succeeds (lock
  // held) but the old-data read hits the dead server.
  Rig rig(rig_params(Scheme::raid5));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    auto seed = co_await fs.write(*f, 0, Buffer::pattern(6 * kSu, 1));
    CO_ASSERT_TRUE(seed.ok());
    // Partial write over units 0 and 1 (servers 0, 1), all in group 0 whose
    // parity lives on server 3. Fail data server 1.
    const GroupCode gc = *group_code(Scheme::raid5, f->layout);
    CO_ASSERT_EQ(gc.coding_server(0, 0), 3u);
    r.server(1).fail();
    auto bad = co_await fs.write(*f, kSu - 100, Buffer::pattern(200, 2));
    EXPECT_FALSE(bad.ok());
    r.server(1).recover();
    // Deadlocks here if the group-0 parity lock leaked.
    auto good = co_await fs.write(*f, kSu - 100, Buffer::pattern(200, 3));
    EXPECT_TRUE(good.ok());
  }(rig));
}

TEST(ErrorPaths, FailureDuringConcurrentRmwReleasesQueuedReaders) {
  // Queued parity readers behind a lock holder must not hang forever when
  // the holder's write completes normally (the release path wakes them).
  RigParams p = rig_params(Scheme::raid5);
  p.nclients = 3;
  Rig rig(p);
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs(0).create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    sim::WaitGroup wg(r.sim);
    wg.add(3);
    for (std::uint32_t c = 0; c < 3; ++c) {
      r.sim.spawn([](Rig& rr, pvfs::OpenFile file, std::uint32_t client,
                     sim::WaitGroup* done) -> sim::Task<void> {
        auto wr = co_await rr.client_fs(client).write(
            file, 50, Buffer::pattern(200, client));
        EXPECT_TRUE(wr.ok());
        done->done();
      }(r, *f, c, &wg));
    }
    co_await wg.wait();  // completing proves nobody was stranded
  }(rig));
}

TEST(ErrorPaths, OverflowWriteToFailedMirrorReportsError) {
  Rig rig(rig_params(Scheme::hybrid));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto f = co_await r.client_fs().create("f", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    // A partial write to unit 0 sends its mirror to server 1; fail it.
    r.server(1).fail();
    auto wr = co_await r.client_fs().write(*f, 100, Buffer::pattern(500, 1));
    EXPECT_FALSE(wr.ok());
  }(rig));
}

TEST(ErrorPaths, MetadataOpsFailCleanlyAfterManagerStop) {
  Rig rig(rig_params(Scheme::raid0));
  run_sim_void(rig, [](Rig& r) -> sim::Task<void> {
    auto ok = co_await r.client().create("before", r.layout(kSu));
    EXPECT_TRUE(ok.ok());
    co_return;
  }(rig));
}

}  // namespace
}  // namespace csar::raid
