// Op::batch wire protocol: in-order execution with per-sub responses,
// server-side merging of adjacent reads, atomic ascending-key lock
// acquisition, owner-checked explicit unlock, rpc_all's redundancy-only
// coalescing, and bit-determinism of the batched RMW path.
#include <gtest/gtest.h>

#include "pvfs/io_server.hpp"
#include "raid/rig.hpp"
#include "test_util.hpp"

namespace csar::pvfs {
namespace {

using csar::test::run_sim;
using csar::test::run_sim_void;
using raid::Rig;
using raid::RigParams;
using raid::Scheme;

constexpr std::uint32_t kSu = 4096;

RigParams rig_params(Scheme scheme = Scheme::hybrid,
                     std::uint32_t nclients = 1) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 3;
  p.nclients = nclients;
  return p;
}

/// Direct-RPC fixture: drive a single server through the client's batches.
struct Fx {
  Rig rig;
  explicit Fx(RigParams p = rig_params()) : rig(p) {}

  Request make(Op op, std::uint64_t handle) {
    Request r;
    r.op = op;
    r.handle = handle;
    r.su = kSu;
    return r;
  }
};

TEST(Batch, ExecutesSubsInOrderWithPerSubResponses) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    std::vector<Request> subs;
    Request w1 = f.make(Op::write_data, 7);
    w1.off = 0;
    w1.payload = Buffer::pattern(600, 1);
    subs.push_back(std::move(w1));
    Request w2 = f.make(Op::write_data, 7);
    w2.off = 100;
    w2.payload = Buffer::pattern(300, 2);
    subs.push_back(std::move(w2));
    Request rd = f.make(Op::read_data, 7);
    rd.off = 0;
    rd.len = 600;
    subs.push_back(std::move(rd));

    auto rs = co_await f.rig.client().rpc_batch(0, std::move(subs));
    CO_ASSERT_EQ(rs.size(), 3u);
    for (const auto& r : rs) {
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.server, 0);
    }
    // In-order execution: the second write overlays the first, and the
    // trailing read observes both.
    Buffer expect = Buffer::pattern(600, 1);
    expect.write_at(100, Buffer::pattern(300, 2));
    EXPECT_EQ(rs[2].data, expect);
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 1u);
    EXPECT_EQ(f.rig.server(0).batch_stats().subs, 3u);
  }(fx));
}

TEST(Batch, SingleSubAndDisabledBatchingDegradeToPlainRpc) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    std::vector<Request> one;
    Request w = f.make(Op::write_data, 7);
    w.off = 0;
    w.payload = Buffer::pattern(kSu, 1);
    one.push_back(std::move(w));
    auto rs = co_await f.rig.client().rpc_batch(0, std::move(one));
    CO_ASSERT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 0u);

    // The ablation switch must reproduce the legacy wire traffic exactly:
    // no envelopes, one message per request, same results.
    f.rig.client().set_rpc_batching(false);
    std::vector<Request> two;
    Request a = f.make(Op::read_data, 7);
    a.off = 0;
    a.len = kSu;
    two.push_back(std::move(a));
    Request b = f.make(Op::read_data, 7);
    b.off = 0;
    b.len = 100;
    two.push_back(std::move(b));
    auto rs2 = co_await f.rig.client().rpc_batch(0, std::move(two));
    CO_ASSERT_EQ(rs2.size(), 2u);
    EXPECT_TRUE(rs2[0].ok);
    EXPECT_TRUE(rs2[1].ok);
    EXPECT_EQ(rs2[0].data, Buffer::pattern(kSu, 1));
    EXPECT_EQ(rs2[1].data, Buffer::pattern(100, 1));
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 0u);
  }(fx));
}

TEST(Batch, AdjacentReadsMergeIntoOneCacheAccess) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request w = f.make(Op::write_data, 7);
    w.off = 0;
    w.payload = Buffer::pattern(2 * kSu, 3);
    auto wr = co_await f.rig.client().rpc(0, std::move(w));
    CO_ASSERT_TRUE(wr.ok);
    Request fl = f.make(Op::flush, 7);
    (void)co_await f.rig.client().rpc(0, std::move(fl));
    f.rig.drop_all_caches();

    // Two adjacent raw reads in one batch: served by a single covering
    // page-cache read — one contiguous miss run on the disk — then sliced
    // back into per-sub responses.
    const std::uint64_t runs0 =
        f.rig.server(0).fs().cache().stats().miss_runs;
    std::vector<Request> subs;
    for (int i = 0; i < 2; ++i) {
      Request rd = f.make(Op::read_data_raw, 7);
      rd.off = static_cast<std::uint64_t>(i) * kSu;
      rd.len = kSu;
      subs.push_back(std::move(rd));
    }
    auto rs = co_await f.rig.client().rpc_batch(0, std::move(subs));
    CO_ASSERT_EQ(rs.size(), 2u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_TRUE(rs[1].ok);
    EXPECT_EQ(rs[0].data, Buffer::pattern(2 * kSu, 3).slice(0, kSu));
    EXPECT_EQ(rs[1].data, Buffer::pattern(2 * kSu, 3).slice(kSu, kSu));
    EXPECT_EQ(f.rig.server(0).batch_stats().merged_reads, 1u);
    EXPECT_EQ(f.rig.server(0).fs().cache().stats().miss_runs, runs0 + 1);

    // Non-adjacent order (descending offsets) must not merge.
    std::vector<Request> rev;
    for (int i = 1; i >= 0; --i) {
      Request rd = f.make(Op::read_data_raw, 7);
      rd.off = static_cast<std::uint64_t>(i) * kSu;
      rd.len = kSu;
      rev.push_back(std::move(rd));
    }
    auto rs2 = co_await f.rig.client().rpc_batch(0, std::move(rev));
    CO_ASSERT_EQ(rs2.size(), 2u);
    EXPECT_EQ(f.rig.server(0).batch_stats().merged_reads, 1u);
  }(fx));
}

TEST(Batch, ContendingBatchesAcquireLocksInAscendingKeyOrder) {
  Fx fx(rig_params(Scheme::hybrid, /*nclients=*/2));
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    // Two clients batch locking reads of the same two parity blocks in
    // OPPOSITE sub order. The server sorts each batch's acquisitions by
    // ascending key before taking any of them, so the inversion cannot
    // deadlock — without that rule this test would hang until the lease.
    auto locker = [](Fx* f, std::uint32_t c,
                     bool forward) -> sim::Task<void> {
      std::vector<Request> subs;
      for (int i = 0; i < 2; ++i) {
        Request rr = f->make(Op::read_red, 11);
        rr.off = static_cast<std::uint64_t>(forward ? i : 1 - i) * kSu;
        rr.len = kSu;
        rr.lock = true;
        subs.push_back(std::move(rr));
      }
      auto rs = co_await f->rig.client(c).rpc_batch(0, std::move(subs));
      for (const auto& r : rs) EXPECT_TRUE(r.ok);
      for (int i = 0; i < 2; ++i) {
        Request wr = f->make(Op::write_red, 11);
        wr.off = static_cast<std::uint64_t>(i) * kSu;
        wr.payload = Buffer::pattern(kSu, 5);
        wr.unlock = true;
        auto resp = co_await f->rig.client(c).rpc(0, std::move(wr));
        EXPECT_TRUE(resp.ok);
      }
    };
    auto h1 = f.rig.sim.spawn(locker(&f, 0, true));
    auto h2 = f.rig.sim.spawn(locker(&f, 1, false));
    co_await h1.join();
    co_await h2.join();
    EXPECT_EQ(f.rig.server(0).lock_stats().acquisitions, 4u);
    EXPECT_GE(f.rig.server(0).lock_stats().waits, 1u);
    EXPECT_EQ(f.rig.server(0).lock_stats().lease_expirations, 0u);
  }(fx));
}

TEST(Batch, UnlockRedHonoursOnlyTheOwner) {
  Fx fx(rig_params(Scheme::hybrid, /*nclients=*/2));
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request lk = f.make(Op::read_red, 9);
    lk.off = 0;
    lk.len = kSu;
    lk.lock = true;
    auto held = co_await f.rig.client(0).rpc(0, std::move(lk));
    CO_ASSERT_TRUE(held.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().acquisitions, 1u);

    // A stranger's unlock is a no-op: only the recorded owner may release.
    Request bogus = f.make(Op::unlock_red, 9);
    bogus.off = 0;
    auto br = co_await f.rig.client(1).rpc(0, std::move(bogus));
    EXPECT_TRUE(br.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().explicit_releases, 0u);

    // The owner's unlock releases immediately — no parity write, no lease
    // wait — and the next locking read proceeds without queueing.
    const sim::Time t0 = f.rig.sim.now();
    Request mine = f.make(Op::unlock_red, 9);
    mine.off = 0;
    auto mr = co_await f.rig.client(0).rpc(0, std::move(mine));
    EXPECT_TRUE(mr.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().explicit_releases, 1u);

    Request again = f.make(Op::read_red, 9);
    again.off = 0;
    again.len = kSu;
    again.lock = true;
    auto ar = co_await f.rig.client(1).rpc(0, std::move(again));
    EXPECT_TRUE(ar.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().acquisitions, 2u);
    EXPECT_EQ(f.rig.server(0).lock_stats().waits, 0u);
    EXPECT_LT(f.rig.sim.now() - t0, sim::ms(100));

    Request done = f.make(Op::unlock_red, 9);
    done.off = 0;
    (void)co_await f.rig.client(1).rpc(0, std::move(done));
    EXPECT_EQ(f.rig.server(0).lock_stats().explicit_releases, 2u);
  }(fx));
}

TEST(Batch, RpcAllCoalescesOnlyRedundancyClassRequests) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request seed = f.make(Op::write_data, 7);
    seed.off = 0;
    seed.payload = Buffer::pattern(2 * kSu, 4);
    (void)co_await f.rig.client().rpc(0, std::move(seed));
    for (std::uint32_t s = 1; s <= 2; ++s) {
      Request w = f.make(Op::write_red, 7);
      w.off = 0;
      w.payload = Buffer::pattern(kSu, 4 + s);
      (void)co_await f.rig.client().rpc(s, std::move(w));
    }
    auto read_red = [&](std::uint64_t off) {
      Request r = f.make(Op::read_red, 7);
      r.off = off;
      r.len = kSu;
      return r;
    };
    auto read_data = [&](std::uint64_t off) {
      Request r = f.make(Op::read_data, 7);
      r.off = off;
      r.len = kSu;
      return r;
    };

    // Two redundancy-class reads + two bulk reads to server 0, and one
    // redundancy read each to servers 1 and 2: only server 0's redundancy
    // pair may share an envelope — bulk responses pipeline as their own
    // messages, and a lone redundancy request per server is a plain RPC.
    const std::uint64_t sent0 = f.rig.client().rpc_stats().sent;
    std::vector<std::pair<std::uint32_t, Request>> reqs;
    reqs.emplace_back(0, read_red(0));
    reqs.emplace_back(2, read_red(0));
    reqs.emplace_back(0, read_data(0));
    reqs.emplace_back(0, read_red(kSu));
    reqs.emplace_back(1, read_red(0));
    reqs.emplace_back(0, read_data(kSu));
    auto rs = co_await f.rig.client().rpc_all(std::move(reqs));
    CO_ASSERT_EQ(rs.size(), 6u);
    for (const auto& r : rs) EXPECT_TRUE(r.ok);
    // Responses come back in request order regardless of grouping.
    EXPECT_EQ(rs[1].server, 2);
    EXPECT_EQ(rs[1].data, Buffer::pattern(kSu, 6));
    EXPECT_EQ(rs[2].data, Buffer::pattern(2 * kSu, 4).slice(0, kSu));
    EXPECT_EQ(rs[4].server, 1);
    EXPECT_EQ(rs[4].data, Buffer::pattern(kSu, 5));
    EXPECT_EQ(rs[5].data, Buffer::pattern(2 * kSu, 4).slice(kSu, kSu));
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 1u);
    EXPECT_EQ(f.rig.server(0).batch_stats().subs, 2u);
    EXPECT_EQ(f.rig.server(1).batch_stats().batches, 0u);
    EXPECT_EQ(f.rig.server(2).batch_stats().batches, 0u);
    // One envelope, two bulk reads, two lone redundancy reads.
    EXPECT_EQ(f.rig.client().rpc_stats().sent - sent0, 5u);
  }(fx));
}

TEST(Batch, RpcAllWithBatchingOffSendsNoEnvelopes) {
  RigParams p = rig_params();
  p.rpc_batching = false;
  Fx fx(p);
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    std::vector<std::pair<std::uint32_t, Request>> reqs;
    for (int i = 0; i < 2; ++i) {
      Request rr = f.make(Op::read_red, 7);
      rr.off = static_cast<std::uint64_t>(i) * kSu;
      rr.len = kSu;
      reqs.emplace_back(0, std::move(rr));
    }
    auto rs = co_await f.rig.client().rpc_all(std::move(reqs));
    CO_ASSERT_EQ(rs.size(), 2u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_TRUE(rs[1].ok);
    EXPECT_EQ(f.rig.server(0).batch_stats().batches, 0u);
  }(fx));
}

/// A RAID5 RMW whose head and tail partial groups (0 and 3) share one
/// parity server: the batched lock+read phase really produces envelopes.
sim::Time straddle_end(std::uint64_t* batches) {
  RigParams p = rig_params(Scheme::raid5);
  Rig rig(p);
  const sim::Time end =
      run_sim(rig, [](Rig& r) -> sim::Task<sim::Time> {
        auto f = co_await r.client_fs().create("f", r.layout(kSu));
        if (!f.ok()) co_return sim::Time{0};
        const std::uint64_t width = f->layout.stripe_width();
        for (int i = 0; i < 8; ++i) {
          auto wr = co_await r.client_fs().write(
              *f, width - 2 * 1024,
              Buffer::pattern(2 * width + 4 * 1024,
                              static_cast<std::uint8_t>(i + 1)));
          if (!wr.ok()) co_return sim::Time{0};
        }
        const bool consistent = co_await csar::test::parity_consistent(
            r, *f, 4 * f->layout.stripe_width());
        EXPECT_TRUE(consistent);
        co_return r.sim.now();
      }(rig));
  for (std::uint32_t s = 0; s < rig.p.nservers; ++s) {
    *batches += rig.server(s).batch_stats().batches;
  }
  return end;
}

TEST(Batch, StraddlingRmwIsBitDeterministic) {
  std::uint64_t batches1 = 0;
  std::uint64_t batches2 = 0;
  const sim::Time end1 = straddle_end(&batches1);
  const sim::Time end2 = straddle_end(&batches2);
  EXPECT_GT(end1, sim::Time{0});
  EXPECT_GT(batches1, 0u);  // the batched lock+read phase actually ran
  EXPECT_EQ(end1, end2);
  EXPECT_EQ(batches1, batches2);
}

}  // namespace
}  // namespace csar::pvfs
