// White-box I/O server protocol tests: request routing, overflow table
// semantics, invalidation edges, lock keying, failure responses, and the
// per-connection stream classes.
#include "pvfs/io_server.hpp"

#include <gtest/gtest.h>

#include "raid/diagnostics.hpp"
#include "raid/rig.hpp"
#include "sim/slab.hpp"
#include "test_util.hpp"

namespace csar::pvfs {
namespace {

using csar::test::run_sim_void;
using raid::Rig;
using raid::RigParams;
using raid::Scheme;

constexpr std::uint32_t kSu = 4096;

RigParams rig_params(Scheme scheme = Scheme::hybrid) {
  RigParams p;
  p.scheme = scheme;
  p.nservers = 3;
  return p;
}

/// Direct-RPC fixture: drive a single server through the client's rpc().
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

TEST(IoServer, WriteThenReadData) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request w = f.make(Op::write_data, 7);
    w.off = 100;
    w.payload = Buffer::pattern(500, 1);
    auto wr = co_await f.rig.client().rpc(0, std::move(w));
    EXPECT_TRUE(wr.ok);

    Request r = f.make(Op::read_data, 7);
    r.off = 100;
    r.len = 500;
    auto rd = co_await f.rig.client().rpc(0, std::move(r));
    EXPECT_TRUE(rd.ok);
    EXPECT_EQ(rd.data, Buffer::pattern(500, 1));
  }(fx));
}

TEST(IoServer, OverflowEntryOverlaysDataFile) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request base = f.make(Op::write_data, 7);
    base.off = 0;
    base.payload = Buffer::pattern(2 * kSu, 1);
    (void)co_await f.rig.client().rpc(0, std::move(base));

    Request ov = f.make(Op::write_overflow, 7);
    ov.off = 100;
    ov.payload = Buffer::pattern(300, 2);
    ov.owner = 0;
    (void)co_await f.rig.client().rpc(0, std::move(ov));

    Request r = f.make(Op::read_data, 7);
    r.off = 0;
    r.len = kSu;
    auto rd = co_await f.rig.client().rpc(0, std::move(r));
    Buffer expect = Buffer::pattern(kSu, 1);
    expect.write_at(100, Buffer::pattern(300, 2));
    EXPECT_EQ(rd.data, expect);

    // Raw reads bypass the overlay: the base content is unchanged.
    Request raw = f.make(Op::read_data_raw, 7);
    raw.off = 0;
    raw.len = kSu;
    auto rd2 = co_await f.rig.client().rpc(0, std::move(raw));
    EXPECT_EQ(rd2.data, Buffer::pattern(kSu, 1));
  }(fx));
}

TEST(IoServer, InvalidationDropsOwnAndMirrorEntries) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    // Own entry on server 0, mirror entry (owner 2) also on server 0.
    Request own = f.make(Op::write_overflow, 7);
    own.off = 0;
    own.payload = Buffer::pattern(kSu, 1);
    own.owner = 0;
    (void)co_await f.rig.client().rpc(0, std::move(own));
    Request mirror = f.make(Op::write_overflow, 7);
    mirror.off = 5 * kSu;
    mirror.payload = Buffer::pattern(kSu, 2);
    mirror.owner = 2;
    mirror.mirror = true;
    (void)co_await f.rig.client().rpc(0, std::move(mirror));

    // A data write carrying both invalidation ranges.
    Request w = f.make(Op::write_data, 7);
    w.off = 0;
    w.payload = Buffer::pattern(kSu, 3);
    w.inval_own = {0, kSu};
    w.inval_mirror = {5 * kSu, 6 * kSu};
    (void)co_await f.rig.client().rpc(0, std::move(w));

    // The own entry no longer overlays...
    Request r = f.make(Op::read_data, 7);
    r.off = 0;
    r.len = kSu;
    auto rd = co_await f.rig.client().rpc(0, std::move(r));
    EXPECT_EQ(rd.data, Buffer::pattern(kSu, 3));
    // ...and the mirror table is empty for the invalidated range.
    Request rm = f.make(Op::read_mirror, 7);
    rm.off = 0;
    rm.len = 100 * kSu;
    rm.owner = 2;
    auto mirrors = co_await f.rig.client().rpc(0, std::move(rm));
    EXPECT_TRUE(mirrors.pieces.empty());
  }(fx));
}

TEST(IoServer, OverflowAllocationRoundsToStripeUnits) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      Request ov = f.make(Op::write_overflow, 9);
      ov.off = static_cast<std::uint64_t>(i) * kSu;
      ov.payload = Buffer::pattern(10, i);  // tiny
      ov.owner = 0;
      (void)co_await f.rig.client().rpc(0, std::move(ov));
    }
    Request q = f.make(Op::storage_query, 9);
    auto resp = co_await f.rig.client().rpc(0, std::move(q));
    EXPECT_EQ(resp.storage.overflow_bytes, 3u * kSu);
  }(fx));
}

TEST(IoServer, FailedServerRejectsEveryOp) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    f.rig.server(1).fail();
    for (Op op : {Op::read_data, Op::write_data, Op::read_red,
                  Op::write_red, Op::write_overflow, Op::flush,
                  Op::storage_query}) {
      Request r = f.make(op, 7);
      r.len = kSu;
      r.payload = Buffer::pattern(16, 0);
      auto resp = co_await f.rig.client().rpc(1, std::move(r));
      EXPECT_FALSE(resp.ok) << op_name(op);
      EXPECT_EQ(resp.err, Errc::server_failed) << op_name(op);
    }
  }(fx));
}

TEST(IoServer, LocksAreKeyedPerHandleAndBlock) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    // Lock (handle 7, block 0).
    Request r1 = f.make(Op::read_red, 7);
    r1.off = 0;
    r1.len = kSu;
    r1.lock = true;
    (void)co_await f.rig.client().rpc(0, std::move(r1));
    // A different block and a different handle proceed immediately...
    Request r2 = f.make(Op::read_red, 7);
    r2.off = kSu;  // block 1
    r2.len = kSu;
    r2.lock = true;
    auto resp2 = co_await f.rig.client().rpc(0, std::move(r2));
    EXPECT_TRUE(resp2.ok);
    Request r3 = f.make(Op::read_red, 8);
    r3.off = 0;
    r3.len = kSu;
    r3.lock = true;
    auto resp3 = co_await f.rig.client().rpc(0, std::move(r3));
    EXPECT_TRUE(resp3.ok);
    EXPECT_EQ(f.rig.server(0).lock_stats().acquisitions, 3u);
    EXPECT_EQ(f.rig.server(0).lock_stats().waits, 0u);
    // Release all three so teardown is clean.
    for (auto [h, off] : {std::pair<std::uint64_t, std::uint64_t>{7, 0},
                          {7, kSu},
                          {8, 0}}) {
      Request w = f.make(Op::write_red, h);
      w.off = off;
      w.payload = Buffer::pattern(kSu, 0);
      w.unlock = true;
      (void)co_await f.rig.client().rpc(0, std::move(w));
    }
  }(fx));
}

TEST(IoServer, TotalStorageAggregatesHandles) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    for (std::uint64_t h : {1ull, 2ull}) {
      Request w = f.make(Op::write_data, h);
      w.off = 0;
      w.payload = Buffer::pattern(kSu, h);
      (void)co_await f.rig.client().rpc(0, std::move(w));
    }
    const auto total = f.rig.server(0).total_storage();
    EXPECT_EQ(total.data_bytes, 2u * kSu);
  }(fx));
}

TEST(IoServer, DiagnosticsTableRenders) {
  Fx fx;
  run_sim_void(fx.rig, [](Fx& f) -> sim::Task<void> {
    Request w = f.make(Op::write_data, 1);
    w.payload = Buffer::pattern(kSu, 1);
    (void)co_await f.rig.client().rpc(0, std::move(w));
    co_return;
  }(fx));
  const std::string table = raid::rig_stats_table(fx.rig).to_string();
  EXPECT_NE(table.find("s0"), std::string::npos);
  EXPECT_NE(table.find("cache hit%"), std::string::npos);
}

TEST(IoServer, FramesPerRpcRoundTrip) {
  // Pins the coroutine frames (slab allocations, counted even with the slab
  // disabled) and events of one Client::rpc round trip, so a pass-through
  // wrapper added anywhere on the per-message path shows up here.
  //
  // ping, 7 frames:
  //   client  1 rpc_attempts (both rpc() overloads forward, no frame)
  //           2 Fabric::transfer, request (NIC tx/rx awaits are frame-free)
  //   server  3 spawn's root wrapper  4 handle  (iod dispatch: no frame)
  //           5 exec_inline (ping is answered inline)
  //           6 reply  7 Fabric::transfer, reply
  // write_data (phantom, one page), 9 frames: 1-4 and 6-7 as above, plus
  //           do_write_data (exec_one returns it directly; pace: no frame),
  //           LocalFs::write_stream, PageCache::write (memory bus: no frame).
  // Events: 3 per fabric transfer (tx, wire, rx), the dispatcher's wake-up,
  // the iod charge, the reply delivery; write_data adds its stream pacing
  // and the memory-bus copy.
  Fx fx;
  struct Counts {
    std::uint64_t frames = 0;
    std::uint64_t events = 0;
  };
  Counts ping[2], write[2];
  run_sim_void(fx.rig, [](Fx& f, Counts* p, Counts* w) -> sim::Task<void> {
    auto& sim = f.rig.sim;
    // Two rounds: the second runs with the server's stream, handle and
    // page-table state already in place and must cost the same.
    for (int i = 0; i < 2; ++i) {
      std::uint64_t a0 = sim::slab::stats().allocs;
      std::uint64_t e0 = sim.events_executed();
      auto pong = co_await f.rig.client().rpc(0, f.make(Op::ping, 0));
      EXPECT_TRUE(pong.ok);
      p[i] = {sim::slab::stats().allocs - a0, sim.events_executed() - e0};

      Request req = f.make(Op::write_data, 7);
      req.off = static_cast<std::uint64_t>(i) * kSu;
      req.payload = Buffer::phantom(kSu);
      a0 = sim::slab::stats().allocs;
      e0 = sim.events_executed();
      auto wr = co_await f.rig.client().rpc(0, std::move(req));
      EXPECT_TRUE(wr.ok);
      w[i] = {sim::slab::stats().allocs - a0, sim.events_executed() - e0};
    }
  }(fx, ping, write));
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ping[i].frames, 7u);
    EXPECT_EQ(ping[i].events, 9u);
    EXPECT_EQ(write[i].frames, 9u);
    EXPECT_EQ(write[i].events, 11u);
  }
}

}  // namespace
}  // namespace csar::pvfs
