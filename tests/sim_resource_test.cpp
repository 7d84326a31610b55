#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/slab.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace csar::sim {
namespace {

TEST(BandwidthServer, SingleTransferTakesExpectedTime) {
  Simulation sim;
  BandwidthServer link(sim, 100e6);  // 100 MB/s
  Time done = 0;
  sim.spawn([](Simulation& s, BandwidthServer& l, Time& t) -> Task<void> {
    co_await l.transfer(100'000'000);  // 100 MB -> 1 s
    t = s.now();
  }(sim, link, done));
  sim.run();
  EXPECT_EQ(done, sec(1));
  EXPECT_EQ(link.bytes_total(), 100'000'000u);
  EXPECT_EQ(link.ops_total(), 1u);
}

TEST(BandwidthServer, ConcurrentTransfersSerialize) {
  Simulation sim;
  BandwidthServer link(sim, 100e6);
  std::vector<Time> done;
  auto proc = [](Simulation& s, BandwidthServer& l,
                 std::vector<Time>& d) -> Task<void> {
    co_await l.transfer(50'000'000);  // 0.5 s each
    d.push_back(s.now());
  };
  sim.spawn(proc(sim, link, done));
  sim.spawn(proc(sim, link, done));
  sim.spawn(proc(sim, link, done));
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], ms(500));
  EXPECT_EQ(done[1], sec(1));
  EXPECT_EQ(done[2], ms(1500));
  EXPECT_EQ(link.busy_time(), ms(1500));
}

TEST(BandwidthServer, PerOpLatencyCharged) {
  Simulation sim;
  BandwidthServer link(sim, 100e6, us(50));
  Time done = 0;
  sim.spawn([](Simulation& s, BandwidthServer& l, Time& t) -> Task<void> {
    co_await l.transfer(0);  // latency only
    co_await l.transfer(0);
    t = s.now();
  }(sim, link, done));
  sim.run();
  EXPECT_EQ(done, us(100));
}

TEST(BandwidthServer, IdleGapNotCountedBusy) {
  Simulation sim;
  BandwidthServer link(sim, 100e6);
  sim.spawn([](Simulation& s, BandwidthServer& l) -> Task<void> {
    co_await l.transfer(10'000'000);  // 0.1 s
    co_await s.sleep(sec(1));         // idle gap
    co_await l.transfer(10'000'000);  // 0.1 s
  }(sim, link));
  sim.run();
  EXPECT_EQ(link.busy_time(), ms(200));
  EXPECT_EQ(sim.now(), ms(100) + sec(1) + ms(100));
}

TEST(BandwidthServer, PipelinedSaturationReachesLineRate) {
  // Many small transfers from independent processes should sum to exactly
  // bytes/rate total time: work-conserving FIFO.
  Simulation sim;
  BandwidthServer link(sim, 1e9);  // 1 GB/s
  constexpr int kN = 100;
  constexpr std::uint64_t kEach = 1'000'000;  // 1 MB
  auto proc = [](BandwidthServer& l) -> Task<void> {
    co_await l.transfer(kEach);
  };
  for (int i = 0; i < kN; ++i) sim.spawn(proc(link));
  const Time end = sim.run();
  EXPECT_EQ(end, ms(100));  // 100 MB at 1 GB/s
}

TEST(BandwidthServer, AwaitsAllocateNoFrameAndCostOneEvent) {
  // transfer() and occupy() hand back the simulation's sleep awaiter: no
  // coroutine frame, exactly one event per await. transfer(0) with no
  // per-op cost is still a same-time yield (see ZeroTransferStillYields).
  Simulation sim;
  BandwidthServer link(sim, 100e6);
  struct Delta {
    std::uint64_t frames = ~0ULL;
    std::uint64_t events = ~0ULL;
  };
  Delta xfer, occ, zero;
  sim.spawn([](Simulation& s, BandwidthServer& l, Delta& a, Delta& b,
               Delta& c) -> Task<void> {
    auto measure = [&s](Delta& d, std::uint64_t frames0,
                        std::uint64_t events0) {
      d.frames = slab::stats().allocs - frames0;
      d.events = s.events_executed() - events0;
    };
    std::uint64_t f0 = slab::stats().allocs;
    std::uint64_t e0 = s.events_executed();
    co_await l.transfer(1000);
    measure(a, f0, e0);
    f0 = slab::stats().allocs;
    e0 = s.events_executed();
    co_await l.occupy(us(3));
    measure(b, f0, e0);
    f0 = slab::stats().allocs;
    e0 = s.events_executed();
    co_await l.transfer(0);
    measure(c, f0, e0);
  }(sim, link, xfer, occ, zero));
  sim.run();
  EXPECT_EQ(xfer.frames, 0u);
  EXPECT_EQ(xfer.events, 1u);
  EXPECT_EQ(occ.frames, 0u);
  EXPECT_EQ(occ.events, 1u);
  EXPECT_EQ(zero.frames, 0u);
  EXPECT_EQ(zero.events, 1u);
  EXPECT_EQ(sim.now(), us(10) + us(3));
  EXPECT_EQ(link.ops_total(), 3u);
}

TEST(BandwidthServer, ZeroTransferStillYields) {
  // A zero-length transfer resumes through the event queue, behind work
  // already runnable at the same instant: it is never completed inline.
  Simulation sim;
  BandwidthServer link(sim, 100e6);
  std::vector<char> order;
  sim.spawn([](BandwidthServer& l, std::vector<char>& o) -> Task<void> {
    co_await l.transfer(0);
    o.push_back('a');
  }(link, order));
  sim.spawn([](std::vector<char>& o) -> Task<void> {
    o.push_back('b');
    co_return;
  }(order));
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(BandwidthServer, SameInstantBookingsFinishInCallOrder) {
  // Processes that book one link at the same instant are served in the
  // order they called, whether their slots end together (occupy(0)) or
  // back to back (transfer).
  Simulation sim;
  BandwidthServer link(sim, 100e6);
  std::vector<std::pair<int, Time>> done;
  auto proc = [](Simulation& s, BandwidthServer& l, int id, bool zero,
                 std::vector<std::pair<int, Time>>& d) -> Task<void> {
    if (zero) {
      co_await l.occupy(0);
    } else {
      co_await l.transfer(1000);  // 10 us each
    }
    d.emplace_back(id, s.now());
  };
  for (int id = 0; id < 3; ++id) sim.spawn(proc(sim, link, id, true, done));
  for (int id = 3; id < 6; ++id) sim.spawn(proc(sim, link, id, false, done));
  sim.run();
  const std::vector<std::pair<int, Time>> expect = {
      {0, 0}, {1, 0}, {2, 0}, {3, us(10)}, {4, us(20)}, {5, us(30)}};
  EXPECT_EQ(done, expect);
}

TEST(Accumulator, Basics) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  a.add(1.0);
  a.add(3.0);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(BandwidthMeter, ComputesRate) {
  BandwidthMeter m;
  m.start(sec(1));
  m.add_bytes(50'000'000);
  m.stop(sec(2));
  EXPECT_DOUBLE_EQ(m.bytes_per_sec(), 50e6);
}

TEST(BandwidthMeter, EmptyWindowIsZero) {
  BandwidthMeter m;
  m.add_bytes(100);
  EXPECT_EQ(m.bytes_per_sec(), 0.0);
}

TEST(LatencyHistogram, PercentileAndSummary) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.add(us(10));
  h.add(ms(10));
  EXPECT_EQ(h.summary().count(), 101u);
  EXPECT_LE(h.percentile(0.5), 16384u);  // log2-bucket upper bound of 10us
  EXPECT_GT(h.percentile(1.0), us(100));
}

}  // namespace
}  // namespace csar::sim
