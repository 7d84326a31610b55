#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace csar::sim {
namespace {

TEST(Mutex, UncontendedAcquireIsImmediate) {
  Simulation sim;
  Mutex m(sim);
  Time t = 0;
  sim.spawn([](Simulation& s, Mutex& mu, Time& at) -> Task<void> {
    co_await mu.lock();
    at = s.now();
    mu.unlock();
  }(sim, m, t));
  sim.run();
  EXPECT_EQ(t, 0u);
  EXPECT_FALSE(m.held());
}

TEST(Mutex, SerializesCriticalSections) {
  Simulation sim;
  Mutex m(sim);
  std::vector<std::pair<int, Time>> entries;
  auto proc = [](Simulation& s, Mutex& mu,
                 std::vector<std::pair<int, Time>>& e, int id) -> Task<void> {
    co_await mu.lock();
    e.emplace_back(id, s.now());
    co_await s.sleep(ms(10));
    mu.unlock();
  };
  for (int i = 0; i < 3; ++i) sim.spawn(proc(sim, m, entries, i));
  sim.run();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].second, 0u);
  EXPECT_EQ(entries[1].second, ms(10));  // FIFO, back-to-back
  EXPECT_EQ(entries[2].second, ms(20));
  EXPECT_EQ(entries[0].first, 0);
  EXPECT_EQ(entries[1].first, 1);
  EXPECT_EQ(entries[2].first, 2);
}

TEST(Mutex, ScopedGuardUnlocks) {
  Simulation sim;
  Mutex m(sim);
  sim.spawn([](Simulation& s, Mutex& mu) -> Task<void> {
    {
      auto g = co_await mu.scoped();
      co_await s.sleep(ms(1));
    }
    EXPECT_FALSE(mu.held());
  }(sim, m));
  sim.run();
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Semaphore, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  auto proc = [](Simulation& s, Semaphore& sm, int& a, int& p) -> Task<void> {
    co_await sm.acquire();
    ++a;
    p = std::max(p, a);
    co_await s.sleep(ms(5));
    --a;
    sm.release();
  };
  for (int i = 0; i < 6; ++i) sim.spawn(proc(sim, sem, active, peak));
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sim.now(), ms(15));  // 6 jobs, 2 wide, 5ms each
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Event, ReleasesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  int released = 0;
  auto waiter = [](Event& e, int& r) -> Task<void> {
    co_await e.wait();
    ++r;
  };
  for (int i = 0; i < 4; ++i) sim.spawn(waiter(ev, released));
  sim.spawn([](Simulation& s, Event& e) -> Task<void> {
    co_await s.sleep(ms(2));
    e.set();
  }(sim, ev));
  sim.run();
  EXPECT_EQ(released, 4);
}

TEST(Event, WaitAfterSetIsImmediate) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  bool done = false;
  sim.spawn([](Event& e, bool& d) -> Task<void> {
    co_await e.wait();
    d = true;
  }(ev, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Barrier, AllPartiesLeaveTogether) {
  Simulation sim;
  constexpr std::size_t kParties = 4;
  Barrier bar(sim, kParties);
  std::vector<Time> leave;
  auto proc = [](Simulation& s, Barrier& b, std::vector<Time>& lv,
                 Duration arrive_delay) -> Task<void> {
    co_await s.sleep(arrive_delay);
    co_await b.arrive_and_wait();
    lv.push_back(s.now());
  };
  for (std::size_t i = 0; i < kParties; ++i) {
    sim.spawn(proc(sim, bar, leave, ms(i + 1)));
  }
  sim.run();
  ASSERT_EQ(leave.size(), kParties);
  for (Time t : leave) EXPECT_EQ(t, ms(kParties));  // last arrival gates
}

TEST(Barrier, Reusable) {
  Simulation sim;
  constexpr std::size_t kParties = 3;
  Barrier bar(sim, kParties);
  int rounds_done = 0;
  auto proc = [](Simulation& s, Barrier& b, int& rd, int id) -> Task<void> {
    for (int round = 0; round < 5; ++round) {
      co_await s.sleep(static_cast<Duration>(id + 1));
      co_await b.arrive_and_wait();
    }
    ++rd;
  };
  for (int i = 0; i < static_cast<int>(kParties); ++i) {
    sim.spawn(proc(sim, bar, rounds_done, i));
  }
  sim.run();
  EXPECT_EQ(rounds_done, 3);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(WaitGroup, WaitsForAll) {
  Simulation sim;
  WaitGroup wg(sim);
  Time done_at = 0;
  wg.add(3);
  auto worker = [](Simulation& s, WaitGroup& w, Duration d) -> Task<void> {
    co_await s.sleep(d);
    w.done();
  };
  sim.spawn(worker(sim, wg, ms(1)));
  sim.spawn(worker(sim, wg, ms(5)));
  sim.spawn(worker(sim, wg, ms(3)));
  sim.spawn([](Simulation& s, WaitGroup& w, Time& t) -> Task<void> {
    co_await w.wait();
    t = s.now();
  }(sim, wg, done_at));
  sim.run();
  EXPECT_EQ(done_at, ms(5));
}

TEST(WaitGroup, WaitOnZeroIsImmediate) {
  Simulation sim;
  WaitGroup wg(sim);
  bool done = false;
  sim.spawn([](WaitGroup& w, bool& d) -> Task<void> {
    co_await w.wait();
    d = true;
  }(wg, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(WhenAll, RunsConcurrently) {
  Simulation sim;
  auto worker = [](Simulation& s, Duration d) -> Task<void> {
    co_await s.sleep(d);
  };
  std::vector<Task<void>> tasks;
  tasks.push_back(worker(sim, ms(10)));
  tasks.push_back(worker(sim, ms(20)));
  tasks.push_back(worker(sim, ms(15)));
  Time done_at = 0;
  sim.spawn([](Simulation& s, std::vector<Task<void>> ts,
               Time& t) -> Task<void> {
    co_await when_all(s, std::move(ts));
    t = s.now();
  }(sim, std::move(tasks), done_at));
  sim.run();
  EXPECT_EQ(done_at, ms(20));  // max, not sum: concurrent
}

TEST(WhenAll, EmptyCompletesImmediately) {
  Simulation sim;
  bool done = false;
  sim.spawn([](Simulation& s, bool& d) -> Task<void> {
    co_await when_all(s, {});
    d = true;
  }(sim, done));
  sim.run();
  EXPECT_TRUE(done);
}

// More children than the frame holds handles for: the rest spill to a
// vector. Children start in index order and the join waits for the
// slowest, which sits in the spilled part.
TEST(WhenAll, SpillsPastTheInlineHandles) {
  Simulation sim;
  constexpr std::size_t kN = 3 * kWhenAllInline + 1;
  std::vector<std::size_t> started;
  Time done_at = 0;
  sim.spawn([](Simulation& s, std::vector<std::size_t>& st,
               Time& t) -> Task<void> {
    co_await when_all(s, kN, [&](std::size_t i) {
      return [](Simulation& s2, std::vector<std::size_t>& st2,
                std::size_t idx) -> Task<void> {
        st2.push_back(idx);
        co_await s2.sleep(ms(idx == kN - 2 ? 50 : 1 + idx % 5));
      }(s, st, i);
    });
    t = s.now();
  }(sim, started, done_at));
  sim.run();
  ASSERT_EQ(started.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(started[i], i);
  EXPECT_EQ(done_at, ms(50));
  EXPECT_EQ(sim.live_processes(), 0u);
}

// Classic RAID5 parity-lock shape: ordered lock acquisition avoids deadlock.
TEST(Mutex, OrderedAcquisitionOfTwoLocks) {
  Simulation sim;
  Mutex a(sim);
  Mutex b(sim);
  int completed = 0;
  // Both processes take locks in the same (address-independent) order; with
  // FIFO mutexes this cannot deadlock.
  auto proc = [](Simulation& s, Mutex& first, Mutex& second,
                 int& c) -> Task<void> {
    co_await first.lock();
    co_await s.sleep(ms(1));
    co_await second.lock();
    co_await s.sleep(ms(1));
    second.unlock();
    first.unlock();
    ++c;
  };
  sim.spawn(proc(sim, a, b, completed));
  sim.spawn(proc(sim, a, b, completed));
  sim.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(sim.live_processes(), 0u);
}

}  // namespace
}  // namespace csar::sim
