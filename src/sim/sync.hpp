// Synchronization primitives for simulation coroutines.
//
// All primitives are strictly FIFO: waiters are released in arrival order,
// which both avoids starvation and keeps runs deterministic. None of these
// are thread-safe — the simulation is single-threaded by design.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace csar::sim {

/// FIFO mutex. Ownership passes directly to the next waiter on unlock.
class Mutex {
 public:
  explicit Mutex(Simulation& sim) : sim_(&sim) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Awaitable acquire. Completes immediately when free.
  auto lock() {
    struct Awaiter {
      Mutex* m;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) const {
        if (!m->held_) {
          m->held_ = true;
          return false;  // acquired without suspending
        }
        m->waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Release; the longest-waiting acquirer (if any) becomes the owner and is
  /// resumed at the current time.
  void unlock() {
    assert(held_);
    if (waiters_.empty()) {
      held_ = false;
      return;
    }
    auto h = waiters_.front();
    waiters_.pop_front();
    sim_->schedule_now(h);  // ownership transfers; held_ stays true
  }

  bool held() const { return held_; }
  std::size_t waiting() const { return waiters_.size(); }

  /// RAII guard; obtain with `auto g = co_await mutex.scoped();`.
  class Guard {
   public:
    explicit Guard(Mutex* m) : m_(m) {}
    Guard(Guard&& o) noexcept : m_(std::exchange(o.m_, nullptr)) {}
    Guard& operator=(Guard&&) = delete;
    Guard(const Guard&) = delete;
    ~Guard() {
      if (m_) m_->unlock();
    }

   private:
    Mutex* m_;
  };

  /// Awaitable acquire returning a Guard.
  Task<Guard> scoped() {
    co_await lock();
    co_return Guard{this};
  }

 private:
  Simulation* sim_;
  bool held_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// FIFO counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::uint64_t initial)
      : sim_(&sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore* s;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) const {
        if (s->count_ > 0) {
          --s->count_;
          return false;
        }
        s->waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->schedule_now(h);  // the unit passes straight to the waiter
      return;
    }
    ++count_;
  }

  std::uint64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Simulation* sim_;
  std::uint64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// One-shot event: wait() suspends until set() is called; set releases all
/// current and future waiters.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  auto wait() {
    struct Awaiter {
      Event* e;
      bool await_ready() const noexcept { return e->set_; }
      void await_suspend(std::coroutine_handle<> h) const {
        e->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sim_->schedule_now(h);
    waiters_.clear();
  }

  bool is_set() const { return set_; }

 private:
  Simulation* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Reusable barrier for `parties` processes (MPI_Barrier analogue for the
/// parallel workload generators).
class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t parties)
      : sim_(&sim), parties_(parties) {
    assert(parties > 0);
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Awaitable: suspends until all parties have arrived; the last arrival
  /// releases everyone and resets the barrier for the next round.
  auto arrive_and_wait() {
    struct Awaiter {
      Barrier* b;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) const {
        if (b->arrived_ + 1 == b->parties_) {
          // Last arrival: release the round without suspending.
          b->arrived_ = 0;
          for (auto w : b->waiters_) b->sim_->schedule_now(w);
          b->waiters_.clear();
          return false;
        }
        ++b->arrived_;
        b->waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counter that lets a coroutine wait for N forked activities to finish.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(&sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(std::uint64_t n = 1) { count_ += n; }

  void done() {
    assert(count_ > 0);
    if (--count_ == 0) {
      for (auto h : waiters_) sim_->schedule_now(h);
      waiters_.clear();
    }
  }

  auto wait() {
    struct Awaiter {
      WaitGroup* wg;
      bool await_ready() const noexcept { return wg->count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        wg->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  std::uint64_t pending() const { return count_; }

 private:
  Simulation* sim_;
  std::uint64_t count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Token-bucket rate limiter for pacing bulk transfers (e.g. rebuild traffic
/// yielding bandwidth to foreground IO). Callers `take(bytes)` before issuing
/// work; when the bucket is dry the caller sleeps until enough tokens have
/// accrued at `rate_per_sec`. A Mutex keeps takers FIFO so pacing stays
/// deterministic. `rate_per_sec <= 0` disables pacing (take() still counts).
class TokenBucket {
 public:
  TokenBucket(Simulation& sim, double rate_per_sec, std::uint64_t burst)
      : sim_(&sim),
        rate_(rate_per_sec),
        burst_(burst > 0 ? burst : 1),
        tokens_(static_cast<double>(burst_)),
        last_(sim.now()),
        m_(sim) {}
  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  Task<void> take(std::uint64_t n) {
    taken_ += n;
    if (rate_ <= 0.0) co_return;
    co_await m_.lock();
    refill();
    // A request larger than the burst drains in burst-sized gulps so a huge
    // unit can never starve the clock arithmetic.
    while (n > 0) {
      const std::uint64_t gulp = n < burst_ ? n : burst_;
      const double want = static_cast<double>(gulp);
      while (tokens_ < want) {
        const std::uint64_t deficit =
            static_cast<std::uint64_t>(want - tokens_) + 1;
        co_await sim_->sleep(transfer_time(deficit, rate_));
        refill();
      }
      tokens_ -= want;
      n -= gulp;
    }
    m_.unlock();
  }

  /// Total bytes ever requested through take(), paced or not.
  std::uint64_t taken() const { return taken_; }

 private:
  /// Fractional tokens are kept (tokens_ is a double): flooring the earned
  /// amount and resetting last_ would discard up to one token per refill,
  /// and a 1-byte deficit could then respin forever without ever accruing.
  void refill() {
    const Time now = sim_->now();
    const double earned = to_seconds(now - last_) * rate_;
    last_ = now;
    const double cap = static_cast<double>(burst_);
    tokens_ = tokens_ + earned > cap ? cap : tokens_ + earned;
  }

  Simulation* sim_;
  double rate_;
  std::uint64_t burst_;
  double tokens_;
  Time last_;
  Mutex m_;
  std::uint64_t taken_ = 0;
};

/// Run make(0), ..., make(n-1) as concurrent child processes, each spawned
/// as soon as it is made, in index order; completes when every one has
/// finished, joining in the same order. The workhorse for fan-out I/O (a
/// client writing to N servers). The first kWhenAllInline process handles
/// live in the coroutine frame, so a typical fan-out allocates nothing.
inline constexpr std::size_t kWhenAllInline = 8;

template <typename Make>
Task<void> when_all(Simulation& sim, std::size_t n, Make make) {
  ProcessHandle near[kWhenAllInline];
  std::vector<ProcessHandle> spill;
  if (n > kWhenAllInline) spill.reserve(n - kWhenAllInline);
  for (std::size_t i = 0; i < n; ++i) {
    ProcessHandle h = sim.spawn(make(i));
    if (i < kWhenAllInline) {
      near[i] = h;
    } else {
      spill.push_back(h);
    }
  }
  for (std::size_t i = 0; i < n && i < kWhenAllInline; ++i) {
    co_await near[i].join();
  }
  for (const ProcessHandle& h : spill) co_await h.join();
}

/// when_all over tasks made in advance.
Task<void> when_all(Simulation& sim, std::vector<Task<void>> tasks);

}  // namespace csar::sim
