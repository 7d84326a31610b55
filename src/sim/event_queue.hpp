// EventQueue: hierarchical timer wheel with an exact-order ready heap.
//
// Replaces the old std::priority_queue<Event> with a structure whose insert
// is O(1) for the common case (an event within ~69 simulated seconds) and
// whose extract-min cost is a small slot-local heap instead of a log of the
// total pending-event count. The determinism contract is unchanged: events
// pop in strict (timestamp, sequence) order, so equal-timestamp events stay
// FIFO by schedule order.
//
// Layout. Simulated time is bucketed into ticks of 2^kTickBits ns. Three
// wheel levels of 256 slots each hold events whose tick shares the current
// tick's prefix at that level:
//
//   level 0: 1 tick/slot    (4.1 us)   horizon ~1.05 ms
//   level 1: 256 ticks/slot (1.05 ms)  horizon ~268 ms
//   level 2: 64Ki ticks/slot (268 ms)  horizon ~68.7 s
//
// Events beyond level 2's horizon wait in an overflow min-heap. Advancing
// the clock cascades level-1/2 slots downward (each event cascades at most
// twice) and drains due overflow events into the wheels. All events whose
// tick equals the current tick sit in `ready_`, a binary min-heap ordered
// by (t, seq); pop_ready() extracts the global minimum.
//
// The queue also owns the cancellation pool: a cancellable event carries a
// generation-stamped slot index instead of a heap-allocated shared flag.
// Slots are recycled when the event fires or is discarded; stale tokens
// (generation mismatch) cancel nothing.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

namespace csar::sim {

using Time = std::uint64_t;

class EventQueue {
 public:
  static constexpr std::uint32_t kNoCancel = 0xFFFFFFFFu;

  struct Event {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> h;
    std::uint32_t cancel_idx = kNoCancel;
    std::uint32_t cancel_gen = 0;
  };

  /// Queue an event; `t` may be in the past of the service window only if
  /// it equals the last popped timestamp (the simulator forbids scheduling
  /// in the past at its own layer).
  void push(Event ev);

  /// Make the earliest pending event available in the ready heap, advancing
  /// the wheel clock as needed (simulated `now` is not touched — that is
  /// the Simulation's job when it pops). False iff the queue is empty.
  bool ensure_ready();

  /// Earliest pending (t, seq); call only after ensure_ready() returned
  /// true.
  Time ready_top_time() const { return ready_.front().t; }

  /// Pop the earliest pending event; call only after ensure_ready().
  Event pop_ready();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // --- cancellation pool ---

  /// Claim a cancellation slot; returns {idx, gen}.
  std::pair<std::uint32_t, std::uint32_t> claim_cancel_slot();

  /// True iff the slot still belongs to generation `gen` and was cancelled.
  bool cancel_slot_cancelled(std::uint32_t idx, std::uint32_t gen) const {
    return cancel_slots_[idx].gen == gen && cancel_slots_[idx].cancelled;
  }

  /// Mark cancelled if the token is still current (stale tokens no-op).
  void cancel(std::uint32_t idx, std::uint32_t gen) {
    if (idx != kNoCancel && cancel_slots_[idx].gen == gen) {
      cancel_slots_[idx].cancelled = true;
    }
  }

  /// Recycle a slot once its event has popped (fired or discarded).
  void release_cancel_slot(std::uint32_t idx);

 private:
  static constexpr std::uint32_t kTickBits = 12;  // 4096 ns per tick
  static constexpr std::uint32_t kSlotBits = 8;   // 256 slots per level
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;
  static constexpr std::uint32_t kLevels = 3;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  struct Level {
    std::vector<Event> slot[kSlots];
    std::uint64_t bitmap[kSlots / 64] = {};  // non-empty slots
    void mark(std::uint32_t s) { bitmap[s >> 6] |= 1ull << (s & 63); }
    void clear(std::uint32_t s) { bitmap[s >> 6] &= ~(1ull << (s & 63)); }
    /// Smallest non-empty slot index >= from, or kSlots.
    std::uint32_t next(std::uint32_t from) const;
  };

  struct CancelSlot {
    std::uint32_t gen = 0;
    bool cancelled = false;
  };

  /// Heap order by (t, seq). A function object, not a function pointer,
  /// so push_heap/pop_heap inline the comparison.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  void ready_push(Event ev);
  /// File an event into the wheel/overflow by its tick (tick > cur_tick_).
  void wheel_push(Event&& ev);
  /// Move every overflow event within level 2's current horizon into the
  /// wheels.
  void drain_overflow();
  /// Dump a higher-level slot downward after the clock advanced into it.
  void cascade(Level& lv, std::uint32_t s);

  std::vector<Event> ready_;     // min-heap by (t, seq): ticks <= cur_tick_
  std::vector<Event> overflow_;  // min-heap by (t, seq): beyond level 2
  Level levels_[kLevels];
  std::uint64_t cur_tick_ = 0;
  std::size_t size_ = 0;

  std::vector<CancelSlot> cancel_slots_;
  std::vector<std::uint32_t> cancel_free_;
};

}  // namespace csar::sim
