#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace csar::sim {

std::uint32_t EventQueue::Level::next(std::uint32_t from) const {
  if (from >= kSlots) return kSlots;
  std::uint32_t w = from >> 6;
  std::uint64_t word = bitmap[w] & (~0ull << (from & 63));
  for (;;) {
    if (word != 0) {
      return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
    }
    if (++w == kSlots / 64) return kSlots;
    word = bitmap[w];
  }
}

void EventQueue::ready_push(Event ev) {
  ready_.push_back(ev);
  std::push_heap(ready_.begin(), ready_.end(), Later{});
}

void EventQueue::wheel_push(Event&& ev) {
  const std::uint64_t tick = ev.t >> kTickBits;
  // Place at the highest-resolution level whose current rotation covers the
  // event's tick (same tick prefix as the clock at that level).
  if ((tick >> kSlotBits) == (cur_tick_ >> kSlotBits)) {
    const auto s = static_cast<std::uint32_t>(tick & kSlotMask);
    levels_[0].slot[s].push_back(ev);
    levels_[0].mark(s);
  } else if ((tick >> (2 * kSlotBits)) == (cur_tick_ >> (2 * kSlotBits))) {
    const auto s = static_cast<std::uint32_t>((tick >> kSlotBits) & kSlotMask);
    levels_[1].slot[s].push_back(ev);
    levels_[1].mark(s);
  } else if ((tick >> (3 * kSlotBits)) == (cur_tick_ >> (3 * kSlotBits))) {
    const auto s =
        static_cast<std::uint32_t>((tick >> (2 * kSlotBits)) & kSlotMask);
    levels_[2].slot[s].push_back(ev);
    levels_[2].mark(s);
  } else {
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

void EventQueue::push(Event ev) {
  ++size_;
  if ((ev.t >> kTickBits) <= cur_tick_) {
    ready_push(ev);
  } else {
    wheel_push(std::move(ev));
  }
}

void EventQueue::cascade(Level& lv, std::uint32_t s) {
  // After the clock advanced into this slot every event re-files strictly
  // below this level (or into ready), so pushing while iterating is safe.
  for (Event& ev : lv.slot[s]) {
    if ((ev.t >> kTickBits) <= cur_tick_) {
      ready_push(ev);
    } else {
      wheel_push(std::move(ev));
    }
  }
  lv.slot[s].clear();  // keeps capacity: steady state stays allocation-free
  lv.clear(s);
}

void EventQueue::drain_overflow() {
  while (!overflow_.empty() &&
         (overflow_.front().t >> (kTickBits + 3 * kSlotBits)) ==
             (cur_tick_ >> (3 * kSlotBits))) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Event ev = overflow_.back();
    overflow_.pop_back();
    if ((ev.t >> kTickBits) <= cur_tick_) {
      ready_push(ev);
    } else {
      wheel_push(std::move(ev));
    }
  }
}

bool EventQueue::ensure_ready() {
  if (!ready_.empty()) return true;
  if (size_ == 0) return false;
  for (;;) {
    // Next occupied level-0 slot in the current rotation.
    const std::uint32_t s0 = levels_[0].next(
        static_cast<std::uint32_t>(cur_tick_ & kSlotMask) + 1);
    if (s0 < kSlots) {
      cur_tick_ = (cur_tick_ & ~kSlotMask) | s0;
      for (const Event& ev : levels_[0].slot[s0]) ready_push(ev);
      levels_[0].slot[s0].clear();
      levels_[0].clear(s0);
      return true;
    }
    // Rotation exhausted: advance into the next occupied level-1 slot.
    std::uint64_t t1 = cur_tick_ >> kSlotBits;
    const std::uint32_t s1 =
        levels_[1].next(static_cast<std::uint32_t>(t1 & kSlotMask) + 1);
    if (s1 < kSlots) {
      t1 = (t1 & ~kSlotMask) | s1;
      cur_tick_ = t1 << kSlotBits;
      cascade(levels_[1], s1);
      if (!ready_.empty()) return true;
      continue;
    }
    // Level-1 rotation exhausted too: advance level 2.
    std::uint64_t t2 = cur_tick_ >> (2 * kSlotBits);
    const std::uint32_t s2 =
        levels_[2].next(static_cast<std::uint32_t>(t2 & kSlotMask) + 1);
    if (s2 < kSlots) {
      t2 = (t2 & ~kSlotMask) | s2;
      cur_tick_ = t2 << (2 * kSlotBits);
      cascade(levels_[2], s2);
      if (!ready_.empty()) return true;
      continue;
    }
    // Wheels drained: jump the clock to the earliest overflow event.
    assert(!overflow_.empty());
    cur_tick_ = overflow_.front().t >> kTickBits;
    drain_overflow();
    if (!ready_.empty()) return true;
  }
}

EventQueue::Event EventQueue::pop_ready() {
  assert(!ready_.empty());
  std::pop_heap(ready_.begin(), ready_.end(), Later{});
  Event ev = ready_.back();
  ready_.pop_back();
  --size_;
  return ev;
}

std::pair<std::uint32_t, std::uint32_t> EventQueue::claim_cancel_slot() {
  if (!cancel_free_.empty()) {
    const std::uint32_t idx = cancel_free_.back();
    cancel_free_.pop_back();
    cancel_slots_[idx].cancelled = false;
    return {idx, cancel_slots_[idx].gen};
  }
  cancel_slots_.push_back(CancelSlot{});
  return {static_cast<std::uint32_t>(cancel_slots_.size() - 1), 0};
}

void EventQueue::release_cancel_slot(std::uint32_t idx) {
  ++cancel_slots_[idx].gen;  // stale tokens can no longer cancel anything
  cancel_slots_[idx].cancelled = false;
  cancel_free_.push_back(idx);
}

}  // namespace csar::sim
