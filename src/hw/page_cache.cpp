#include "hw/page_cache.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/units.hpp"

namespace csar::hw {

void PageCache::lru_unlink(std::uint32_t s) {
  Page& pg = pool_[s];
  if (pg.prev != kNil) {
    pool_[pg.prev].next = pg.next;
  } else {
    head_ = pg.next;
  }
  if (pg.next != kNil) {
    pool_[pg.next].prev = pg.prev;
  } else {
    tail_ = pg.prev;
  }
  pg.prev = pg.next = kNil;
}

void PageCache::lru_push_back(std::uint32_t s) {
  Page& pg = pool_[s];
  pg.prev = tail_;
  pg.next = kNil;
  if (tail_ != kNil) {
    pool_[tail_].next = s;
  } else {
    head_ = s;
  }
  tail_ = s;
}

std::uint32_t& PageCache::slot_ref(std::uint64_t fid, std::uint64_t page) {
  if (fid >= table_.size()) table_.resize(fid + 1);
  std::vector<std::uint32_t>& row = table_[fid];
  if (page >= row.size()) row.resize(page + 1, kNil);
  return row[page];
}

void PageCache::insert(std::uint32_t& slot, std::uint64_t fid,
                       std::uint64_t page, bool dirty) {
  if (slot != kNil) {
    Page& pg = pool_[slot];
    if (dirty && !pg.dirty) {
      pg.dirty = true;
      ++dirty_count_;
    }
    touch(slot);
    return;
  }
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    pool_[slot] = Page{fid, page, dirty, true, kNil, kNil};
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Page{fid, page, dirty, true, kNil, kNil});
  }
  lru_push_back(slot);
  ++live_pages_;
  if (dirty) ++dirty_count_;
}

sim::Task<void> PageCache::ensure_room() {
  assert(over_capacity());
  // Reclaim down to a hysteresis point one batch below capacity: victims are
  // collected synchronously (so the LRU stays consistent), then dirty ones
  // are written out in address order.
  const std::uint64_t batch_bytes =
      static_cast<std::uint64_t>(p_.evict_batch) * p_.page_size;
  const std::uint64_t target =
      p_.capacity_bytes > batch_bytes ? p_.capacity_bytes - batch_bytes : 0;
  std::vector<std::uint64_t> dirty_addrs;
  while (resident_bytes() > target && head_ != kNil) {
    const std::uint32_t slot = head_;
    Page& pg = pool_[slot];
    if (pg.dirty) {
      dirty_addrs.push_back(page_addr(pg.fid, pg.idx, p_.page_size));
      --dirty_count_;
      ++stats_.dirty_evictions;
    } else {
      ++stats_.clean_evictions;
    }
    lru_unlink(slot);
    table_[pg.fid][pg.idx] = kNil;
    --live_pages_;
    pg.live = false;
    free_.push_back(slot);
  }
  std::sort(dirty_addrs.begin(), dirty_addrs.end());
  // Coalesce address-contiguous victims into single disk writes.
  std::size_t i = 0;
  while (i < dirty_addrs.size()) {
    std::size_t j = i + 1;
    while (j < dirty_addrs.size() &&
           dirty_addrs[j] == dirty_addrs[j - 1] + p_.page_size) {
      ++j;
    }
    co_await disk_->write(dirty_addrs[i],
                          static_cast<std::uint64_t>(j - i) * p_.page_size);
    i = j;
  }
}

sim::Task<IoStatus> PageCache::read(std::uint64_t fid, std::uint64_t off,
                                    std::uint64_t len,
                                    const ContentPred& has_content) {
  if (len == 0) co_return IoStatus::ok;
  IoStatus status = IoStatus::ok;
  const std::uint64_t first = off / p_.page_size;
  const std::uint64_t last = (off + len - 1) / p_.page_size;
  std::uint64_t run_start = 0;  // first page of a pending miss run
  std::uint64_t run_len = 0;    // pages in the pending miss run
  // Awaited only with a pending run: a call creates a coroutine frame.
  auto flush_run = [&]() -> sim::Task<void> {
    ++stats_.miss_runs;
    if (co_await disk_->read(page_addr(fid, run_start, p_.page_size),
                             run_len * p_.page_size) ==
        IoStatus::media_error) {
      // Failed runs are not cached: retries keep hitting the bad sectors
      // until something rewrites them.
      status = IoStatus::media_error;
      run_len = 0;
      co_return;
    }
    for (std::uint64_t k = 0; k < run_len; ++k) {
      insert(slot_ref(fid, run_start + k), fid, run_start + k,
             /*dirty=*/false);
    }
    run_len = 0;
    if (over_capacity()) co_await ensure_room();
  };
  for (std::uint64_t pg = first; pg <= last; ++pg) {
    if (has_content(pg * p_.page_size, (pg + 1) * p_.page_size)) {
      const std::uint32_t slot = find(fid, pg);
      if (slot == kNil) {
        ++stats_.misses;
        if (run_len == 0) run_start = pg;
        ++run_len;
        continue;
      }
      ++stats_.hits;
      touch(slot);
    }
    // A hit or a hole ends the pending miss run.
    if (run_len != 0) co_await flush_run();
  }
  if (run_len != 0) co_await flush_run();
  co_await mem_->transfer(len);
  co_return status;
}

sim::Task<void> PageCache::write(std::uint64_t fid, std::uint64_t off,
                                 std::uint64_t len,
                                 const ContentPred& has_content,
                                 bool pad_partial) {
  if (len == 0) co_return;
  const std::uint64_t first = off / p_.page_size;
  const std::uint64_t last = (off + len - 1) / p_.page_size;
  for (std::uint64_t pg = first; pg <= last; ++pg) {
    const std::uint64_t pg_start = pg * p_.page_size;
    const std::uint64_t pg_end = pg_start + p_.page_size;
    const bool full =
        pad_partial || (off <= pg_start && off + len >= pg_end);
    std::uint32_t& slot = slot_ref(fid, pg);
    if (slot != kNil) {
      ++stats_.hits;
      insert(slot, fid, pg, /*dirty=*/true);  // marks dirty + LRU touch
      continue;
    }
    if (full || !has_content(pg_start, pg_end)) {
      ++stats_.misses;
      insert(slot, fid, pg, /*dirty=*/true);
    } else {
      // §5.2: a sub-page write to uncached, preexisting content forces the
      // page to be read from disk before the write can be applied.
      ++stats_.prereads;
      // A media error on the pre-read is absorbed: the overwrite that
      // follows remaps the bad sectors anyway.
      (void)co_await disk_->read(page_addr(fid, pg, p_.page_size),
                                 p_.page_size);
      // `slot` may dangle now (the table can grow while the read is in
      // flight), and another writer may have cached the page: probe again.
      insert(slot_ref(fid, pg), fid, pg, /*dirty=*/true);
    }
    if (over_capacity()) co_await ensure_room();
  }
  co_await mem_->transfer(len);
}

sim::Task<void> PageCache::flush_all() {
  std::vector<std::uint64_t> dirty_addrs;
  dirty_addrs.reserve(dirty_count_);
  for (Page& page : pool_) {
    if (page.live && page.dirty) {
      dirty_addrs.push_back(page_addr(page.fid, page.idx, p_.page_size));
      page.dirty = false;
    }
  }
  dirty_count_ = 0;
  std::sort(dirty_addrs.begin(), dirty_addrs.end());
  std::size_t i = 0;
  while (i < dirty_addrs.size()) {
    std::size_t j = i + 1;
    while (j < dirty_addrs.size() &&
           dirty_addrs[j] == dirty_addrs[j - 1] + p_.page_size) {
      ++j;
    }
    co_await disk_->write(dirty_addrs[i],
                          static_cast<std::uint64_t>(j - i) * p_.page_size);
    i = j;
  }
}

void PageCache::drop_all() {
  // Capacity retained everywhere: steady state stays allocation-free.
  for (std::vector<std::uint32_t>& row : table_) row.clear();
  live_pages_ = 0;
  pool_.clear();
  free_.clear();
  head_ = tail_ = kNil;
  dirty_count_ = 0;
}

}  // namespace csar::hw
