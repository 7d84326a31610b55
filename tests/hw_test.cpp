#include <gtest/gtest.h>

#include "hw/disk.hpp"
#include "hw/node.hpp"
#include "hw/page_cache.hpp"
#include "sim/simulation.hpp"

namespace csar::hw {
namespace {

TEST(Disk, SequentialAccessSkipsSeek) {
  sim::Simulation sim;
  DiskParams p;
  p.bytes_per_sec = 100e6;
  p.seek = sim::ms(10);
  p.per_op = 0;
  Disk disk(sim, p);
  sim.spawn([](Disk& d) -> sim::Task<void> {
    co_await d.write(0, 1'000'000);        // seek + 10ms transfer
    co_await d.write(1'000'000, 1'000'000);  // sequential: 10ms only
  }(disk));
  sim.run();
  EXPECT_EQ(sim.now(), sim::ms(10) + sim::ms(10) + sim::ms(10));
  EXPECT_EQ(disk.stats().seeks, 1u);
  EXPECT_EQ(disk.stats().writes, 2u);
  EXPECT_EQ(disk.stats().bytes_written, 2'000'000u);
}

TEST(Disk, RandomAccessSeeksEveryTime) {
  sim::Simulation sim;
  DiskParams p;
  p.bytes_per_sec = 100e6;
  p.seek = sim::ms(10);
  p.per_op = 0;
  Disk disk(sim, p);
  sim.spawn([](Disk& d) -> sim::Task<void> {
    co_await d.read(0, 4096);
    co_await d.read(1'000'000, 4096);
    co_await d.read(0, 4096);
  }(disk));
  sim.run();
  EXPECT_EQ(disk.stats().seeks, 3u);
}

TEST(Disk, ConcurrentRequestsSerializeFifo) {
  sim::Simulation sim;
  DiskParams p;
  p.bytes_per_sec = 100e6;
  p.seek = 0;
  p.per_op = 0;
  Disk disk(sim, p);
  std::vector<sim::Time> done;
  auto io = [](Disk& d, std::vector<sim::Time>& v,
               sim::Simulation& s) -> sim::Task<void> {
    co_await d.write(0, 1'000'000);  // 10 ms each (no seek from 0? -> first
                                     // seeks cost 0 here)
    v.push_back(s.now());
  };
  sim.spawn(io(disk, done, sim));
  sim.spawn(io(disk, done, sim));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], sim::ms(10));
  EXPECT_EQ(done[1], sim::ms(20));
}

TEST(Disk, ServiceFactorRoundTripAndSlowBusyTime) {
  sim::Simulation sim;
  DiskParams p;
  p.bytes_per_sec = 100e6;
  p.seek = sim::ms(10);
  p.per_op = 0;
  Disk disk(sim, p);
  // Round-trip: the setter stores exactly, clamping negatives to 0.
  EXPECT_EQ(disk.service_factor(), 1.0);
  disk.set_service_factor(3.5);
  EXPECT_EQ(disk.service_factor(), 3.5);
  disk.set_service_factor(-2.0);
  EXPECT_EQ(disk.service_factor(), 0.0);
  disk.set_service_factor(1.0);
  EXPECT_EQ(disk.service_factor(), 1.0);

  sim.spawn([](Disk& d) -> sim::Task<void> {
    co_await d.write(0, 1'000'000);  // seek 10ms + 10ms transfer, healthy
    d.set_service_factor(2.0);
    co_await d.write(1'000'000, 1'000'000);  // sequential 10ms -> 20ms
    d.set_service_factor(1.0);
    co_await d.write(2'000'000, 1'000'000);  // healthy again
  }(disk));
  sim.run();
  const auto st = disk.stats();
  EXPECT_EQ(st.busy_time, sim::ms(20) + sim::ms(20) + sim::ms(10));
  // Only the inflated op's actual-minus-nominal share is attributed: a
  // loaded healthy disk keeps slow_busy_time at zero.
  EXPECT_EQ(st.slow_busy_time, sim::ms(10));
}

TEST(Aging, BathtubClassBoundaries) {
  AgingParams a;  // defaults: infancy ends 0.5y, wearout begins 4.0y
  a.age_years = 0.0;
  EXPECT_EQ(a.afr_class(0.0), AfrClass::infancy);
  EXPECT_EQ(a.afr_class(0.49), AfrClass::infancy);
  EXPECT_EQ(a.afr_class(0.5), AfrClass::useful_life);
  EXPECT_EQ(a.afr_class(3.99), AfrClass::useful_life);
  EXPECT_EQ(a.afr_class(4.0), AfrClass::wearout);
  EXPECT_EQ(a.afr(0.0), a.afr_infancy);
  EXPECT_EQ(a.afr(1.0), a.afr_useful);
  EXPECT_EQ(a.afr(5.0), a.afr_wearout);
  EXPECT_DOUBLE_EQ(a.years_to_next_class(0.1), 0.4);
  EXPECT_DOUBLE_EQ(a.years_to_next_class(1.0), 3.0);
  EXPECT_GT(a.years_to_next_class(5.0), 1e8);  // terminal segment
  // A disk that starts mid-life skips infancy entirely.
  a.age_years = 2.0;
  EXPECT_EQ(a.afr_class(0.0), AfrClass::useful_life);
  EXPECT_EQ(a.afr_class(2.0), AfrClass::wearout);
}

TEST(Aging, ProfileDeterministicPerSeedAndIndex) {
  const AgingParams a = aging_profile(42, 7, 2.0);
  const AgingParams b = aging_profile(42, 7, 2.0);
  EXPECT_EQ(a.age_years, b.age_years);
  EXPECT_EQ(a.infancy_years, b.infancy_years);
  EXPECT_EQ(a.wearout_years, b.wearout_years);
  EXPECT_EQ(a.afr_infancy, b.afr_infancy);
  EXPECT_EQ(a.afr_useful, b.afr_useful);
  EXPECT_EQ(a.afr_wearout, b.afr_wearout);
  // Different disks from the same seed are heterogeneous.
  const AgingParams c = aging_profile(42, 8, 2.0);
  EXPECT_NE(a.afr_useful, c.afr_useful);
  // Sanity: jitter keeps the curve well-formed and age non-negative.
  EXPECT_GE(a.age_years, 0.0);
  EXPECT_GT(a.wearout_years, a.infancy_years);
  EXPECT_GT(a.afr_infancy, 0.0);
  EXPECT_GT(a.afr_wearout, a.afr_useful);
  // A zero batch age never jitters negative (clamped).
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_GE(aging_profile(42, i, 0.0).age_years, 0.0) << i;
  }
}

struct CacheFixture {
  sim::Simulation sim;
  Disk disk;
  sim::BandwidthServer mem;
  PageCache cache;

  explicit CacheFixture(CacheParams cp, DiskParams dp = fast_disk())
      : disk(sim, dp), mem(sim, 1e12), cache(sim, disk, mem, cp) {}

  static DiskParams fast_disk() {
    DiskParams p;
    p.bytes_per_sec = 100e6;
    p.seek = sim::ms(10);
    p.per_op = 0;
    return p;
  }
};

TEST(PageCache, WriteMissThenReadHit) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 4096, PageCache::dense(0));  // new content: no pre-read
    co_await fx.cache.read(1, 0, 4096, PageCache::dense(4096));  // hit
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 0u);
  EXPECT_EQ(f.cache.stats().hits, 1u);
  EXPECT_EQ(f.disk.stats().reads, 0u);
}

TEST(PageCache, PartialWriteToUncachedPreexistingPagePrereads) {
  // The §5.2 behaviour: sub-page write + old content on disk + cold cache
  // => read-modify-write.
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 8192, PageCache::dense(0));  // create two pages
    co_await fx.cache.flush_all();
    fx.cache.drop_all();                     // cold cache
    co_await fx.cache.write(1, 100, 200, PageCache::dense(8192));  // partial, preexisting
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 1u);
  EXPECT_EQ(f.disk.stats().reads, 1u);
}

TEST(PageCache, FullPageWriteNeverPrereads) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 4096, PageCache::dense(0));
    co_await fx.cache.flush_all();
    fx.cache.drop_all();
    co_await fx.cache.write(1, 0, 4096, PageCache::dense(4096));  // full overwrite
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 0u);
}

TEST(PageCache, PadPartialSuppressesPreread) {
  // §6.5 padding experiment: treating partial writes as full blocks removes
  // the pre-read.
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 8192, PageCache::dense(0));
    co_await fx.cache.flush_all();
    fx.cache.drop_all();
    co_await fx.cache.write(1, 100, 200, PageCache::dense(8192), /*pad_partial=*/true);
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 0u);
}

TEST(PageCache, HoleWritesNeedNoPreread) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    // Partial write far beyond existing content: page is a hole.
    co_await fx.cache.write(1, 1 << 20, 100, PageCache::dense(4096));
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().prereads, 0u);
}

TEST(PageCache, EvictionWritesDirtyPages) {
  CacheParams cp;
  cp.capacity_bytes = 16 * 4096;  // 16 pages
  cp.page_size = 4096;
  cp.evict_batch = 4;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 64 * 4096, PageCache::dense(0));  // 4x capacity
  }(f));
  f.sim.run();
  EXPECT_GT(f.cache.stats().dirty_evictions, 0u);
  EXPECT_GT(f.disk.stats().bytes_written, 0u);
  EXPECT_LE(f.cache.resident_bytes(), 16u * 4096);
}

TEST(PageCache, CacheAbsorbsUntilFullThenDiskBound) {
  // Below capacity the disk is untouched (write-behind absorbs); beyond it
  // the writer stalls on evictions — the Class C effect.
  CacheParams cp;
  cp.capacity_bytes = 256 * 4096;
  cp.page_size = 4096;
  CacheFixture small(cp);
  small.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 128 * 4096, PageCache::dense(0));  // half capacity
  }(small));
  small.sim.run();
  EXPECT_EQ(small.disk.stats().writes, 0u);
  const sim::Time t_small = small.sim.now();

  CacheFixture big(cp);
  big.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 1024 * 4096, PageCache::dense(0));  // 4x capacity
  }(big));
  big.sim.run();
  EXPECT_GT(big.disk.stats().writes, 0u);
  // 8x the data but much more than 8x the time (disk-bound region).
  EXPECT_GT(big.sim.now(), 8 * t_small);
}

TEST(PageCache, FlushAllCleansEverything) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 32 * 4096, PageCache::dense(0));
    co_await fx.cache.flush_all();
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.dirty_pages(), 0u);
  EXPECT_EQ(f.disk.stats().bytes_written, 32u * 4096);
  // Sequential flush: one coalesced write.
  EXPECT_EQ(f.disk.stats().writes, 1u);
}

TEST(PageCache, ReadMissBatchesContiguousRuns) {
  CacheParams cp;
  cp.capacity_bytes = 1 << 22;
  cp.page_size = 4096;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, 64 * 4096, PageCache::dense(0));
    co_await fx.cache.flush_all();
    fx.cache.drop_all();
    co_await fx.cache.read(1, 0, 64 * 4096, PageCache::dense(64 * 4096));
  }(f));
  f.sim.run();
  EXPECT_EQ(f.disk.stats().reads, 1u);  // one coalesced disk read
  // 64 write-path insertions + 64 read-path misses after the drop.
  EXPECT_EQ(f.cache.stats().misses, 128u);
}

using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// A scripted mix of hits, misses, pre-reads, hole reads, clean and dirty
// evictions and a drop_all followed by reuse, on two files. Every expected
// value is worked out by hand in the comments from the LRU order.
TEST(PageCache, ScriptedSequenceMatchesHandComputedState) {
  constexpr std::uint64_t kPg = 4096;
  CacheParams cp;
  cp.capacity_bytes = 8 * kPg;  // 8 pages; reclaim goes down to 6
  cp.page_size = kPg;
  cp.evict_batch = 2;
  CacheFixture f(cp);
  struct Seen {
    std::uint64_t resident = 0, dirty = 0;
    Ranges dirty1, dirty2;
  };
  Seen mid;
  f.sim.spawn([](CacheFixture& fx, Seen& s) -> sim::Task<void> {
    PageCache& c = fx.cache;
    // f1 p0..p3 new: 4 misses. LRU (old -> new): f1p0 f1p1 f1p2 f1p3.
    co_await c.write(1, 0, 4 * kPg, PageCache::dense(0));
    // 2 hits. LRU: f1p2 f1p3 f1p0 f1p1.
    co_await c.read(1, 0, 2 * kPg, PageCache::dense(4 * kPg));
    // One coalesced disk write of 4 pages; nothing dirty.
    co_await c.flush_all();
    // f2 p0..p5 new: 6 misses. Inserting f2p4 makes 9 resident: reclaim to
    // 6 evicts f1p2, f1p3, f1p0 (3 clean). Then f2p5: 7 resident.
    // LRU: f1p1 f2p0..f2p5.
    co_await c.write(2, 0, 6 * kPg, PageCache::dense(0));
    // Sub-page write to evicted f1p0 with content on disk: 1 pre-read.
    // 8 resident. LRU: f1p1 f2p0..f2p5 f1p0.
    co_await c.write(1, 100, 200, PageCache::dense(4 * kPg));
    // f1p1 resident: hit, now dirty. LRU: f2p0..f2p5 f1p0 f1p1.
    co_await c.write(1, kPg + 10, 20, PageCache::dense(4 * kPg));
    // f1p2, f1p3 miss as one run (1 disk read). 10 resident: reclaim to 6
    // evicts f2p0..f2p3 (4 dirty, one coalesced disk write).
    // LRU: f2p4 f2p5 f1p0 f1p1 f1p2 f1p3.
    co_await c.read(1, 2 * kPg, 2 * kPg, PageCache::dense(4 * kPg));
    // f1p0..f1p3 hit (4); f1p4 is a hole and counts as neither.
    co_await c.read(1, 0, 5 * kPg, PageCache::dense(4 * kPg));
    s.resident = c.resident_bytes();
    s.dirty = c.dirty_pages();
    s.dirty1 = c.dirty_ranges(1);
    s.dirty2 = c.dirty_ranges(2);
    c.drop_all();
    // Reuse after the drop: f2p1 misses; then f2p0 misses (1 disk read
    // run) and f2p1 hits.
    co_await c.write(2, kPg, kPg, PageCache::dense(0));
    co_await c.read(2, 0, 2 * kPg, PageCache::dense(2 * kPg));
  }(f, mid));
  f.sim.run();

  EXPECT_EQ(mid.resident, 6 * kPg);
  EXPECT_EQ(mid.dirty, 4u);  // f2p4 f2p5 f1p0 f1p1
  EXPECT_EQ(mid.dirty1, (Ranges{{0, 2 * kPg}}));
  EXPECT_EQ(mid.dirty2, (Ranges{{4 * kPg, 6 * kPg}}));

  const PageCache::Stats& st = f.cache.stats();
  EXPECT_EQ(st.hits, 8u);
  EXPECT_EQ(st.misses, 14u);
  EXPECT_EQ(st.miss_runs, 2u);
  EXPECT_EQ(st.prereads, 1u);
  EXPECT_EQ(st.dirty_evictions, 4u);
  EXPECT_EQ(st.clean_evictions, 3u);
  EXPECT_EQ(f.cache.resident_bytes(), 2 * kPg);
  EXPECT_EQ(f.cache.dirty_pages(), 1u);
  EXPECT_EQ(f.cache.dirty_ranges(1), Ranges{});
  EXPECT_EQ(f.cache.dirty_ranges(2), (Ranges{{kPg, 2 * kPg}}));
  EXPECT_EQ(f.disk.stats().reads, 3u);   // pre-read, f1 run, f2p0 run
  EXPECT_EQ(f.disk.stats().writes, 2u);  // flush_all, f2p0..f2p3 eviction
}

TEST(PageCache, PageFarBeyondTableEnd) {
  constexpr std::uint64_t kPg = 4096;
  constexpr std::uint64_t kFar = 1ULL << 20;  // page index: 4 GiB offset
  CacheParams cp;
  cp.capacity_bytes = 1 << 20;
  cp.page_size = kPg;
  CacheFixture f(cp);
  f.sim.spawn([](CacheFixture& fx) -> sim::Task<void> {
    co_await fx.cache.write(1, 0, kPg, PageCache::dense(0));
    co_await fx.cache.write(1, kFar * kPg, kPg, PageCache::dense(0));
    co_await fx.cache.read(1, kFar * kPg, kPg,
                           PageCache::dense((kFar + 1) * kPg));
    co_await fx.cache.read(1, 0, kPg, PageCache::dense((kFar + 1) * kPg));
  }(f));
  f.sim.run();
  EXPECT_EQ(f.cache.stats().misses, 2u);
  EXPECT_EQ(f.cache.stats().hits, 2u);
  EXPECT_EQ(f.cache.resident_bytes(), 2 * kPg);
  EXPECT_EQ(f.cache.dirty_ranges(1),
            (Ranges{{0, kPg}, {kFar * kPg, (kFar + 1) * kPg}}));
  EXPECT_EQ(f.disk.stats().reads, 0u);
}

// LocalFs never tells the cache that a file was removed and never reuses its
// fid: the orphaned pages stay resident (and dirty) until the LRU evicts
// them, and the successor file's pages never alias them.
TEST(PageCache, RemovedFidPagesAgeOutWithoutAliasing) {
  constexpr std::uint64_t kPg = 4096;
  CacheParams cp;
  cp.capacity_bytes = 4 * kPg;
  cp.page_size = kPg;
  cp.evict_batch = 1;
  CacheFixture f(cp);
  std::uint64_t hits_after_successor = 0;
  f.sim.spawn([](CacheFixture& fx, std::uint64_t& hits) -> sim::Task<void> {
    co_await fx.cache.write(3, 0, 2 * kPg, PageCache::dense(0));  // "removed"
    co_await fx.cache.write(4, 0, 2 * kPg, PageCache::dense(0));  // successor
    hits = fx.cache.stats().hits;
    // Two more successor pages: inserting f4p2 makes 5 resident, and
    // reclaim to 3 evicts the orphaned f3p0 and f3p1 (dirty, oldest first).
    co_await fx.cache.write(4, 2 * kPg, 2 * kPg, PageCache::dense(0));
  }(f, hits_after_successor));
  f.sim.run();
  EXPECT_EQ(hits_after_successor, 0u);
  EXPECT_EQ(f.cache.stats().misses, 6u);
  EXPECT_EQ(f.cache.stats().dirty_evictions, 2u);
  EXPECT_EQ(f.cache.dirty_ranges(3), Ranges{});
  EXPECT_EQ(f.cache.dirty_ranges(4), (Ranges{{0, 4 * kPg}}));
  EXPECT_EQ(f.cache.resident_bytes(), 4 * kPg);
  EXPECT_EQ(f.disk.stats().writes, 1u);  // f3p0 + f3p1, coalesced
}

TEST(Node, ServerHasDiskAndCacheClientDoesNot) {
  sim::Simulation sim;
  Cluster cluster(sim, profile_experimental2003());
  const NodeId s = cluster.add_server();
  const NodeId c = cluster.add_client();
  EXPECT_NE(cluster.node(s).disk(), nullptr);
  EXPECT_NE(cluster.node(s).cache(), nullptr);
  EXPECT_EQ(cluster.node(c).disk(), nullptr);
  EXPECT_EQ(cluster.node(c).cache(), nullptr);
}

TEST(Profiles, SaneParameters) {
  const auto exp = profile_experimental2003();
  EXPECT_GT(exp.server.link_bytes_per_sec, 100e6);
  EXPECT_TRUE(exp.server.disk.has_value());
  EXPECT_GT(exp.server.cache->capacity_bytes, 100ull << 20);
  const auto osc = profile_osc2003();
  EXPECT_LT(osc.server.disk->bytes_per_sec, exp.server.disk->bytes_per_sec);
  EXPECT_GT(osc.server.cache->capacity_bytes,
            exp.server.cache->capacity_bytes);
}

}  // namespace
}  // namespace csar::hw
