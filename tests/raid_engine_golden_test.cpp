// Behaviour pin for the group-code engine: every parity/rs operation —
// full-stripe, read-modify-write and straddling writes, degraded reads,
// degraded writes, wipe + rebuild of a data victim and of a coding holder,
// build_redundancy migrations and the scrub's verify and repair passes —
// run on a 9-server materialized rig, with
// committed integer outputs: the completion time of every operation (ns),
// the events executed, an FNV-1a hash of every server's data, redundancy
// and overflow bytes, and one of the lock and erasure-coding counters
// (per-server lock acquisitions and releases, EcStats). No floats are
// hashed, so Release, Debug and sanitizer builds must all agree. A change
// to any of these values is a change to the simulated system and must be
// intended.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hw/disk.hpp"
#include "hw/page_cache.hpp"
#include "pvfs/io_server.hpp"
#include "raid/recovery.hpp"
#include "raid/rig.hpp"
#include "raid/scrub.hpp"
#include "test_util.hpp"

namespace csar::raid {
namespace {

using csar::test::RefFile;
using csar::test::run_sim_void;

constexpr std::uint32_t kSu = 4096;
constexpr std::uint32_t kServers = 9;

struct Golden {
  std::vector<std::uint64_t> ns;  ///< completion time of each operation
  std::uint64_t events = 0;       ///< events executed by the scenario
  std::uint64_t hash = 0;         ///< FNV-1a over every server's files
  std::uint64_t counters = 0;     ///< FNV-1a over lock and EcStats counters
};

std::string show(const Golden& g) {
  std::string s = "{{";
  for (std::size_t i = 0; i < g.ns.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(g.ns[i]) + "u";
  }
  char tail[96];
  std::snprintf(tail, sizeof tail, "}, %lluu, 0x%016llxu, 0x%016llxu}",
                static_cast<unsigned long long>(g.events),
                static_cast<unsigned long long>(g.hash),
                static_cast<unsigned long long>(g.counters));
  return s + tail;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

/// FNV-1a over (server, file kind, size, bytes) of every data, redundancy
/// (generations 0..2) and overflow file of handle `h`.
sim::Task<std::uint64_t> hash_servers(Rig& r, std::uint64_t h) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
    auto& fs = r.server(s).fs();
    const std::string names[] = {
        pvfs::IoServer::data_name(h), pvfs::IoServer::red_name(h, 0),
        pvfs::IoServer::red_name(h, 1), pvfs::IoServer::red_name(h, 2),
        pvfs::IoServer::ovfl_name(h)};
    for (std::uint64_t kind = 0; kind < 5; ++kind) {
      const std::uint64_t size = fs.size(names[kind]);
      fnv(hash, s);
      fnv(hash, kind);
      fnv(hash, size);
      if (size == 0) continue;
      Buffer b = co_await fs.peek(names[kind], 0, size);
      EXPECT_TRUE(b.materialized());
      for (const std::byte c : b.bytes()) {
        hash ^= static_cast<std::uint64_t>(c);
        hash *= 0x100000001b3ULL;
      }
    }
  }
  co_return hash;
}

/// FNV-1a over every server's lock acquisitions and explicit releases and
/// the policy's erasure-coding statistics.
std::uint64_t hash_counters(Rig& r) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
    fnv(hash, r.server(s).lock_stats().acquisitions);
    fnv(hash, r.server(s).lock_stats().explicit_releases);
  }
  const EcStats& ec = r.policy().ec_stats();
  for (const std::uint64_t v : {ec.degraded_reads, ec.fragments_fetched,
                                ec.decode_bytes, ec.encode_bytes,
                                ec.rebuild_decodes}) {
    fnv(hash, v);
  }
  return hash;
}

/// The server holding group 0's first coding fragment under `sch`.
std::uint32_t coding_holder(const pvfs::StripeLayout& lay, Scheme sch) {
  return group_code(sch, lay)->coding_server(0, 0);
}

Golden run_scheme(Scheme sch) {
  RigParams p;
  p.scheme = sch;
  p.nservers = kServers;
  Rig rig(p);
  Golden out;
  std::uint64_t handle = 0;
  run_sim_void(rig, [](Rig& r, Scheme sch, Golden* out,
                       std::uint64_t* handle) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("g", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    *handle = f->handle;
    const bool rs = sch.kind == SchemeKind::rs;
    const std::uint64_t w = std::uint64_t{sch.code(f->layout).k} * kSu;
    RefFile ref;
    Rng rng(0x60D3A7ULL);
    auto stamp = [&] { out->ns.push_back(r.sim.now()); };

    // Healthy writes: full stripes, an RMW inside one unit, one straddling
    // a full group with partial head and tail, an RMW across two units.
    const std::uint64_t wr_off[] = {0, w + 100, 2 * w - 3000, 5 * kSu - 700};
    const std::uint64_t wr_len[] = {3 * w, 1500, w + 6000, 1400};
    for (int i = 0; i < 4; ++i) {
      Buffer data = Buffer::pattern(wr_len[i], rng.next());
      ref.write(wr_off[i], data);
      auto wr = co_await fs.write(*f, wr_off[i], std::move(data));
      CO_ASSERT_TRUE(wr.ok());
      stamp();
    }

    Recovery rec = r.recovery();
    const std::uint32_t victim = 2;
    const std::uint32_t second = 5;
    r.server(victim).fail();
    {
      auto rd = co_await rec.degraded_read(*f, 0, ref.size(), victim);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, ref.expect(0, ref.size()));
      stamp();
    }
    // Degraded writes with one server down: a partial write over the lost
    // unit, a full group, and a partial write on surviving units.
    const std::uint64_t dw_off[] = {victim * kSu + 300, w, 7 * kSu + 50};
    const std::uint64_t dw_len[] = {900, w, 2000};
    for (int i = 0; i < 3; ++i) {
      Buffer data = Buffer::pattern(dw_len[i], rng.next());
      ref.write(dw_off[i], data);
      auto wr = co_await rec.degraded_write(*f, dw_off[i], std::move(data),
                                            victim);
      CO_ASSERT_TRUE(wr.ok());
      stamp();
    }
    if (rs) {
      // Two concurrent failures: rs decodes and re-encodes around both.
      r.server(second).fail();
      std::vector<std::uint32_t> down{victim, second};
      auto rd = co_await rec.degraded_read(*f, 0, ref.size(), down);
      CO_ASSERT_TRUE(rd.ok());
      EXPECT_EQ(*rd, ref.expect(0, ref.size()));
      stamp();
      const std::uint64_t off2[] = {second * kSu + 10, 0, w + 2 * kSu};
      const std::uint64_t len2[] = {3000, 2 * w, kSu + 7};
      for (int i = 0; i < 3; ++i) {
        Buffer data = Buffer::pattern(len2[i], rng.next());
        ref.write(off2[i], data);
        auto wr =
            co_await rec.degraded_write(*f, off2[i], std::move(data), down);
        CO_ASSERT_TRUE(wr.ok());
        stamp();
      }
    }

    // Wipe + rebuild the data victim (rs: while `second` is still out).
    r.server(victim).wipe();
    r.server(victim).recover();
    {
      RebuildOptions opt;
      if (rs) opt.also_down.push_back(second);
      auto rb = co_await rec.rebuild_server(*f, victim, ref.size(), opt);
      CO_ASSERT_TRUE(rb.ok());
      stamp();
    }
    if (rs) {
      r.server(second).wipe();
      r.server(second).recover();
      auto rb = co_await rec.rebuild_server(*f, second, ref.size());
      CO_ASSERT_TRUE(rb.ok());
      stamp();
    }

    // Wipe + rebuild the holder of group 0's (first) coding fragment; rs
    // decodes around one more concurrent outage.
    const std::uint32_t holder = coding_holder(f->layout, sch);
    const std::uint32_t other = (holder + 3) % kServers;
    r.server(holder).fail();
    r.server(holder).wipe();
    r.server(holder).recover();
    {
      RebuildOptions opt;
      if (rs) {
        r.server(other).fail();
        opt.also_down.push_back(other);
      }
      auto rb = co_await rec.rebuild_server(*f, holder, ref.size(), opt);
      CO_ASSERT_TRUE(rb.ok());
      if (rs) r.server(other).recover();
      stamp();
    }

    auto rd = co_await fs.read(*f, 0, ref.size());
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, ref.size()));
    stamp();
    out->events = r.sim.events_executed();
    out->counters = hash_counters(r);
  }(rig, sch, &out, &handle));
  run_sim_void(rig, [](Rig& r, std::uint64_t h, Golden* o) -> sim::Task<void> {
    o->hash = co_await hash_servers(r, h);
  }(rig, handle, &out));
  return out;
}

/// Hybrid file with overflow entries, then base redundancy built for RAID5
/// (generation 1) and for rs(4,2) (generation 2).
Golden run_migrations() {
  RigParams p;
  p.scheme = Scheme::hybrid;
  p.nservers = kServers;
  Rig rig(p);
  Golden out;
  std::uint64_t handle = 0;
  run_sim_void(rig, [](Rig& r, Golden* out,
                       std::uint64_t* handle) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("m", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    *handle = f->handle;
    const std::uint64_t w = f->layout.stripe_width();
    Rng rng(0x3161A7EULL);
    const std::uint64_t offs[] = {0, w + 100, 3 * w - 5000, 40 * kSu + 11};
    const std::uint64_t lens[] = {2 * w, 3000, w + 9000, 2 * kSu};
    std::uint64_t size = 0;
    for (int i = 0; i < 4; ++i) {
      auto wr = co_await fs.write(*f, offs[i],
                                  Buffer::pattern(lens[i], rng.next()));
      CO_ASSERT_TRUE(wr.ok());
      size = std::max(size, offs[i] + lens[i]);
      out->ns.push_back(r.sim.now());
    }
    Recovery rec = r.recovery();
    auto b1 = co_await rec.build_redundancy(*f, Scheme::raid5, 1, size);
    CO_ASSERT_TRUE(b1.ok());
    out->ns.push_back(r.sim.now());
    auto b2 = co_await rec.build_redundancy(*f, Scheme::rs(4, 2), 2, size);
    CO_ASSERT_TRUE(b2.ok());
    out->ns.push_back(r.sim.now());
    out->events = r.sim.events_executed();
    out->counters = hash_counters(r);
  }(rig, &out, &handle));
  run_sim_void(rig, [](Rig& r, std::uint64_t h, Golden* o) -> sim::Task<void> {
    o->hash = co_await hash_servers(r, h);
  }(rig, handle, &out));
  return out;
}

/// Fold every field of a scrub report into `h`.
void fnv_report(std::uint64_t& h, const Scrubber::Report& rep) {
  for (const std::uint64_t v :
       {rep.groups_checked, rep.parity_mismatches, rep.mirror_units_checked,
        rep.mirror_mismatches, rep.overflow_pairs_checked,
        rep.overflow_mismatches, rep.media_errors, rep.unrepairable,
        rep.repaired}) {
    fnv(h, v);
  }
}

/// The scrub of a written file: verify while clean; repair after latent
/// sector errors on one data and one coding fragment (for m = 1 in groups 0
/// and 1, for m >= 2 both in group 0); repair after coding row m-1 of group
/// 2 is overwritten with wrong bytes; a final verify. `counters` folds the
/// four reports into the lock and EcStats hash.
Golden run_scrub(Scheme sch) {
  RigParams p;
  p.scheme = sch;
  p.nservers = kServers;
  Rig rig(p);
  Golden out;
  std::uint64_t handle = 0;
  run_sim_void(rig, [](Rig& r, Scheme sch, Golden* out,
                       std::uint64_t* handle) -> sim::Task<void> {
    auto& fs = r.client_fs();
    auto f = co_await fs.create("s", r.layout(kSu));
    CO_ASSERT_TRUE(f.ok());
    *handle = f->handle;
    const GroupCode gc = *group_code(sch, f->layout);
    const std::uint64_t w = gc.width();
    const std::uint64_t size = 3 * w;
    RefFile ref;
    Rng rng(0x5C20BULL);
    // Full stripes, then a partial write (an RMW, or Hybrid overflow).
    const std::uint64_t offs[] = {0, w + 100};
    const std::uint64_t lens[] = {size, 1500};
    for (int i = 0; i < 2; ++i) {
      Buffer data = Buffer::pattern(lens[i], rng.next());
      ref.write(offs[i], data);
      auto wr = co_await fs.write(*f, offs[i], std::move(data));
      CO_ASSERT_TRUE(wr.ok());
    }
    out->ns.push_back(r.sim.now());
    std::uint64_t reports = 0xcbf29ce484222325ULL;
    Scrubber scrub(r.client(), &r.policy());

    auto clean = co_await scrub.verify(*f, size);
    CO_ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(clean->clean());
    EXPECT_EQ(clean->groups_checked, 3u);
    fnv_report(reports, *clean);
    out->ns.push_back(r.sim.now());

    // Latent sector errors under data fragment 1 of group 0 and coding
    // fragment 0 of group 0 (m >= 2) or group 1 (m = 1). Flush and drop the
    // caches so the scrub's reads reach the planted sectors.
    for (std::uint32_t s = 0; s < r.p.nservers; ++s) {
      co_await r.server(s).fs().flush();
    }
    r.drop_all_caches();
    auto plant = [&r](std::uint32_t server, const std::string& name,
                      std::uint64_t off) {
      auto& srv = r.server(server);
      const std::uint64_t fid = srv.fs().fid_of(name);
      ASSERT_NE(fid, 0u);
      hw::Disk* disk = r.cluster.node(srv.node_id()).disk();
      disk->plant_media_error(hw::PageCache::page_addr(fid, 0, 1) + off, kSu);
    };
    const std::uint64_t cg = gc.m() == 1 ? 1 : 0;
    plant(gc.fragment_server(0, 1), pvfs::IoServer::data_name(f->handle),
          f->layout.local_unit(1) * kSu);
    plant(gc.fragment_server(cg, gc.k()), pvfs::IoServer::red_name(f->handle),
          gc.coding_off(cg, 0));
    auto media = co_await scrub.repair(*f, size);
    CO_ASSERT_TRUE(media.ok());
    EXPECT_EQ(media->media_errors, 2u);
    EXPECT_EQ(media->repaired, 2u);
    EXPECT_EQ(media->unrepairable, 0u);
    fnv_report(reports, *media);
    out->ns.push_back(r.sim.now());

    // Wrong bytes in coding row m-1 of group 2.
    const std::uint32_t row = gc.m() - 1;
    co_await r.server(gc.fragment_server(2, gc.k() + row))
        .fs()
        .write(pvfs::IoServer::red_name(f->handle), gc.coding_off(2, row),
               Buffer::pattern(kSu, 999));
    auto bad = co_await scrub.repair(*f, size);
    CO_ASSERT_TRUE(bad.ok());
    EXPECT_EQ(bad->parity_mismatches, 1u);
    EXPECT_EQ(bad->repaired, 1u);
    fnv_report(reports, *bad);
    out->ns.push_back(r.sim.now());

    auto again = co_await scrub.verify(*f, size);
    CO_ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->clean());
    fnv_report(reports, *again);
    auto rd = co_await fs.read(*f, 0, size);
    CO_ASSERT_TRUE(rd.ok());
    EXPECT_EQ(*rd, ref.expect(0, size));
    out->ns.push_back(r.sim.now());
    out->events = r.sim.events_executed();
    out->counters = hash_counters(r);
    fnv(out->counters, reports);
  }(rig, sch, &out, &handle));
  run_sim_void(rig, [](Rig& r, std::uint64_t h, Golden* o) -> sim::Task<void> {
    o->hash = co_await hash_servers(r, h);
  }(rig, handle, &out));
  return out;
}

void expect_golden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.ns, want.ns) << "got " << show(got);
  EXPECT_EQ(got.events, want.events) << "got " << show(got);
  EXPECT_EQ(got.hash, want.hash) << "got " << show(got);
  EXPECT_EQ(got.counters, want.counters) << "got " << show(got);
}

// The classic rows were computed from the code before RAID4/RAID5 and
// rs(k,m) shared one engine, and hold for the shared engine unchanged. The
// rs rows and Migrations (which migrates into rs) were regenerated when rs
// took the classic dense coding slots (the stored bytes move and rs(4,2)
// runs two fewer events), and the rs(4,2) rows again when its full-group
// coding writes merged per server (fewer coding RPCs: two fewer events and
// the first write lands ~10 us sooner).
TEST(EngineGolden, Raid4) {
  expect_golden(run_scheme(Scheme::raid4),
                Golden{{11202636u, 11948587u, 13785802u, 14588789u, 17644899u,
                        18705662u, 19640622u, 21021572u, 23393972u, 26052788u,
                        27989618u},
                       2104u, 0xccb64b669775fad0u, 0x6b8826be8c51b9c3u});
}
TEST(EngineGolden, Raid5) {
  expect_golden(run_scheme(Scheme::raid5),
                Golden{{10992876u, 11738827u, 13575217u, 14378204u, 17434314u,
                        18495077u, 19430037u, 20810987u, 23183387u, 26379003u,
                        28260073u},
                       2085u, 0x3d7663c012367031u, 0xa529b27f72696f45u});
}
TEST(EngineGolden, Raid5NoLock) {
  expect_golden(run_scheme(Scheme::raid5_nolock),
                Golden{{10992876u, 11738827u, 13575217u, 14378204u, 17434314u,
                        18495077u, 19430037u, 20810987u, 23183387u, 26379003u,
                        28260073u},
                       2085u, 0x3d7663c012367031u, 0xa098b2259cac6f85u});
}
TEST(EngineGolden, Raid5Npc) {
  expect_golden(run_scheme(Scheme::raid5_npc),
                Golden{{10931436u, 11675511u, 13487671u, 14289783u, 17345893u,
                        18406656u, 19341616u, 20722566u, 23094966u, 26290582u,
                        28171652u},
                       2076u, 0x3d7663c012367031u, 0xa529b27f72696f45u});
}
TEST(EngineGolden, Hybrid) {
  expect_golden(run_scheme(Scheme::hybrid),
                Golden{{10992876u, 11385001u, 12641631u, 13075423u, 16234570u,
                        16543020u, 17477980u, 17909480u, 22442816u, 27897635u,
                        29785372u},
                       1888u, 0x270194b9caddb60cu, 0xa098b2259cac6f85u});
}
TEST(EngineGolden, Rs4_2) {
  expect_golden(run_scheme(Scheme::rs(4, 2)),
                Golden{{10522316u, 11544191u, 13612231u, 14811949u, 16349899u,
                        17564049u, 18386209u, 19967009u, 21648959u, 23210659u,
                        24202019u, 26202211u, 27666771u, 29929187u, 32360803u,
                        33570913u},
                       2084u, 0x6b84b17dabd4bb83u, 0x79bf1d90b8e874dbu});
}
TEST(EngineGolden, Rs6_3) {
  expect_golden(run_scheme(Scheme::rs(6, 3)),
                Golden{{10926476u, 12267914u, 15503204u, 17099653u, 19212163u,
                        20801626u, 21736586u, 23697936u, 26358542u, 28338667u,
                        29612027u, 31732699u, 34501547u, 37347899u, 40455147u,
                        41997817u},
                       3235u, 0xfe8acffde3119a93u, 0x4a78d9e8669ad8e6u});
}
TEST(EngineGolden, Migrations) {
  expect_golden(run_migrations(),
                Golden{{10623996u, 11134246u, 12591985u, 13392514u, 16984530u,
                        20627490u},
                       1826u, 0x28096177b91785f6u, 0x8bfe44ae3c846848u});
}

// The scrub rows were computed when RAID4/RAID5/Hybrid and rs(k,m) still
// had separate scrub bodies, and hold for the one group-code scrub. The rs
// scrub rows were regenerated with the dense coding slots and the merged
// full-group coding writes.
TEST(EngineGolden, ScrubRaid4) {
  expect_golden(run_scrub(Scheme::raid4),
                Golden{{11948587u, 14991787u, 120868146u, 124862569u,
                        129793049u},
                       1806u, 0xa986d5fd3075c2edu, 0xd07140b31a723d76u});
}
TEST(EngineGolden, ScrubRaid5) {
  expect_golden(run_scrub(Scheme::raid5),
                Golden{{11738827u, 14782027u, 164987986u, 177920809u,
                        182795529u},
                       1835u, 0x221f831f6cf5498du, 0x926364284fb01636u});
}
TEST(EngineGolden, ScrubRaid5NoLock) {
  expect_golden(run_scrub(Scheme::raid5_nolock),
                Golden{{11738827u, 14782027u, 164987986u, 177920809u,
                        182795529u},
                       1835u, 0x221f831f6cf5498du, 0xf4a3848baa119943u});
}
TEST(EngineGolden, ScrubRaid5Npc) {
  expect_golden(run_scrub(Scheme::raid5_npc),
                Golden{{11675511u, 14718711u, 164924670u, 177857493u,
                        182732213u},
                       1832u, 0x221f831f6cf5498du, 0x926364284fb01636u});
}
TEST(EngineGolden, ScrubHybrid) {
  expect_golden(run_scrub(Scheme::hybrid),
                Golden{{11385001u, 23464733u, 219141280u, 241110635u,
                        255021887u},
                       2223u, 0xafa79767448476ddu, 0x9e899fbf73731b0eu});
}
TEST(EngineGolden, ScrubRs4_2) {
  expect_golden(run_scrub(Scheme::rs(4, 2)),
                Golden{{11544191u, 13854959u, 181486255u, 184670532u,
                        188141860u},
                       1447u, 0xd0e04f4b6c0d9d37u, 0xe4e7ea8111b4002bu});
}
TEST(EngineGolden, ScrubRs6_3) {
  expect_golden(run_scrub(Scheme::rs(6, 3)),
                Golden{{12267914u, 15355562u, 220308449u, 233162520u,
                        237743288u},
                       1960u, 0xf3d7ffe7e352652au, 0xf2ceca01ecc998f2u});
}

}  // namespace
}  // namespace csar::raid
