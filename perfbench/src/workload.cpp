#include "workload.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/buffer.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "raid/health.hpp"
#include "raid/rebuild.hpp"
#include "raid/rig.hpp"
#include "sim/slab.hpp"
#include "sim/sync.hpp"

namespace perfbench {

using namespace csar;
using raid::Scheme;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<Spec> make_specs() {
  std::vector<Spec> v;
  {
    // Many tenants issuing 16 KiB requests at stripe-unit-aligned offsets of
    // Hybrid files: every write is a partial stripe, so it takes the
    // mirrored-overflow path and never touches parity. The 256 MiB working
    // set stays resident in the 768 MiB server page cache.
    Spec s;
    s.name = "small_hybrid";
    s.nservers = 8;
    s.nclients = 16;
    s.ntenants = 256;
    s.stripe_unit = 64 * KiB;
    s.groups = {{"h/", Scheme::hybrid, 64, 4 * MiB}};
    s.rate_rps = 12000;
    s.window_s = 4.0;
    s.max_outstanding = 8;
    s.read_frac = 0.3;
    s.small_bytes = 16 * KiB;
    s.full_frac = 0;
    s.zipf = 0;
    s.materialize = false;
    s.cache_bytes = 768 * MiB;
    s.p99_limit_ms = 10;
    v.push_back(s);
  }
  {
    // The read-modify-write path the paper measures: parity files under a
    // Zipf skew, half the writes sub-stripe (RMW + parity lock), half whole
    // groups (fresh parity). Materialized payloads, so the XOR/GF kernels do
    // real work and every read is checked against the shadow copy.
    Spec s;
    s.name = "parity_rmw";
    s.nservers = 6;
    s.nclients = 8;
    s.ntenants = 64;
    s.stripe_unit = 16 * KiB;
    s.groups = {{"r5/", Scheme::raid5, 8, 640 * KiB},
                {"r4/", Scheme::raid4, 8, 640 * KiB},
                {"rs/", Scheme::rs(4, 2), 8, 640 * KiB}};
    s.rate_rps = 5000;
    s.window_s = 4.0;
    s.max_outstanding = 8;
    s.read_frac = 0.5;
    s.small_bytes = 16 * KiB;
    s.small_min_bytes = 2 * KiB;
    s.full_frac = 0.5;
    s.zipf = 1.2;
    s.materialize = true;
    s.cache_bytes = 768 * MiB;
    s.p99_limit_ms = 15;
    v.push_back(s);
  }
  {
    // Online rebuild of a wiped server under foreground load. The files
    // outgrow the (shrunken) server page cache, so rebuild reads, degraded
    // reads and writes reach the disk model.
    Spec s;
    s.name = "rebuild_wipe";
    s.nservers = 6;
    s.nclients = 4;
    s.ntenants = 32;
    s.stripe_unit = 64 * KiB;
    s.groups = {{"r5/", Scheme::raid5, 4, 4 * MiB},
                {"rs/", Scheme::rs(4, 2), 4, 4 * MiB},
                {"r1/", Scheme::raid1, 4, 4 * MiB},
                {"hy/", Scheme::hybrid, 4, 4 * MiB}};
    s.rate_rps = 60;
    s.window_s = 0;
    s.max_outstanding = 8;
    s.read_frac = 0.5;
    s.small_bytes = 64 * KiB;
    s.small_min_bytes = 4 * KiB;
    s.full_frac = 0.1;
    s.zipf = 0;
    s.materialize = true;
    s.cache_bytes = 4 * MiB;
    s.p99_limit_ms = 500;
    s.rebuild = RebuildPlan{10.0, 0.2, 1, 4e6};
    v.push_back(s);
  }
  return v;
}

/// FNV-1a fold, one 64-bit word at a time.
void fold(std::uint64_t& h, std::uint64_t v) {
  if (h == 0) h = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

struct FileState {
  pvfs::OpenFile f;
  std::uint64_t size = 0;
  std::uint32_t group_units = 1;  ///< stripe units per parity group
  std::vector<std::uint8_t> busy;  ///< per stripe unit: request in flight
  std::vector<std::byte> shadow;   ///< expected content (materialized only)
  IntervalSet unknown;             ///< ranges a failed write left undefined
  std::uint64_t version = 0;
  std::uint32_t id = 0;
};

struct Op {
  std::uint64_t seq = 0;
  std::uint32_t file = 0;
  std::uint32_t client = 0;
  std::uint64_t off = 0;
  std::uint64_t len = 0;
  bool read = false;
  sim::Time due = 0;
};

Counters snapshot(raid::Rig& rig) {
  Counters c;
  c.events = rig.sim.events_executed();
  for (auto& s : rig.servers) {
    c.lock_acqs += s->lock_stats().acquisitions;
    c.lock_waits += s->lock_stats().waits;
    c.batches += s->batch_stats().batches;
    c.batch_subs += s->batch_stats().subs;
    hw::Node& n = rig.cluster.node(s->node_id());
    if (n.cache() != nullptr) {
      const auto& cs = n.cache()->stats();
      c.cache_hits += cs.hits;
      c.cache_misses += cs.misses;
      c.cache_prereads += cs.prereads;
      c.cache_dirty_evictions += cs.dirty_evictions;
    }
    if (n.disk() != nullptr) {
      const auto d = n.disk()->stats();
      c.disk_ops += d.reads + d.writes;
      c.disk_busy += d.busy_time;
    }
  }
  for (auto& cl : rig.clients) {
    c.rpcs += cl->rpc_stats().sent;
    c.retries += cl->rpc_stats().retries;
  }
  for (auto& fs : rig.fs) {
    c.degraded_reads += fs->failover_stats().degraded_reads;
  }
  c.ec_decode_bytes = rig.policy().ec_stats().decode_bytes;
  return c;
}

struct Ctx {
  const Spec* spec = nullptr;
  raid::Rig* rig = nullptr;
  raid::RebuildCoordinator* coord = nullptr;
  raid::HealthMonitor* mon = nullptr;
  std::vector<FileState> files;
  std::vector<double> zipf_cdf;  ///< cumulative file weights
  double rate_scale = 1.0;
  std::uint64_t seed = 0;
  std::uint64_t next_seq = 0;
  sim::Time t0 = 0;
  sim::Time t_end = 0;
  bool stop = false;
  sim::Time crash_at = 0;
  RunResult* out = nullptr;
};

std::uint32_t pick_file(Ctx& c, Rng& rng) {
  const double u = rng.uniform() * c.zipf_cdf.back();
  const auto it = std::upper_bound(c.zipf_cdf.begin(), c.zipf_cdf.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(it - c.zipf_cdf.begin(), c.zipf_cdf.size() - 1));
}

/// Claim `n` consecutive free stripe units aligned to `n`, starting the
/// probe at a random aligned position. False when every position is busy.
bool claim(FileState& fs, std::uint32_t n, Rng& rng, std::uint64_t& unit) {
  const std::uint64_t positions = fs.busy.size() / n;
  const std::uint64_t start = rng.below(positions);
  for (std::uint64_t i = 0; i < positions; ++i) {
    const std::uint64_t u = ((start + i) % positions) * n;
    bool free = true;
    for (std::uint32_t j = 0; j < n && free; ++j) free = fs.busy[u + j] == 0;
    if (!free) continue;
    for (std::uint32_t j = 0; j < n; ++j) fs.busy[u + j] = 1;
    unit = u;
    return true;
  }
  return false;
}

Buffer payload(const Ctx& c, FileState& fs, std::uint64_t len) {
  if (!c.spec->materialize) return Buffer::phantom(len);
  ++fs.version;
  const std::uint64_t id = static_cast<std::uint64_t>(fs.id) << 40;
  return Buffer::pattern(len, c.seed ^ id ^ fs.version);
}

void apply_shadow(FileState& fs, std::uint64_t off, const Buffer& data) {
  if (!data.materialized()) return;
  std::memcpy(fs.shadow.data() + off, data.bytes().data(), data.size());
}

/// True iff a read of [off, off+len) returned exactly the shadow content.
bool matches_shadow(const FileState& fs, std::uint64_t off, const Buffer& b) {
  if (!b.materialized() || b.size() == 0) return false;
  return std::memcmp(fs.shadow.data() + off, b.bytes().data(), b.size()) == 0;
}

sim::Task<void> one_op(Ctx* c, Op op, std::uint32_t* outstanding,
                       sim::WaitGroup* wg) {
  raid::Rig& rig = *c->rig;
  FileState& fs = c->files[op.file];
  RunResult& r = *c->out;
  bool ok = false;
  if (op.read) {
    auto rd = co_await rig.client_fs(op.client).read(fs.f, op.off, op.len);
    ok = rd.ok() && rd->size() == op.len;
    if (ok && c->spec->materialize &&
        !fs.unknown.intersects(op.off, op.off + op.len)) {
      ++r.verified_reads;
      if (!matches_shadow(fs, op.off, *rd)) ++r.verify_mismatches;
    }
  } else {
    Buffer data = payload(*c, fs, op.len);
    apply_shadow(fs, op.off, data);
    auto wr = co_await rig.client_fs(op.client).write(fs.f, op.off,
                                                      std::move(data));
    ok = wr.ok();
    if (!ok) fs.unknown.insert(op.off, op.off + op.len);
  }
  const sim::Time now = rig.sim.now();
  if (ok) {
    ++r.completed;
    r.bytes_served += op.len;
    (op.read ? r.read_lat : r.write_lat).push_back(now - op.due);
  } else {
    ++r.failed;
  }
  r.window_end = std::max(r.window_end, now);
  fold(r.fingerprint, op.seq);
  fold(r.fingerprint, now);
  fold(r.fingerprint, ok ? op.len : 0);
  const std::uint64_t su = c->spec->stripe_unit;
  const std::uint64_t end_unit = (op.off + op.len + su - 1) / su;
  for (std::uint64_t u = op.off / su; u < end_unit; ++u) fs.busy[u] = 0;
  --*outstanding;
  wg->done();
}

sim::Task<void> tenant(Ctx* c, std::uint32_t id, Rng rng, sim::WaitGroup* wg) {
  raid::Rig& rig = *c->rig;
  const Spec& s = *c->spec;
  RunResult& r = *c->out;
  const double mean_gap_s =
      static_cast<double>(s.ntenants) / (s.rate_rps * c->rate_scale);
  const std::uint32_t client =
      id % static_cast<std::uint32_t>(rig.clients.size());
  std::uint32_t outstanding = 0;
  sim::WaitGroup mine(rig.sim);
  sim::Time due = c->t0;
  for (;;) {
    const double gap_ns = rng.exponential(mean_gap_s) * 1e9;
    due += gap_ns < 1.0 ? 1 : static_cast<sim::Duration>(gap_ns);
    if (due >= c->t_end || c->stop) break;
    co_await rig.sim.sleep_until(due);
    if (c->stop) break;
    if (rig.sim.now() != due) ++r.late;
    ++r.arrivals;
    std::uint32_t fi = pick_file(*c, rng);
    const bool is_read = rng.chance(s.read_frac);
    const bool full = !is_read && rng.chance(s.full_frac);
    const std::uint64_t small_len =
        s.small_min_bytes == 0 ? s.small_bytes
                               : rng.range(s.small_min_bytes, s.small_bytes);
    if (outstanding >= s.max_outstanding) {
      ++r.shed;
      continue;
    }
    // A file whose every aligned slot is busy passes the request on to the
    // next file, so no request ever overlaps one in flight.
    std::uint64_t unit = 0;
    std::uint64_t len = 0;
    bool claimed = false;
    for (std::size_t probe = 0; probe < c->files.size() && !claimed; ++probe) {
      const auto f =
          static_cast<std::uint32_t>((fi + probe) % c->files.size());
      const std::uint32_t units = full ? c->files[f].group_units : 1;
      len = full ? std::uint64_t{units} * s.stripe_unit : small_len;
      claimed = claim(c->files[f], units, rng, unit);
      if (claimed) fi = f;
    }
    if (!claimed) {
      ++r.shed;
      ++r.slot_misses;
      continue;
    }
    ++outstanding;
    ++r.size_mix[len];
    Op op{c->next_seq++, fi, client, unit * s.stripe_unit, len, is_read, due};
    mine.add();
    rig.sim.spawn(one_op(c, op, &outstanding, &mine));
  }
  co_await mine.wait();
  wg->done();
}

/// rebuild_wipe's fault timeline: crash, blank restart, then end the
/// arrival window at the coordinator's admit.
sim::Task<void> fault_timeline(Ctx* c) {
  raid::Rig& rig = *c->rig;
  const RebuildPlan& plan = *c->spec->rebuild;
  RunResult& r = *c->out;
  co_await rig.sim.sleep_until(c->t0 + sim::from_seconds(plan.crash_at_s));
  c->crash_at = rig.sim.now();
  rig.server(plan.victim).crash();
  co_await rig.sim.sleep(sim::from_seconds(plan.restart_after_s));
  rig.server(plan.victim).restart(/*wipe_disk=*/true);
  const sim::Time give_up = rig.sim.now() + sim::sec(120);
  for (;;) {
    const auto& st = c->coord->stats();
    if (st.full_rebuilds >= 1 && st.first_admit_at > c->crash_at &&
        !rig.server(plan.victim).fenced()) {
      break;
    }
    if (rig.sim.now() >= give_up) {
      r.rebuild_ok = false;
      break;
    }
    co_await rig.sim.sleep(sim::ms(5));
  }
  const auto& st = c->coord->stats();
  r.rebuild_s = r.rebuild_ok
                    ? sim::to_seconds(st.first_admit_at - c->crash_at)
                    : 0.0;
  c->stop = true;
}

sim::Task<void> prefill(Ctx* c) {
  raid::Rig& rig = *c->rig;
  const Spec& s = *c->spec;
  // Files are numbered round-robin across the groups, so under a Zipf skew
  // every scheme owns some of the hot files.
  std::uint32_t most = 0;
  for (const FileGroup& g : s.groups) most = std::max(most, g.nfiles);
  std::uint32_t id = 0;
  for (std::uint32_t i = 0; i < most; ++i) {
    for (const FileGroup& g : s.groups) {
      if (i >= g.nfiles) continue;
      const std::string name = g.prefix + "f" + std::to_string(i);
      raid::CsarFs& fsys = rig.client_fs(id % rig.fs.size());
      auto f = co_await fsys.create(name, rig.layout(s.stripe_unit));
      assert(f.ok());
      FileState& st = c->files[id];
      st.f = *f;
      st.id = id++;
      st.size = g.file_bytes;
      st.group_units = g.scheme.code(f->layout).k;
      st.busy.assign(g.file_bytes / s.stripe_unit, 0);
      if (s.materialize) st.shadow.assign(g.file_bytes, std::byte{0});
      // Whole parity groups per write, so prefill takes the full-stripe
      // path of every scheme.
      const std::uint64_t width =
          static_cast<std::uint64_t>(st.group_units) * s.stripe_unit;
      const std::uint64_t chunk =
          std::max<std::uint64_t>(1, MiB / width) * width;
      for (std::uint64_t off = 0; off < g.file_bytes; off += chunk) {
        const std::uint64_t len = std::min(chunk, g.file_bytes - off);
        Buffer data = payload(*c, st, len);
        apply_shadow(st, off, data);
        auto wr = co_await fsys.write(st.f, off, std::move(data));
        assert(wr.ok());
        (void)wr;
      }
      auto fl = co_await fsys.flush(st.f);
      assert(fl.ok());
      (void)fl;
      if (c->coord != nullptr) c->coord->track(st.f, st.size);
    }
  }
}

sim::Task<void> window(Ctx* c) {
  raid::Rig& rig = *c->rig;
  const Spec& s = *c->spec;
  c->t0 = rig.sim.now();
  c->out->window_start = c->t0;
  c->out->window_end = c->t0;
  c->t_end = s.rebuild ? std::numeric_limits<sim::Time>::max()
                       : c->t0 + sim::from_seconds(s.window_s);
  if (c->coord != nullptr) {
    c->mon->start();
    c->coord->start();
    rig.sim.spawn(fault_timeline(c));
  }
  Rng root(c->seed);
  sim::WaitGroup wg(rig.sim);
  wg.add(s.ntenants);
  for (std::uint32_t i = 0; i < s.ntenants; ++i) {
    rig.sim.spawn(tenant(c, i, root.split(), &wg));
  }
  co_await wg.wait();
  if (c->coord != nullptr) {
    c->mon->stop();
    c->coord->stop();
  }
}

sim::Task<void> read_back(Ctx* c) {
  raid::Rig& rig = *c->rig;
  RunResult& r = *c->out;
  for (FileState& fs : c->files) {
    for (std::uint64_t off = 0; off < fs.size; off += MiB) {
      const std::uint64_t len = std::min<std::uint64_t>(MiB, fs.size - off);
      if (fs.unknown.intersects(off, off + len)) continue;
      auto rd = co_await rig.client_fs(0).read(fs.f, off, len);
      ++r.verified_reads;
      if (!rd.ok() || !matches_shadow(fs, off, *rd)) ++r.verify_mismatches;
    }
  }
}

void run(raid::Rig& rig, sim::Task<void> t) {
  rig.sim.spawn(std::move(t));
  rig.sim.run();
}

}  // namespace

const std::vector<Spec>& all_specs() {
  static const std::vector<Spec> specs = make_specs();
  return specs;
}

const Spec* find_spec(std::string_view name) {
  for (const Spec& s : all_specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.events = events - o.events;
  d.rpcs = rpcs - o.rpcs;
  d.retries = retries - o.retries;
  d.batches = batches - o.batches;
  d.batch_subs = batch_subs - o.batch_subs;
  d.lock_acqs = lock_acqs - o.lock_acqs;
  d.lock_waits = lock_waits - o.lock_waits;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  d.cache_prereads = cache_prereads - o.cache_prereads;
  d.cache_dirty_evictions = cache_dirty_evictions - o.cache_dirty_evictions;
  d.disk_ops = disk_ops - o.disk_ops;
  d.disk_busy = disk_busy - o.disk_busy;
  d.ec_decode_bytes = ec_decode_bytes - o.ec_decode_bytes;
  d.degraded_reads = degraded_reads - o.degraded_reads;
  return d;
}

RunResult run_workload(const Spec& spec, std::uint64_t seed,
                       const RunOptions& opt) {
  RunResult r;
  const auto setup0 = Clock::now();

  raid::RigParams rp;
  rp.profile = hw::profile_experimental2003();
  rp.profile.server.cache->capacity_bytes = spec.cache_bytes;
  rp.nservers = spec.nservers;
  rp.nclients = spec.nclients;
  rp.scheme = Scheme::hybrid;
  rp.seed = seed ^ 0x5EEDC5A2ULL;
  for (const FileGroup& g : spec.groups) {
    rp.policy.rules.push_back({g.prefix, g.scheme});
  }
  if (spec.rebuild) {
    // Fault-aware clients: finite deadlines and retries, so requests caught
    // by the crash fail over instead of waiting forever.
    rp.rpc = pvfs::RpcPolicy{sim::sec(1), 4, sim::ms(5), 0.5};
  }
  raid::Rig rig(rp);
  std::unique_ptr<raid::HealthMonitor> mon;
  std::unique_ptr<raid::RebuildCoordinator> coord;
  if (spec.rebuild) {
    raid::HealthParams hp;
    hp.interval = sim::ms(50);
    mon = std::make_unique<raid::HealthMonitor>(rig.client(), hp);
    for (auto& fs : rig.fs) fs->enable_failover(mon.get());
    raid::RebuildParams rbp;
    rbp.rate_cap = spec.rebuild->rate_cap;
    coord = std::make_unique<raid::RebuildCoordinator>(rig, *mon, rbp);
  }

  Ctx c;
  c.spec = &spec;
  c.rig = &rig;
  c.mon = mon.get();
  c.coord = coord.get();
  c.rate_scale = opt.rate_scale;
  c.seed = seed;
  c.out = &r;
  std::uint32_t nfiles = 0;
  for (const FileGroup& g : spec.groups) nfiles += g.nfiles;
  c.files.resize(nfiles);
  // File i's popularity is 1/(i+1)^zipf.
  double acc = 0;
  for (std::uint32_t rank = 0; rank < nfiles; ++rank) {
    acc += 1.0 / std::pow(static_cast<double>(rank + 1), spec.zipf);
    c.zipf_cdf.push_back(acc);
  }
  run(rig, prefill(&c));
  r.setup_s = since(setup0);

  if (opt.tracer != nullptr) {
    // Rig::set_obs maps only the nodes of the rig's own clients and
    // servers; the coordinator built the repair client earlier, so map its
    // node first or its spans would name no trace process.
    if (coord) {
      opt.tracer->map_node(rig.repair_client().node_id(),
                           opt.tracer->process("repair"));
    }
    rig.set_obs(opt.tracer, nullptr);
  }
  const Counters before = snapshot(rig);
  const sim::slab::Stats slab0 = sim::slab::stats();
  const auto run0 = Clock::now();
  run(rig, window(&c));
  r.run_s = since(run0);
  const sim::slab::Stats slab1 = sim::slab::stats();
  r.delta = snapshot(rig) - before;
  if (opt.tracer != nullptr) rig.set_obs(nullptr, nullptr);
  r.slab_allocs = slab1.allocs - slab0.allocs;
  r.slab_recycled = slab1.recycled - slab0.recycled;
  if (coord) {
    r.rebuild_bytes = coord->stats().bytes_rebuilt;
    r.rebuild_passes = coord->stats().passes;
  }

  if (opt.final_verify && spec.materialize) run(rig, read_back(&c));
  return r;
}

}  // namespace perfbench
