#include "layers.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <coroutine>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "hw/node.hpp"
#include "localfs/local_fs.hpp"
#include "raid/rig.hpp"
#include "sim/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/slab.hpp"

namespace perfbench {

using namespace csar;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Run `t` to completion on `sim`; returns the host nanoseconds it took.
double timed_run(sim::Simulation& sim, sim::Task<void> t) {
  const auto t0 = Clock::now();
  sim.spawn(std::move(t));
  sim.run();
  return ns_since(t0);
}

/// The recorded request sizes, in the proportions they were issued, as a
/// cycle of at most `n` entries.
std::vector<std::uint64_t> size_cycle(const RunResult& rec, std::size_t n) {
  std::uint64_t total = 0;
  for (const auto& [size, count] : rec.size_mix) total += count;
  std::vector<std::uint64_t> out;
  for (const auto& [size, count] : rec.size_mix) {
    const std::uint64_t share = n * count / std::max<std::uint64_t>(1, total);
    const std::size_t k = std::max<std::size_t>(1, share);
    out.insert(out.end(), k, size);
  }
  return out;
}

// --- sim ---

/// Hold model: a queue kept at the workload's depth, each pop followed by a
/// push a random delay later (the delays average the run's gap per event
/// times the depth).
double queue_push_pop_ns(const Spec& spec, const RunResult& rec, Rng& rng) {
  constexpr std::uint64_t kOps = 1 << 20;
  const std::uint64_t depth = 2ull * spec.ntenants;
  const std::uint64_t window_ns = rec.window_end - rec.window_start;
  const std::uint64_t span_ns =
      rec.delta.events == 0
          ? 1000
          : std::max<std::uint64_t>(1, window_ns * depth / rec.delta.events);
  sim::EventQueue q;
  const std::coroutine_handle<> h = std::noop_coroutine();
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    q.push({rng.below(2 * span_ns), seq++, h});
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    q.ensure_ready();
    const sim::EventQueue::Event ev = q.pop_ready();
    q.push({ev.t + rng.below(2 * span_ns), seq++, h});
  }
  return ns_since(t0) / kOps;
}

sim::Task<void> yield_once(sim::Simulation* s) { co_await s->yield(); }

double spawn_join_ns() {
  constexpr int kOps = 200000;
  sim::Simulation sim;
  const double ns = timed_run(sim, [](sim::Simulation* s) -> sim::Task<void> {
    for (int i = 0; i < kOps; ++i) {
      const sim::ProcessHandle p = s->spawn(yield_once(s));
      co_await p.join();
    }
  }(&sim));
  return ns / kOps;
}

double channel_handoff_ns() {
  constexpr int kRounds = 200000;
  sim::Simulation sim;
  sim::Channel<int> ping(sim);
  sim::Channel<int> pong(sim);
  using Ch = sim::Channel<int>;
  sim.spawn([](Ch* in, Ch* out) -> sim::Task<void> {
    for (int i = 0; i < kRounds; ++i) out->send(co_await in->recv());
  }(&ping, &pong));
  const double ns = timed_run(sim, [](Ch* out, Ch* in) -> sim::Task<void> {
    for (int i = 0; i < kRounds; ++i) {
      out->send(i);
      (void)co_await in->recv();
    }
  }(&ping, &pong));
  return ns / (2.0 * kRounds);
}

/// Coroutine-frame-sized blocks cycling through a ring of live slots.
double slab_alloc_free_ns(Rng& rng) {
  constexpr std::size_t kLive = 256;
  constexpr int kOps = 1 << 21;
  static constexpr std::size_t kSizes[] = {96, 160, 224, 320, 448, 640};
  std::vector<std::size_t> sizes(4096);
  for (auto& s : sizes) s = kSizes[rng.below(std::size(kSizes))];
  std::vector<void*> live(kLive, nullptr);
  const auto t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    void*& slot = live[static_cast<std::size_t>(i) % kLive];
    if (slot != nullptr) sim::slab::deallocate(slot);
    slot = sim::slab::allocate(sizes[static_cast<std::size_t>(i) & 4095]);
  }
  const double ns = ns_since(t0) / kOps;
  for (void* p : live) {
    if (p != nullptr) sim::slab::deallocate(p);
  }
  return ns;
}

// --- localfs ---

/// One server's LocalFs holding the workload's data files (one per file,
/// named the way the I/O server names them), driven with the recorded sizes
/// at stripe-unit-aligned offsets: writes as the network delivers them, then
/// reads. Names are built before timing, so only LocalFs is timed.
std::pair<double, double> localfs_ns(const Spec& spec, const RunResult& rec,
                                     Rng& rng) {
  constexpr int kOps = 20000;
  hw::HwProfile prof = hw::profile_experimental2003();
  prof.server.cache->capacity_bytes = spec.cache_bytes;
  sim::Simulation sim;
  hw::Node node(sim, 0, prof.server);
  localfs::LocalFs fs(sim, *node.cache(), localfs::LocalFsParams{});
  std::uint32_t nfiles = 0;
  std::uint64_t extent = 0;
  for (const FileGroup& g : spec.groups) {
    nfiles += g.nfiles;
    extent = std::max(extent, g.file_bytes / spec.nservers);
  }
  const std::vector<std::uint64_t> sizes = size_cycle(rec, 64);
  std::vector<std::string> names;
  for (std::uint32_t h = 1; h <= nfiles; ++h) {
    std::string name = "h";
    name += std::to_string(h);
    name += ".data";
    names.push_back(std::move(name));
  }
  struct Req {
    const std::string* name;
    std::uint64_t off, len;
  };
  std::vector<Req> reqs;
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t len = sizes[static_cast<std::size_t>(i) % sizes.size()];
    const std::uint64_t slots =
        std::max<std::uint64_t>(1, extent / spec.stripe_unit);
    reqs.push_back({&names[rng.below(nfiles)],
                    rng.below(slots) * spec.stripe_unit, len});
  }
  const bool real = spec.materialize;
  const std::uint32_t chunk = prof.net_recv_chunk;
  const double w = timed_run(
      sim, [](localfs::LocalFs* f, const std::vector<Req>* rs, bool real,
              std::uint32_t chunk) -> sim::Task<void> {
        for (const Req& r : *rs) {
          Buffer b =
              real ? Buffer::pattern(r.len, r.off) : Buffer::phantom(r.len);
          co_await f->write_stream(*r.name, r.off, std::move(b), chunk);
        }
      }(&fs, &reqs, real, chunk));
  const double r = timed_run(
      sim, [](localfs::LocalFs* f,
              const std::vector<Req>* rs) -> sim::Task<void> {
        for (const Req& r : *rs) {
          (void)co_await f->read(*r.name, r.off, r.len);
        }
      }(&fs, &reqs));
  return {w / kOps, r / kOps};
}

// --- pvfs ---

/// One small write RPC through Client to IoServer, in a one-server rig.
double rpc_roundtrip_us(const Spec& spec) {
  constexpr int kOps = 20000;
  raid::RigParams rp;
  rp.nservers = 1;
  rp.nclients = 1;
  rp.scheme = raid::Scheme::raid0;
  raid::Rig rig(rp);
  pvfs::OpenFile f;
  sim::Task<void> mk = [](raid::Rig* r, pvfs::OpenFile* out,
                          std::uint32_t su) -> sim::Task<void> {
    auto cf = co_await r->client_fs().create("rpc", r->layout(su));
    assert(cf.ok());
    *out = *cf;
  }(&rig, &f, spec.stripe_unit);
  timed_run(rig.sim, std::move(mk));
  const double ns = timed_run(
      rig.sim, [](raid::Rig* r, const pvfs::OpenFile* file,
                  std::uint32_t len, bool real) -> sim::Task<void> {
        for (int i = 0; i < kOps; ++i) {
          const std::uint64_t off = static_cast<std::uint64_t>(i % 64) * len;
          Buffer b = real ? Buffer::pattern(len, off) : Buffer::phantom(len);
          auto wr = co_await r->client().write_striped(*file, off, b);
          assert(wr.ok());
          (void)wr;
        }
      }(&rig, &f, spec.small_bytes, spec.materialize));
  return ns / kOps / 1e3;
}

// --- common ---

std::pair<double, double> codec_gbps(const Spec& spec, Rng& rng) {
  const std::size_t frag = spec.stripe_unit;
  const std::size_t reps = (256 * MiB) / frag;
  std::vector<std::byte> src(frag);
  std::vector<std::byte> dst(frag);
  for (auto& b : src) b = static_cast<std::byte>(rng.next());
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) xor_words(dst, src);
  const double xor_ns = ns_since(t0);
  t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) gf_muladd_region(dst, src, 0x53);
  const double gf_ns = ns_since(t0);
  // Keep the results observable so the loops cannot be dropped.
  volatile std::byte sink = dst[frag / 2];
  (void)sink;
  const double bytes = static_cast<double>(frag) * reps;
  return {bytes / xor_ns, bytes / gf_ns};
}

// --- raid ---

/// A closed single-client CsarFs::write loop on one file of `scheme`,
/// replaying the recorded request sizes at aligned offsets.
double write_host_us(const Spec& spec, const RunResult& rec,
                     raid::Scheme scheme, Rng& rng) {
  constexpr int kOps = 2000;
  constexpr std::uint64_t kFile = 4 * MiB;
  raid::RigParams rp;
  rp.nservers = spec.nservers;
  rp.nclients = 1;
  rp.scheme = scheme;
  raid::Rig rig(rp);
  const std::vector<std::uint64_t> sizes = size_cycle(rec, 64);
  struct Req {
    std::uint64_t off, len;
  };
  std::vector<Req> reqs;
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t len = sizes[static_cast<std::size_t>(i) % sizes.size()];
    const std::uint64_t slots = kFile / len;
    reqs.push_back({rng.below(slots) * len, len});
  }
  pvfs::OpenFile f;
  timed_run(rig.sim, [](raid::Rig* r, pvfs::OpenFile* out, std::uint32_t su,
                        bool real) -> sim::Task<void> {
    auto cf = co_await r->client_fs().create("w", r->layout(su));
    assert(cf.ok());
    *out = *cf;
    Buffer b = real ? Buffer::pattern(kFile, 1) : Buffer::phantom(kFile);
    auto wr = co_await r->client_fs().write(*out, 0, std::move(b));
    assert(wr.ok());
    (void)wr;
  }(&rig, &f, spec.stripe_unit, spec.materialize));
  const double ns = timed_run(
      rig.sim, [](raid::Rig* r, const pvfs::OpenFile* file,
                  const std::vector<Req>* rs, bool real) -> sim::Task<void> {
        for (const Req& q : *rs) {
          Buffer b =
              real ? Buffer::pattern(q.len, q.off) : Buffer::phantom(q.len);
          auto wr = co_await r->client_fs().write(*file, q.off, std::move(b));
          assert(wr.ok());
          (void)wr;
        }
      }(&rig, &f, &reqs, spec.materialize));
  return ns / kOps / 1e3;
}

}  // namespace

std::map<std::string, double> measure_layers(const Spec& spec,
                                             const RunResult& recorded,
                                             std::uint64_t seed) {
  Rng rng(seed ^ 0x1A7E55ULL);
  std::map<std::string, double> m;
  m["sim.queue_push_pop_ns"] = queue_push_pop_ns(spec, recorded, rng);
  m["sim.spawn_join_ns"] = spawn_join_ns();
  m["sim.channel_handoff_ns"] = channel_handoff_ns();
  m["sim.slab_alloc_free_ns"] = slab_alloc_free_ns(rng);
  const auto [w, r] = localfs_ns(spec, recorded, rng);
  m["localfs.write_ns"] = w;
  m["localfs.read_ns"] = r;
  m["pvfs.rpc_roundtrip_host_us"] = rpc_roundtrip_us(spec);
  const auto [x, g] = codec_gbps(spec, rng);
  m["common.xor_gbps"] = x;
  m["common.gf_muladd_gbps"] = g;
  const std::pair<const char*, raid::Scheme> schemes[] = {
      {"hybrid", raid::Scheme::hybrid},
      {"raid5", raid::Scheme::raid5},
      {"rs4_2", raid::Scheme::rs(4, 2)},
      {"raid1", raid::Scheme::raid1},
  };
  for (const auto& [name, s] : schemes) {
    m[std::string("raid.write_host_us.") + name] =
        write_host_us(spec, recorded, s, rng);
  }
  return m;
}

}  // namespace perfbench
