#include "raid/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "raid/csar_fs.hpp"
#include "sim/sync.hpp"

namespace csar::raid {

namespace {
using pvfs::Op;
using pvfs::Request;
using pvfs::StripeLayout;

bool contains(const std::vector<std::uint32_t>& v, std::uint32_t s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

sim::Task<std::vector<pvfs::Response>> Recovery::coding_rpcs(
    const GroupCode& gc, std::vector<std::pair<std::uint32_t, Request>> reqs) {
  if (gc.m() == 1 && reqs.size() == 1) {
    std::vector<pvfs::Response> out;
    out.push_back(
        co_await client_->rpc(reqs[0].first, std::move(reqs[0].second)));
    co_return out;
  }
  co_return co_await client_->rpc_all(std::move(reqs));
}

sim::Task<Result<Buffer>> Recovery::reconstruct(
    const pvfs::OpenFile& f, const GroupCode& gc, std::uint64_t g,
    std::uint32_t target, std::uint64_t c0, std::uint64_t len,
    const std::vector<std::uint32_t>& down, bool for_rebuild) {
  const std::uint32_t k = gc.k();
  const std::uint32_t gen = policy_->red_gen_of(f);
  // The minimal k-subset, deterministically, each kind ascending. Exactly k
  // fragments are fetched — never more — which is the degraded-read cost
  // the A14 ablation measures.
  std::vector<std::uint32_t> present;
  auto take = [&](std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t frag = lo; frag < hi && present.size() < k; ++frag) {
      if (frag == target) continue;  // the fragment being (re)built
      if (contains(down, gc.fragment_server(g, frag))) continue;
      present.push_back(frag);
    }
  };
  if (gc.rs) {
    // (c) rs reads data fragments first (their reads spread over the
    // group's own servers and most coefficients are cheap), then coding.
    take(0, gc.spec.fragments());
  } else {
    // (c) Classic parity reads the parity unit first, then the data.
    take(k, gc.spec.fragments());
    take(0, k);
  }
  if (present.size() < k) {
    co_return Error{Errc::server_failed, "fewer than k live fragments"};
  }
  const auto coeffs = rs_reconstruct_coeffs(gc.spec, present, target);
  std::vector<std::pair<std::uint32_t, Request>> reads;
  reads.reserve(k);
  for (const std::uint32_t frag : present) {
    reads.emplace_back(gc.fragment_server(g, frag),
                       gc.fragment_read(f.handle, gen, g, frag, c0, len));
  }
  auto resps = co_await client_->rpc_all(std::move(reads));
  bool phantom = false;
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "fragment read", resp.server};
    if (!resp.data.materialized()) phantom = true;
  }
  Buffer out = Buffer::phantom(len);
  if (!phantom) {
    // A unit coefficient (every one for m = 1) lets the first fragment be
    // the accumulator itself instead of a zero-filled buffer.
    std::size_t r = 0;
    if (coeffs[0] == 1) {
      out = std::move(resps[0].data);
      r = 1;
    } else {
      out = Buffer::real(len);
    }
    for (; r < resps.size(); ++r) {
      gf_muladd_region(out.mutable_bytes(), resps[r].data.bytes(), coeffs[r]);
    }
  }
  // (d) Decode cost: k fragment-sized inputs through the kernel on the
  // recovering client. A classic parity recompute is not charged.
  if (gc.rs || target < k) {
    auto& node = client_->cluster().node(client_->node_id());
    co_await node.mem().occupy(
        sim::transfer_time(len * k, node.params().xor_bytes_per_sec));
  }
  // (e) Only rs feeds the erasure-coding statistics.
  if (gc.rs) {
    if (for_rebuild) {
      policy_->note_ec_rebuild_decode(k, len * k);
    } else {
      policy_->note_ec_degraded_read(k, len * k);
    }
  }
  co_return out;
}

sim::Task<Result<Buffer>> Recovery::reconstruct_piece(
    const pvfs::OpenFile& f, const std::vector<std::uint32_t>& down,
    std::uint64_t global_off, std::uint64_t len) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t u = layout.unit_of(global_off);
  assert(layout.unit_of(global_off + len - 1) == u &&
         "piece must lie within one stripe unit");
  const std::uint32_t owner = layout.server_of_unit(u);
  const std::uint32_t successor = (owner + 1) % layout.n();
  const std::uint64_t local = layout.local_off(global_off);
  const Scheme sch = policy_->scheme_of(f);
  if (sch == Scheme::raid0) {
    co_return Error{Errc::server_failed, "RAID0 cannot reconstruct"};
  }
  Buffer out;
  if (const auto gc = group_code(sch, layout)) {
    auto base = co_await reconstruct(
        f, *gc, gc->group_of_unit(u), static_cast<std::uint32_t>(u % gc->k()),
        global_off % layout.su(), len, down, /*for_rebuild=*/false);
    if (!base.ok()) co_return base;
    out = std::move(base.value());
  } else {
    // RAID1: the mirror of the failed server's blocks lives at the same
    // local offsets in the successor's redundancy file.
    Request r;
    r.op = Op::read_red;
    r.handle = f.handle;
    r.off = local;
    r.len = len;
    r.su = layout.stripe_unit;
    r.red_gen = policy_->red_gen_of(f);
    auto resp = co_await client_->rpc(successor, std::move(r));
    if (!resp.ok) co_return Error{resp.err, "raid1 mirror read"};
    out = std::move(resp.data);
  }
  // Overlay the newest partial-stripe data from the mirrored overflow
  // copies on the successor. This applies beyond Scheme::hybrid: a file
  // migrated away from Hybrid keeps its overflow overlay live (the new
  // base redundancy covers the raw data files only), so its reconstruction
  // needs the same overlay. Never-Hybrid files skip the extra read.
  if (policy_->overflow_possible(f)) {
    if (contains(down, successor)) {
      co_return Error{Errc::server_failed,
                      "overlay: owner and successor both down"};
    }
    Request r;
    r.op = Op::read_mirror;
    r.handle = f.handle;
    r.off = local;
    r.len = len;
    r.owner = owner;
    auto resp = co_await client_->rpc(successor, std::move(r));
    if (!resp.ok) co_return Error{resp.err, "mirror overflow read"};
    for (const auto& piece : resp.pieces) {
      if (out.materialized() && piece.data.materialized()) {
        out.write_at(piece.local_off - local, piece.data);
      } else {
        out = Buffer::phantom(len);
      }
    }
  }
  co_return out;
}

sim::Task<Result<Buffer>> Recovery::degraded_read(const pvfs::OpenFile& f,
                                                  std::uint64_t off,
                                                  std::uint64_t len,
                                                  std::uint32_t failed) {
  return degraded_read(f, off, len, std::vector<std::uint32_t>{failed});
}

std::uint32_t Recovery::failure_budget(const pvfs::OpenFile& f) const {
  const auto gc = group_code(policy_->scheme_of(f), f.layout);
  return gc ? gc->m() : 1;
}

sim::Task<Result<Buffer>> Recovery::degraded_read(
    const pvfs::OpenFile& f, std::uint64_t off, std::uint64_t len,
    std::vector<std::uint32_t> failed) {
  if (failed.empty()) co_return co_await client_->read(f, off, len);
  if (len == 0) co_return Buffer::real(0);
  if (failed.size() > failure_budget(f)) {
    co_return Error{Errc::server_failed,
                    "more concurrent failures than the scheme's redundancy"};
  }
  // One part per unit piece, in file order; each task fills its own.
  const auto pieces = f.layout.decompose(off, len);
  std::vector<Buffer> parts(pieces.size());
  bool phantom = false;
  bool error = false;
  Error first_error;
  std::vector<sim::Task<void>> tasks;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    tasks.push_back(
        [](Recovery* self, const pvfs::OpenFile* file,
           StripeLayout::Extent ext, const std::vector<std::uint32_t>* down,
           Buffer* sink, bool* phant, bool* err,
           Error* ferr) -> sim::Task<void> {
          Result<Buffer> piece = Buffer::real(0);
          if (contains(*down, ext.server)) {
            piece = co_await self->reconstruct_piece(*file, *down,
                                                     ext.global_off, ext.len);
          } else {
            Request r;
            r.op = Op::read_data;
            r.handle = file->handle;
            r.off = ext.local_off;
            r.len = ext.len;
            r.su = file->layout.stripe_unit;
            auto resp = co_await self->client_->rpc(ext.server, std::move(r));
            piece = resp.ok ? Result<Buffer>(std::move(resp.data))
                            : Result<Buffer>(Error{resp.err, "read"});
          }
          if (!piece.ok()) {
            if (!*err) *ferr = piece.error();
            *err = true;
            co_return;
          }
          assert(piece.value().size() == ext.len);
          if (!piece.value().materialized()) *phant = true;
          *sink = std::move(piece.value());
        }(this, &f, pieces[i], &failed, &parts[i], &phantom, &error,
          &first_error));
  }
  co_await sim::when_all(client_->cluster().sim(), std::move(tasks));
  if (error) co_return first_error;
  if (phantom) co_return Buffer::phantom(len);
  co_return Buffer::concat(parts);
}

namespace {

/// A partial-stripe segment [start, end) of a degraded write.
struct Seg {
  std::uint64_t start;
  std::uint64_t end;
};

/// Overlay the new bytes of `seg` (taken from `data`, which starts at file
/// offset `off`) that fall into stripe unit `u` onto `after`, a buffer
/// holding that unit's columns starting at column `c0`.
void overlay_new(const StripeLayout& layout, std::uint64_t off,
                 const Buffer& data, const Seg& seg, std::uint64_t u,
                 std::uint64_t c0, Buffer& after) {
  for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
    if (layout.unit_of(e.global_off) != u) continue;
    after.write_at(e.global_off % layout.su() - c0,
                   data.slice(e.global_off - off, e.len));
  }
}

}  // namespace

sim::Task<Result<void>> Recovery::degraded_write(const pvfs::OpenFile& f,
                                                 std::uint64_t off,
                                                 Buffer data,
                                                 std::uint32_t failed) {
  return degraded_write(f, off, std::move(data),
                        std::vector<std::uint32_t>{failed});
}

sim::Task<Result<void>> Recovery::degraded_write(
    const pvfs::OpenFile& f, std::uint64_t off, Buffer data,
    std::vector<std::uint32_t> failed) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint64_t su = layout.su();
  const std::uint64_t len = data.size();
  if (failed.empty()) {
    co_return Error{Errc::invalid_argument, "degraded write with no failure"};
  }
  if (len == 0) co_return Result<void>::success();
  if (failed.size() > failure_budget(f)) {
    co_return Error{Errc::server_failed,
                    "more concurrent failures than the scheme's redundancy"};
  }
  const Scheme sch = policy_->scheme_of(f);
  const std::uint32_t gen = policy_->red_gen_of(f);

  if (sch == Scheme::raid0) {
    for (const auto& e : layout.decompose(off, len)) {
      if (contains(failed, e.server)) {
        co_return Error{Errc::server_failed, "RAID0 degraded write"};
      }
    }
    co_return co_await client_->write_striped(f, off, data);
  }

  if (sch == Scheme::raid1) {
    // Update whichever of the two copies is alive; the rebuild restores the
    // other from it. The overflow invalidations are free no-ops for pure
    // RAID1 files and keep an ex-Hybrid file's overlay from shadowing these
    // in-place bytes.
    std::vector<std::pair<std::uint32_t, Request>> reqs;
    for (const auto& e : layout.decompose_merged(off, len)) {
      Buffer payload =
          pvfs::Client::gather_for_server(layout, off, data, e);
      if (!contains(failed, e.server)) {
        Request w;
        w.op = Op::write_data;
        w.handle = f.handle;
        w.off = e.local_off;
        w.payload = payload.slice(0, payload.size());
        w.su = layout.stripe_unit;
        w.inval_own = Interval{e.local_off, e.local_off + e.len};
        reqs.emplace_back(e.server, std::move(w));
      }
      const std::uint32_t mirror = (e.server + 1) % n;
      if (!contains(failed, mirror)) {
        Request m;
        m.op = Op::write_red;
        m.handle = f.handle;
        m.off = e.local_off;
        m.payload = std::move(payload);
        m.su = layout.stripe_unit;
        m.red_gen = gen;
        m.inval_mirror = Interval{e.local_off, e.local_off + e.len};
        reqs.emplace_back(mirror, std::move(m));
      }
    }
    auto resps = co_await client_->rpc_all(std::move(reqs));
    for (const auto& resp : resps) {
      if (!resp.ok) co_return Error{resp.err, "raid1 degraded write"};
    }
    co_return Result<void>::success();
  }

  // Group codes (RAID4, the RAID5 variants, rs(k,m) and Hybrid's full
  // stripes; Hybrid's partial path differs below). `inval` extends the
  // overflow invalidations Hybrid needs to ex-Hybrid files migrated onto an
  // in-place scheme; never-Hybrid files skip them.
  const GroupCode gc = *group_code(sch, layout);
  const std::uint32_t k = gc.k();
  const std::uint32_t m = gc.m();
  const bool inval = policy_->overflow_possible(f);
  const bool mat = data.materialized();
  const auto ws = layout.split_write_w(off, len, gc.width());
  std::vector<std::pair<std::uint32_t, Request>> writes;
  std::uint64_t gf_bytes = 0;

  // Mirror-overflow invalidation interval a write on server `s` owes for
  // its predecessor's unit within group g (ex-Hybrid files only) — crucially
  // when the predecessor is a failed server whose new content now lives
  // only in the coding, exactly as the normal write path does.
  auto mirror_inval = [&](std::uint64_t g, std::uint32_t s, Request& w) {
    const std::uint32_t prev = (s + n - 1) % n;
    for (std::uint64_t v = g * k; v < (g + 1) * k; ++v) {
      if (layout.server_of_unit(v) == prev) {
        w.inval_mirror = {layout.local_unit(v) * su,
                          layout.local_unit(v) * su + su};
      }
    }
  };
  // In-place write of one extent on a live server, plus the mirror-entry
  // invalidation its successor owes an ex-Hybrid file.
  auto write_extent = [&](const StripeLayout::Extent& e) {
    Request w;
    w.op = Op::write_data;
    w.handle = f.handle;
    w.off = e.local_off;
    w.payload = data.slice(e.global_off - off, e.len);
    w.su = layout.stripe_unit;
    if (inval) {
      w.inval_own = Interval{e.local_off, e.local_off + e.len};
      const std::uint32_t ms = (e.server + 1) % n;
      if (!contains(failed, ms)) {
        Request iv;
        iv.op = Op::write_data;
        iv.handle = f.handle;
        iv.off = e.local_off;
        iv.su = layout.stripe_unit;
        iv.inval_mirror = Interval{e.local_off, e.local_off + e.len};
        writes.emplace_back(ms, std::move(iv));
      }
    }
    writes.emplace_back(e.server, std::move(w));
  };

  // --- full groups: fresh coding to every live coding server; data in
  //     place on the live data servers. A lost unit's content is
  //     representable only through the coding, so the coding write is what
  //     makes the write durable (at most m servers are down). ---
  for (std::uint64_t g = ws.full_start / gc.width();
       g < ws.full_end / gc.width(); ++g) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const std::uint32_t cs = gc.coding_server(g, j);
      if (contains(failed, cs)) continue;
      gf_bytes += std::uint64_t{k} * su;
      Request w;
      w.op = Op::write_red;
      w.handle = f.handle;
      w.off = gc.coding_off(g, j);
      w.payload = CsarFs::full_group_coding(gc, g, j, off, data);
      w.su = layout.stripe_unit;
      w.red_gen = gen;
      if (inval) mirror_inval(g, cs, w);
      writes.emplace_back(cs, std::move(w));
    }
    for (std::uint64_t u = g * k; u < (g + 1) * k; ++u) {
      const std::uint32_t s = layout.server_of_unit(u);
      if (contains(failed, s)) continue;
      Request w;
      w.op = Op::write_data;
      w.handle = f.handle;
      w.off = layout.local_unit(u) * su;
      w.payload = data.slice(u * su - off, su);
      w.su = layout.stripe_unit;
      if (inval) {
        w.inval_own = {w.off, w.off + su};
        mirror_inval(g, s, w);
      }
      writes.emplace_back(s, std::move(w));
    }
  }

  // --- partial segments (ascending group order, as in §5.1) ---
  std::vector<Seg> segs;
  if (ws.head_end > ws.head_start) segs.push_back({ws.head_start, ws.head_end});
  if (ws.tail_end > ws.tail_start) segs.push_back({ws.tail_start, ws.tail_end});

  if (sch == Scheme::hybrid) {
    // Partial stripes: primary + mirror overflow copies; write whichever of
    // the pair is alive.
    for (const auto& seg : segs) {
      for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
        Buffer piece = data.slice(e.global_off - off, e.len);
        if (!contains(failed, e.server)) {
          Request primary;
          primary.op = Op::write_overflow;
          primary.handle = f.handle;
          primary.off = e.local_off;
          primary.payload = piece.slice(0, piece.size());
          primary.owner = e.server;
          primary.su = layout.stripe_unit;
          writes.emplace_back(e.server, std::move(primary));
        }
        const std::uint32_t mirror_srv = (e.server + 1) % n;
        if (!contains(failed, mirror_srv)) {
          Request mirror;
          mirror.op = Op::write_overflow;
          mirror.handle = f.handle;
          mirror.off = e.local_off;
          mirror.payload = std::move(piece);
          mirror.owner = e.server;
          mirror.mirror = true;
          mirror.su = layout.stripe_unit;
          writes.emplace_back(mirror_srv, std::move(mirror));
        }
      }
    }
    segs.clear();
  }

  // Reconstruct-write: lock and read every live coding fragment of the
  // group, read the live data units' old columns, decode any lost unit's
  // old content from k live fragments, overlay the new bytes, and re-encode
  // every live coding fragment outright.
  for (const auto& seg : segs) {
    const std::uint64_t g = gc.group_of_off(seg.start);
    std::vector<std::uint32_t> live_j;
    for (std::uint32_t j = 0; j < m; ++j) {
      if (!contains(failed, gc.coding_server(g, j))) live_j.push_back(j);
    }
    // Column range: the whole span touched within the group.
    std::uint64_t c0 = su;
    std::uint64_t c1 = 0;
    bool lost_touched = false;
    for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
      c0 = std::min(c0, e.global_off % su);
      c1 = std::max(c1, e.global_off % su + e.len);
      if (contains(failed, e.server)) lost_touched = true;
    }

    if (live_j.empty()) {
      // Every coding fragment of this group is down, so every data server
      // is live: update the data in place; the rebuild recomputes the
      // coding. A write to a lost data unit here would be unrecordable.
      if (lost_touched) {
        co_return Error{Errc::server_failed,
                        "degraded write to a lost unit with no live coding"};
      }
      for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
        write_extent(e);
      }
      continue;
    }

    // Locked coding reads, ascending j — the §5.1 ordered-acquisition rule:
    // within a group the coding servers are visited in fragment order, and
    // segments arrive in ascending group order.
    const std::uint64_t rmw_token = gc.lock ? client_->next_rmw_token() : 0;
    std::vector<Buffer> coding_old(live_j.size());
    auto release_locks = [&](std::size_t upto) -> sim::Task<void> {
      std::vector<std::pair<std::uint32_t, Request>> rel;
      for (std::size_t x = 0; x < upto; ++x) {
        Request u;
        u.op = Op::unlock_red;
        u.handle = f.handle;
        u.off = gc.coding_off(g, live_j[x]) + c0;
        u.rmw_token = rmw_token;
        u.su = layout.stripe_unit;
        u.red_gen = gen;
        rel.emplace_back(gc.coding_server(g, live_j[x]), std::move(u));
      }
      (void)co_await coding_rpcs(gc, std::move(rel));
    };
    for (std::size_t idx = 0; idx < live_j.size(); ++idx) {
      Request pr;
      pr.op = Op::read_red;
      pr.handle = f.handle;
      pr.off = gc.coding_off(g, live_j[idx]) + c0;
      pr.len = c1 - c0;
      pr.lock = gc.lock;
      pr.rmw_token = rmw_token;
      pr.su = layout.stripe_unit;
      pr.red_gen = gen;
      auto presp = co_await client_->rpc(gc.coding_server(g, live_j[idx]),
                                         std::move(pr));
      if (!presp.ok) {
        // Release what we hold, including this one: the envelope may have
        // taken the lock server-side before failing.
        if (gc.lock) co_await release_locks(idx + 1);
        co_return Error{presp.err, "degraded coding read"};
      }
      coding_old[idx] = std::move(presp.data);
    }

    // Old columns of every live data unit.
    std::vector<std::pair<std::uint32_t, Request>> reads;
    std::vector<std::uint32_t> read_frags;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint64_t u = g * k + i;
      if (contains(failed, layout.server_of_unit(u))) continue;
      Request r;
      r.op = Op::read_data_raw;
      r.handle = f.handle;
      r.off = layout.local_unit(u) * su + c0;
      r.len = c1 - c0;
      reads.emplace_back(layout.server_of_unit(u), std::move(r));
      read_frags.push_back(i);
    }
    auto old = co_await client_->rpc_all(std::move(reads));
    for (const auto& resp : old) {
      if (!resp.ok) {
        // Abandoning the RMW with the coding locks held: release them
        // explicitly (owner-checked, writes nothing) so the group is not
        // wedged until the lease reaper fires.
        if (gc.lock) co_await release_locks(live_j.size());
        co_return Error{resp.err, "degraded old-data read"};
      }
    }

    std::vector<Buffer> coding_new(live_j.size());
    if (mat) {
      // After-content of every data fragment: live ones straight from the
      // reads, lost ones decoded from k live fragments; then overlay the
      // segment's new bytes.
      std::vector<Buffer> after(k);
      for (std::size_t r = 0; r < read_frags.size(); ++r) {
        after[read_frags[r]] = old[r].data.slice(0, c1 - c0);
      }
      std::vector<std::uint32_t> present = read_frags;
      for (std::size_t x = 0; x < live_j.size() && present.size() < k; ++x) {
        present.push_back(k + live_j[x]);
      }
      for (std::uint32_t i = 0; i < k; ++i) {
        if (!after[i].empty()) continue;  // live fragment, already read
        const auto coeffs = rs_reconstruct_coeffs(gc.spec, present, i);
        Buffer lost_old = Buffer::real(c1 - c0);
        for (std::size_t r = 0; r < present.size(); ++r) {
          const std::uint32_t frag = present[r];
          const Buffer& src =
              frag < k ? after[frag]
                       : coding_old[std::find(live_j.begin(), live_j.end(),
                                              frag - k) -
                                    live_j.begin()];
          gf_muladd_region(lost_old.mutable_bytes(), src.bytes(), coeffs[r]);
        }
        gf_bytes += std::uint64_t{k} * (c1 - c0);
        after[i] = std::move(lost_old);
      }
      for (std::uint32_t i = 0; i < k; ++i) {
        overlay_new(layout, off, data, seg, g * k + i, c0, after[i]);
      }
      for (std::size_t x = 0; x < live_j.size(); ++x) {
        coding_new[x] = Buffer::real(c1 - c0);
        for (std::uint32_t i = 0; i < k; ++i) {
          gf_muladd_region(coding_new[x].mutable_bytes(), after[i].bytes(),
                           rs_coeff(gc.spec, live_j[x], i));
        }
        gf_bytes += std::uint64_t{k} * (c1 - c0);
      }
    } else {
      for (auto& c : coding_new) c = Buffer::phantom(c1 - c0);
    }
    auto& node = client_->cluster().node(client_->node_id());
    co_await node.tx().occupy(sim::transfer_time(
        (c1 - c0) * (k + m), node.params().xor_bytes_per_sec));

    for (std::size_t x = 0; x < live_j.size(); ++x) {
      Request pw;
      pw.op = Op::write_red;
      pw.handle = f.handle;
      pw.off = gc.coding_off(g, live_j[x]) + c0;
      pw.payload = std::move(coding_new[x]);
      pw.unlock = gc.lock;
      pw.rmw_token = rmw_token;
      pw.su = layout.stripe_unit;
      pw.red_gen = gen;
      writes.emplace_back(gc.coding_server(g, live_j[x]), std::move(pw));
    }
    for (const auto& e : layout.decompose(seg.start, seg.end - seg.start)) {
      if (!contains(failed, e.server)) write_extent(e);
    }
  }

  // (e) Only rs feeds the erasure-coding statistics.
  if (gc.rs && gf_bytes > 0) {
    policy_->note_ec_encode(gf_bytes);
  }
  auto resps = co_await client_->rpc_all(std::move(writes));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "degraded write"};
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Recovery::rebuild_server(const pvfs::OpenFile& f,
                                                 std::uint32_t failed,
                                                 std::uint64_t file_size,
                                                 RebuildOptions opt) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint64_t su = layout.su();
  const std::uint32_t successor = (failed + 1) % n;
  const std::uint32_t predecessor = (failed + n - 1) % n;
  if (file_size == 0) co_return Result<void>::success();
  const Scheme sch = policy_->scheme_of(f);
  if (sch == Scheme::raid0) {
    // Nothing rebuildable: RAID0 stores no redundancy, so a replaced
    // server's units are simply gone. The coordinator admits such servers
    // without a pass; a direct call is a no-op rather than an error so a
    // mixed-scheme pass over many files can treat every file uniformly.
    co_return Result<void>::success();
  }
  // nullopt: RAID1, whose passes copy mirror blocks instead of decoding.
  const std::optional<GroupCode> gc = group_code(sch, layout);
  // Servers unreadable during this pass: the rebuild target itself plus,
  // with several coding fragments, any concurrent outages — decodes route
  // around all of them (any k live fragments suffice). With one coding
  // fragment there is nothing to route around: also_down is ignored, and
  // the survivor reads fail loudly if one is actually needed.
  std::vector<std::uint32_t> down;
  if (gc && gc->m() > 1) down = opt.also_down;
  if (!contains(down, failed)) down.push_back(failed);
  std::sort(down.begin(), down.end());

  // First unit of `s` in the data layout (none for RAID4's parity server).
  const std::uint32_t dn = layout.data_servers();
  auto first_unit = [&](std::uint32_t s) -> std::uint64_t {
    return (s + dn - layout.base % dn) % dn;
  };

  // 1. Data file: reconstruct every unit the failed server held. This
  //    restores the *base* content (data file only), keeping the surviving
  //    redundancy consistent; overflow entries are restored separately in
  //    step 3. Units are rebuilt with a pipeline window so the survivor
  //    reads and replacement writes stream concurrently — the rebuilding
  //    node's links become the bottleneck, as in a real rebuild.
  constexpr std::uint32_t kWindow = 16;
  {
    sim::Semaphore window(client_->cluster().sim(), kWindow);
    sim::WaitGroup wg(client_->cluster().sim());
    bool error = false;
    Error first_error;
    for (std::uint64_t u = first_unit(failed);
         failed < dn && u * su < file_size; u += dn) {
      const std::uint64_t len = std::min<std::uint64_t>(su, file_size - u * su);
      if (opt.delta && !opt.delta->intersects(u * su, u * su + len)) continue;
      if (opt.throttle) {
        // raid1: one mirror read + one replacement write. Group codes: k
        // fragment reads + one replacement write, all unit-sized.
        co_await opt.throttle->take(gc ? std::uint64_t{gc->k() + 1} * len
                                       : 2 * len);
      }
      co_await window.acquire();
      wg.add();
      client_->cluster().sim().spawn(
          [](Recovery* self, pvfs::OpenFile file, std::optional<GroupCode> code,
             std::uint32_t fsrv, std::uint64_t unit, std::uint64_t len,
             std::vector<std::uint32_t> down, sim::Semaphore* sem,
             sim::WaitGroup* done, bool* err, Error* ferr) -> sim::Task<void> {
            const StripeLayout& lay = file.layout;
            // NOTE: deliberately not a ?: expression — GCC 12 miscompiles
            // co_await inside conditional expressions (double-destruction
            // of the materialized result).
            // Both branches restore the *base* content (no overflow
            // overlay — step 3 restores the overlay's tables separately):
            // RAID1's mirror tracks the data file byte-for-byte, group
            // codes decode the raw survivors.
            Result<Buffer> piece = Buffer{};
            if (code) {
              piece = co_await self->reconstruct(
                  file, *code, code->group_of_unit(unit),
                  static_cast<std::uint32_t>(unit % code->k()), 0, len, down,
                  /*for_rebuild=*/true);
            } else {
              Request r;
              r.op = Op::read_red;
              r.handle = file.handle;
              r.off = lay.local_unit(unit) * lay.su();
              r.len = len;
              r.su = lay.stripe_unit;
              r.red_gen = self->policy_->red_gen_of(file);
              auto resp = co_await self->client_->rpc((fsrv + 1) % lay.n(),
                                                      std::move(r));
              if (resp.ok) {
                piece = std::move(resp.data);
              } else {
                piece = Error{resp.err, "raid1 mirror read"};
              }
            }
            if (!piece.ok()) {
              if (!*err) *ferr = piece.error();
              *err = true;
            } else {
              Request w;
              w.op = Op::write_data;
              w.handle = file.handle;
              w.off = lay.local_unit(unit) * lay.su();
              w.payload = std::move(piece.value());
              w.su = lay.stripe_unit;
              auto resp = co_await self->client_->rpc(fsrv, std::move(w));
              if (!resp.ok) {
                if (!*err) *ferr = Error{resp.err, "rebuild data write"};
                *err = true;
              }
            }
            sem->release();
            done->done();
          }(this, f, gc, failed, u, len, down, &window, &wg, &error,
            &first_error));
    }
    co_await wg.wait();
    if (error) co_return first_error;
  }

  // 2. Redundancy file (pipelined like step 1): RAID1 re-copies the mirror
  //    blocks of the predecessor's data, group codes decode every coding
  //    fragment placed on the failed server.
  {
    sim::Semaphore window(client_->cluster().sim(), kWindow);
    sim::WaitGroup wg(client_->cluster().sim());
    bool error = false;
    Error first_error;
    if (!gc) {
      for (std::uint64_t u = first_unit(predecessor); u * su < file_size;
           u += dn) {
        const std::uint64_t len =
            std::min<std::uint64_t>(su, file_size - u * su);
        if (opt.delta && !opt.delta->intersects(u * su, u * su + len)) {
          continue;
        }
        if (opt.throttle) co_await opt.throttle->take(2 * len);
        co_await window.acquire();
        wg.add();
        client_->cluster().sim().spawn(
            [](Recovery* self, pvfs::OpenFile file, std::uint32_t fsrv,
               std::uint32_t pred, std::uint64_t unit, std::uint64_t len,
               sim::Semaphore* sem, sim::WaitGroup* done, bool* err,
               Error* ferr) -> sim::Task<void> {
              const StripeLayout& lay = file.layout;
              Request r;
              r.op = Op::read_data_raw;
              r.handle = file.handle;
              r.off = lay.local_unit(unit) * lay.su();
              r.len = len;
              auto resp = co_await self->client_->rpc(pred, std::move(r));
              if (!resp.ok) {
                if (!*err) *ferr = Error{resp.err, "rebuild mirror read"};
                *err = true;
              } else {
                Request w;
                w.op = Op::write_red;
                w.handle = file.handle;
                w.off = lay.local_unit(unit) * lay.su();
                w.payload = std::move(resp.data);
                w.su = lay.stripe_unit;
                w.red_gen = self->policy_->red_gen_of(file);
                auto wr = co_await self->client_->rpc(fsrv, std::move(w));
                if (!wr.ok) {
                  if (!*err) *ferr = Error{wr.err, "rebuild mirror write"};
                  *err = true;
                }
              }
              sem->release();
              done->done();
            }(this, f, failed, predecessor, u, len, &window, &wg, &error,
              &first_error));
      }
    } else {
      const std::uint64_t ngroups = div_ceil(file_size, gc->width());
      for (std::uint64_t g = 0; g < ngroups; ++g) {
        for (std::uint32_t j = 0; j < gc->m(); ++j) {
          if (gc->coding_server(g, j) != failed) continue;
          if (opt.delta &&
              !opt.delta->intersects(
                  gc->group_start(g),
                  std::min(gc->group_end(g), file_size))) {
            continue;
          }
          if (opt.throttle) {
            co_await opt.throttle->take(std::uint64_t{gc->k() + 1} * su);
          }
          co_await window.acquire();
          wg.add();
          client_->cluster().sim().spawn(
              [](Recovery* self, pvfs::OpenFile file, GroupCode code,
                 std::uint32_t fsrv, std::uint64_t group, std::uint32_t frag,
                 std::vector<std::uint32_t> down, sim::Semaphore* sem,
                 sim::WaitGroup* done, bool* err,
                 Error* ferr) -> sim::Task<void> {
                auto piece = co_await self->reconstruct(
                    file, code, group, frag, 0, code.layout.su(), down,
                    /*for_rebuild=*/true);
                if (!piece.ok()) {
                  if (!*err) *ferr = piece.error();
                  *err = true;
                } else {
                  auto wr = co_await self->client_->rpc(
                      fsrv, code.fragment_write(
                                file.handle, self->policy_->red_gen_of(file),
                                group, frag, std::move(piece.value())));
                  if (!wr.ok) {
                    if (!*err) *ferr = Error{wr.err, "rebuild coding write"};
                    *err = true;
                  }
                }
                sem->release();
                done->done();
              }(this, f, *gc, failed, g, gc->k() + j, down, &window, &wg,
                &error, &first_error));
        }
      }
    }
    co_await wg.wait();
    if (error) co_return first_error;
  }

  // 3. Overflow overlay: restore this server's own entries from the mirrors
  //    on its successor, and the mirror entries it held for its predecessor
  //    from that server's own table. Runs for Hybrid files and for files
  //    migrated away from Hybrid (their overlay is still live).
  if (policy_->overflow_possible(f)) {
    const bool filter = opt.delta != nullptr && !opt.restore_all_overflow;
    if (opt.delta != nullptr && opt.restore_all_overflow) {
      // The rejoiner's overflow content is wholesale suspect (e.g. dirty
      // pages under the overflow file died with the crash): drop both table
      // sides entirely, then re-mirror everything from the survivors below.
      std::vector<Request> invals;
      for (int side = 0; side < 2; ++side) {
        Request r;
        r.op = Op::write_data;
        r.handle = f.handle;
        r.su = layout.stripe_unit;
        if (side == 0) {
          r.inval_own = {0, file_size};
        } else {
          r.inval_mirror = {0, file_size};
        }
        invals.push_back(std::move(r));
      }
      auto ivr = co_await client_->rpc_batch(failed, std::move(invals));
      for (const auto& r : ivr) {
        if (!r.ok) co_return Error{r.err, "rebuild overflow reset"};
      }
    }
    if (filter) {
      // A non-wipe rejoiner kept its overflow tables, but over the delta
      // they are stale: survivors superseded or invalidated those entries
      // while this server was gone. Clear both table sides across the delta
      // first (zero-payload write_data requests carry pure invalidation
      // ranges), then re-mirror the authoritative survivor copies below.
      std::vector<Request> invals;
      for (const auto& iv : opt.delta->to_vector()) {
        for (const auto& ext : layout.decompose(iv.start, iv.length())) {
          Request r;
          r.op = Op::write_data;
          r.handle = f.handle;
          r.su = layout.stripe_unit;
          if (ext.server == failed) {
            r.inval_own = {ext.local_off, ext.local_off + ext.len};
          } else if (ext.server == predecessor) {
            r.inval_mirror = {ext.local_off, ext.local_off + ext.len};
          } else {
            continue;
          }
          invals.push_back(std::move(r));
        }
      }
      if (!invals.empty()) {
        auto ivr = co_await client_->rpc_batch(failed, std::move(invals));
        for (const auto& r : ivr) {
          if (!r.ok) co_return Error{r.err, "rebuild overflow invalidate"};
        }
      }
    }
    // The survivor-side tables can be huge (unaligned collective writes
    // overflow nearly every request), so both whole-table reads are
    // windowed: each read_mirror / read_own_overflow RPC covers a bounded
    // local-offset range and its pieces are restored before the next
    // window is fetched. Restores still arrive in ascending local-offset
    // order across windows (the rebuilt table's allocation order must
    // match piece order; in-order batch execution guarantees it per
    // window, ascending windows guarantee it across them).
    constexpr std::uint64_t kOverflowWindow = 64ull << 20;
    for (std::uint64_t w0 = 0; w0 < file_size; w0 += kOverflowWindow) {
      Request rm;
      rm.op = Op::read_mirror;
      rm.handle = f.handle;
      rm.off = w0;  // local offsets are bounded by the file size
      rm.len = file_size - w0 < kOverflowWindow ? file_size - w0
                                                : kOverflowWindow;
      rm.owner = failed;
      auto mirrors = co_await client_->rpc(successor, std::move(rm));
      if (!mirrors.ok) co_return Error{mirrors.err, "rebuild overflow read"};
      std::vector<Request> restores;
      restores.reserve(mirrors.pieces.size());
      std::uint64_t restore_bytes = 0;
      for (auto& piece : mirrors.pieces) {
        if (filter) {
          const std::uint64_t g0 = layout.global_off(failed, piece.local_off);
          if (!opt.delta->intersects(g0, g0 + piece.data.size())) continue;
        }
        restore_bytes += piece.data.size();
        Request w;
        w.op = Op::write_overflow;
        w.handle = f.handle;
        w.off = piece.local_off;
        w.payload = std::move(piece.data);
        w.owner = failed;
        w.su = layout.stripe_unit;
        restores.push_back(std::move(w));
      }
      if (restores.empty()) continue;
      if (opt.throttle) co_await opt.throttle->take(2 * restore_bytes);
      auto wrs = co_await client_->rpc_batch(failed, std::move(restores));
      for (const auto& wr : wrs) {
        if (!wr.ok) co_return Error{wr.err, "rebuild overflow write"};
      }
    }

    for (std::uint64_t w0 = 0; w0 < file_size; w0 += kOverflowWindow) {
      Request ro;
      ro.op = Op::read_own_overflow;
      ro.handle = f.handle;
      ro.off = w0;
      ro.len = file_size - w0 < kOverflowWindow ? file_size - w0
                                                : kOverflowWindow;
      auto own = co_await client_->rpc(predecessor, std::move(ro));
      if (!own.ok) co_return Error{own.err, "rebuild mirror-table read"};
      std::vector<Request> mirror_restores;
      mirror_restores.reserve(own.pieces.size());
      std::uint64_t mirror_bytes = 0;
      for (auto& piece : own.pieces) {
        if (filter) {
          const std::uint64_t g0 =
              layout.global_off(predecessor, piece.local_off);
          if (!opt.delta->intersects(g0, g0 + piece.data.size())) continue;
        }
        mirror_bytes += piece.data.size();
        Request w;
        w.op = Op::write_overflow;
        w.handle = f.handle;
        w.off = piece.local_off;
        w.payload = std::move(piece.data);
        w.owner = predecessor;
        w.mirror = true;
        w.su = layout.stripe_unit;
        mirror_restores.push_back(std::move(w));
      }
      if (mirror_restores.empty()) continue;
      if (opt.throttle) co_await opt.throttle->take(2 * mirror_bytes);
      auto mwrs =
          co_await client_->rpc_batch(failed, std::move(mirror_restores));
      for (const auto& wr : mwrs) {
        if (!wr.ok) co_return Error{wr.err, "rebuild mirror-table write"};
      }
    }
  }
  co_return Result<void>::success();
}

sim::Task<Result<void>> Recovery::build_redundancy(const pvfs::OpenFile& f,
                                                   Scheme to,
                                                   std::uint32_t red_gen,
                                                   std::uint64_t file_size,
                                                   const IntervalSet* delta,
                                                   sim::TokenBucket* throttle) {
  const StripeLayout& layout = f.layout;
  const std::uint32_t n = layout.n();
  const std::uint64_t su = layout.su();
  if (file_size == 0) co_return Result<void>::success();
  if (to == Scheme::raid0 || to == Scheme::raid4) {
    // RAID0 has no redundancy to build; RAID4's fixed parity placement does
    // not transpose onto a file laid out with rotating placement.
    co_return Error{Errc::invalid_argument, "unsupported migration target"};
  }

  constexpr std::uint32_t kWindow = 16;
  sim::Semaphore window(client_->cluster().sim(), kWindow);
  sim::WaitGroup wg(client_->cluster().sim());
  bool error = false;
  Error first_error;

  if (to == Scheme::raid1) {
    // One mirror unit per data unit of *every* server: raw read from the
    // owner, write into the successor's generation-`red_gen` file at the
    // owner's local offset.
    for (std::uint64_t u = 0; u * su < file_size; ++u) {
      const std::uint64_t len = std::min<std::uint64_t>(su, file_size - u * su);
      if (delta && !delta->intersects(u * su, u * su + len)) continue;
      if (throttle) co_await throttle->take(2 * len);
      co_await window.acquire();
      wg.add();
      client_->cluster().sim().spawn(
          [](Recovery* self, pvfs::OpenFile file, std::uint64_t unit,
             std::uint64_t len, std::uint32_t gen, sim::Semaphore* sem,
             sim::WaitGroup* done, bool* err, Error* ferr) -> sim::Task<void> {
            const StripeLayout& lay = file.layout;
            const std::uint32_t owner = lay.server_of_unit(unit);
            Request r;
            r.op = Op::read_data_raw;
            r.handle = file.handle;
            r.off = lay.local_unit(unit) * lay.su();
            r.len = len;
            auto resp = co_await self->client_->rpc(owner, std::move(r));
            if (!resp.ok) {
              if (!*err) *ferr = Error{resp.err, "migrate mirror read"};
              *err = true;
            } else {
              Request w;
              w.op = Op::write_red;
              w.handle = file.handle;
              w.off = lay.local_unit(unit) * lay.su();
              w.payload = std::move(resp.data);
              w.su = lay.stripe_unit;
              w.red_gen = gen;
              auto wr = co_await self->client_->rpc((owner + 1) % lay.n(),
                                                    std::move(w));
              if (!wr.ok) {
                if (!*err) *ferr = Error{wr.err, "migrate mirror write"};
                *err = true;
              }
            }
            sem->release();
            done->done();
          }(this, f, u, len, red_gen, &window, &wg, &error, &first_error));
    }
  } else {
    // Group-code target (RAID5 variants, Hybrid, rs(k,m)): per group, read
    // the k raw data units and write the m coding fragments into the
    // generation-`red_gen` redundancy files of their placement servers —
    // partial-write overflow deliberately excluded, so the new coding is
    // consistent with the data files just like Hybrid's.
    const GroupCode gc = *group_code(to, layout);
    if (gc.spec.fragments() > n) {
      co_return Error{Errc::invalid_argument,
                      "group code needs k+m <= N servers"};
    }
    const std::uint64_t ngroups = div_ceil(file_size, gc.width());
    for (std::uint64_t g = 0; g < ngroups; ++g) {
      if (delta && !delta->intersects(gc.group_start(g),
                                      std::min(gc.group_end(g), file_size))) {
        continue;
      }
      if (throttle) {
        co_await throttle->take(std::uint64_t{gc.spec.fragments()} * su);
      }
      co_await window.acquire();
      wg.add();
      client_->cluster().sim().spawn(
          [](Recovery* self, pvfs::OpenFile file, GroupCode code,
             std::uint64_t group, std::uint32_t gen, sim::Semaphore* sem,
             sim::WaitGroup* done, bool* err, Error* ferr) -> sim::Task<void> {
            const StripeLayout& lay = file.layout;
            const std::uint64_t unit_sz = lay.su();
            std::vector<std::pair<std::uint32_t, Request>> reads;
            for (std::uint32_t i = 0; i < code.k(); ++i) {
              Request r;
              r.op = Op::read_data_raw;
              r.handle = file.handle;
              r.off = lay.local_unit(group * code.k() + i) * unit_sz;
              r.len = unit_sz;
              reads.emplace_back(code.fragment_server(group, i), std::move(r));
            }
            auto resps = co_await self->client_->rpc_all(std::move(reads));
            bool bad = false;
            std::vector<Buffer> units;
            units.reserve(resps.size());
            for (auto& resp : resps) {
              if (!resp.ok) {
                if (!*err) *ferr = Error{resp.err, "migrate read"};
                *err = true;
                bad = true;
                break;
              }
              units.push_back(std::move(resp.data));
            }
            if (!bad) {
              std::vector<std::pair<std::uint32_t, Request>> writes;
              for (std::uint32_t j = 0; j < code.m(); ++j) {
                Request w;
                w.op = Op::write_red;
                w.handle = file.handle;
                w.off = code.coding_off(group, j);
                w.payload = code.encode(j, units);
                w.su = lay.stripe_unit;
                w.red_gen = gen;
                writes.emplace_back(code.coding_server(group, j),
                                    std::move(w));
              }
              // (e) Only rs feeds the erasure-coding statistics.
              if (code.rs) {
                self->policy_->note_ec_encode(std::uint64_t{code.k()} *
                                              unit_sz * code.m());
              }
              auto wrs = co_await self->coding_rpcs(code, std::move(writes));
              for (const auto& wr : wrs) {
                if (!wr.ok) {
                  if (!*err) *ferr = Error{wr.err, "migrate coding write"};
                  *err = true;
                  break;
                }
              }
            }
            sem->release();
            done->done();
          }(this, f, gc, g, red_gen, &window, &wg, &error, &first_error));
    }
  }
  co_await wg.wait();
  if (error) co_return first_error;
  co_return Result<void>::success();
}

}  // namespace csar::raid
