// Redundancy schemes studied in the paper (§4) plus the two ablations used
// in its evaluation (§5.1, §6.2), generalized to k+m erasure codes.
//
// A Scheme is a small value type: a kind plus, for Reed-Solomon, the
// CodeSpec parameters (k data + m coding fragments per group). RAID4, the
// RAID5 variants, Hybrid's full-stripe path and rs(k,m) all run on one
// group-code engine, driven by the GroupCode descriptor that group_code()
// builds; the classic kinds keep their names, tags and geometry so the
// paper's original experiments stay byte-identical. RAID0 and RAID1 have
// no group code. `Scheme::raid5`-style spellings keep working via inline
// static constants.
#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/codec.hpp"
#include "pvfs/layout.hpp"
#include "pvfs/messages.hpp"

namespace csar::raid {

enum class SchemeKind : std::uint8_t {
  raid0,         ///< plain PVFS striping, no redundancy (the baseline)
  raid1,         ///< striped block mirroring (mirror on the next server)
  raid4,         ///< fixed parity server (Swift implemented this; §3 notes
                 ///< it performed worse than RAID5 — see the ablation)
  raid5,         ///< rotated parity, client RMW + distributed parity locks
  raid5_nolock,  ///< "R5 NO LOCK": parity may be left inconsistent (Fig. 3)
  raid5_npc,     ///< "RAID5-npc": parity computation not charged (Fig. 4a)
  hybrid,        ///< CSAR: RAID5 for full stripes, mirrored overflow for
                 ///< partial stripes (the paper's contribution)
  rs,            ///< Reed-Solomon rs(k,m): k data + m coding fragments per
                 ///< group, any k of the k+m recover everything
};

/// Bounds for rs(k,m) parameters — the persisted one-byte scheme tag packs
/// (k-1) in four bits and (m-1) in three (see scheme_tag), which also keeps
/// every rs tag below pvfs::kSchemeUnset (0xFF).
inline constexpr std::uint32_t kMaxRsK = 16;
inline constexpr std::uint32_t kMaxRsM = 7;

struct Scheme {
  SchemeKind kind = SchemeKind::hybrid;
  /// Code parameters; meaningful only when kind == rs (0 otherwise, so
  /// default comparison treats the classic schemes as plain enumerators).
  std::uint8_t k = 0;
  std::uint8_t m = 0;

  friend constexpr auto operator<=>(const Scheme&, const Scheme&) = default;

  /// The rs(k,m) scheme. Bounds: 1 <= k <= kMaxRsK, 1 <= m <= kMaxRsM.
  static constexpr Scheme rs(std::uint32_t k, std::uint32_t m) {
    assert(k >= 1 && k <= kMaxRsK && m >= 1 && m <= kMaxRsM);
    return Scheme{SchemeKind::rs, static_cast<std::uint8_t>(k),
                  static_cast<std::uint8_t>(m)};
  }

  /// The erasure-code view of this scheme: every scheme is a k+m code
  /// (RAID1 is RS(1,1); the parity schemes are RS(data_servers,1)); callers
  /// that need the classic schemes' k resolve it from the layout.
  CodeSpec code(const pvfs::StripeLayout& layout) const {
    switch (kind) {
      case SchemeKind::raid0:
        return CodeSpec{layout.data_servers(), 0};
      case SchemeKind::raid1:
        return CodeSpec{1, 1};
      case SchemeKind::raid4:
      case SchemeKind::raid5:
      case SchemeKind::raid5_nolock:
      case SchemeKind::raid5_npc:
      case SchemeKind::hybrid:
        // A parity group is one unit per data server (fixed) or N-1
        // consecutive units (rotating) — k = N-1 either way.
        return CodeSpec{layout.n() - 1, 1};
      case SchemeKind::rs:
        return CodeSpec{k, m};
    }
    std::abort();
  }

  // The classic schemes as named constants, so `Scheme::raid5` spellings
  // from the enum era keep compiling. Defined out of line below
  // (constant-initialized aggregates; no static-init-order hazard).
  static const Scheme raid0, raid1, raid4, raid5, raid5_nolock, raid5_npc,
      hybrid;
};

inline const Scheme Scheme::raid0{SchemeKind::raid0};
inline const Scheme Scheme::raid1{SchemeKind::raid1};
inline const Scheme Scheme::raid4{SchemeKind::raid4};
inline const Scheme Scheme::raid5{SchemeKind::raid5};
inline const Scheme Scheme::raid5_nolock{SchemeKind::raid5_nolock};
inline const Scheme Scheme::raid5_npc{SchemeKind::raid5_npc};
inline const Scheme Scheme::hybrid{SchemeKind::hybrid};

// The switches below are exhaustive: every enumerator returns, and
// -Werror=switch flags any future SchemeKind addition at compile time. The
// std::abort() after each switch is unreachable (an out-of-range cast is the
// only way there) — there is deliberately no "?" fallback that could mask a
// bogus value in printed output.
inline std::string scheme_name(Scheme s) {
  switch (s.kind) {
    case SchemeKind::raid0:
      return "RAID0";
    case SchemeKind::raid1:
      return "RAID1";
    case SchemeKind::raid4:
      return "RAID4";
    case SchemeKind::raid5:
      return "RAID5";
    case SchemeKind::raid5_nolock:
      return "R5-NOLOCK";
    case SchemeKind::raid5_npc:
      return "RAID5-npc";
    case SchemeKind::hybrid:
      return "Hybrid";
    case SchemeKind::rs:
      return "RS(" + std::to_string(s.k) + "," + std::to_string(s.m) + ")";
  }
  std::abort();
}

/// True for the single-parity schemes (RAID4, all RAID5 variants and the
/// Hybrid full-stripe path): XOR parity over the layout's full stripe, k =
/// N-1 and m = 1. rs is *not* in this set, even as rs(N-1,1): its k and m are
/// its own parameters rather than the layout's, so callers asking for the
/// stripe-wide parity or for a single-fault scheme must not see it.
inline bool uses_parity(Scheme s) {
  switch (s.kind) {
    case SchemeKind::raid0:
    case SchemeKind::raid1:
    case SchemeKind::rs:
      return false;
    case SchemeKind::raid4:
    case SchemeKind::raid5:
    case SchemeKind::raid5_nolock:
    case SchemeKind::raid5_npc:
    case SchemeKind::hybrid:
      return true;
  }
  std::abort();
}

/// The parity placement a scheme's files should be created with. rs keeps
/// the rotating data layout (data striped over all N servers, identical to
/// plain PVFS); GroupCode places every scheme's coding fragments.
inline pvfs::ParityPlacement placement_for(Scheme s) {
  switch (s.kind) {
    case SchemeKind::raid4:
      return pvfs::ParityPlacement::fixed;
    case SchemeKind::raid0:
    case SchemeKind::raid1:
    case SchemeKind::raid5:
    case SchemeKind::raid5_nolock:
    case SchemeKind::raid5_npc:
    case SchemeKind::hybrid:
    case SchemeKind::rs:
      return pvfs::ParityPlacement::rotating;
  }
  std::abort();
}

/// A scheme's group code: the one descriptor the parity engine (coded
/// writes, reconstruction, degraded reads and writes, rebuild, migration)
/// runs on. Every group-coded scheme is a k+m code over groups of k
/// consecutive stripe units: RAID4, the RAID5 variants and Hybrid's full
/// stripes are the m = 1 case with k = N-1 (coding row 0 is all ones, so
/// their coding fragment is the XOR parity); rs(k,m) is the general one.
///
/// The coding geometry is one formula for every group code: coding_server
/// rotates fragment j of group g to the j-th server after the group's data
/// (or the dedicated server under RAID4's fixed placement), and coding_off
/// packs each server's coding slots densely, so a full-group write sends
/// one merged coding write per server for every m.
///
/// `rs` selects the rs(k,m) output conventions. Each read of it preserves
/// one output difference between the classic parity path and rs(k,1), named
/// in DESIGN.md "Group-code engine":
///  (c) decode read order: coding fragment first vs data fragments first;
///  (d) coding-fragment rebuild: uncharged XOR vs a charged decode;
///  (e) EcStats: only rs notes encode/decode bytes.
struct GroupCode {
  CodeSpec spec;
  pvfs::StripeLayout layout;
  bool rs = false;
  /// RMW takes the coding-block locks (false only for R5 NO LOCK, Fig. 3).
  bool lock = true;
  /// Coding computation is charged to the client CPU (false only for
  /// RAID5-npc, Fig. 4a).
  bool charge = true;

  std::uint32_t k() const { return spec.k; }
  std::uint32_t m() const { return spec.m; }
  /// Bytes of data per group: k stripe units.
  std::uint64_t width() const { return std::uint64_t{spec.k} * layout.su(); }
  std::uint64_t group_of_unit(std::uint64_t u) const { return u / spec.k; }
  std::uint64_t group_of_off(std::uint64_t off) const {
    return group_of_unit(layout.unit_of(off));
  }
  std::uint64_t group_start(std::uint64_t g) const { return g * width(); }
  std::uint64_t group_end(std::uint64_t g) const { return (g + 1) * width(); }

  /// Server holding coding fragment j of group g: the dedicated server N-1
  /// under fixed placement (RAID4); under rotating placement the j-th
  /// server after the group's k data units in rotation order, shifted by
  /// `base` like the data, so a group's k+m fragments sit on k+m distinct
  /// servers. For k = N-1, m = 1 that is the one server holding none of the
  /// group's data (Figure 2).
  std::uint32_t coding_server(std::uint64_t g, std::uint32_t j) const {
    if (layout.placement == pvfs::ParityPlacement::fixed) {
      return layout.n() - 1;
    }
    return static_cast<std::uint32_t>((layout.base + (g + 1) * spec.k + j) %
                                      layout.n());
  }
  /// Server-local byte offset of coding fragment j of group g in the
  /// holder's redundancy file. Slots are dense: the slot index is the number
  /// of earlier groups coded on that server (g under fixed placement, g/N
  /// for k = N-1 or k = 1 with m = 1), so each server's coding fragments for
  /// a run of groups are contiguous and redundancy files have no holes.
  std::uint64_t coding_off(std::uint64_t g, std::uint32_t j) const {
    // Coding positions repeat every N groups (a multiple of the placement's
    // period N / gcd(k, N)): count the whole rounds, then g's own round.
    const std::uint32_t n = layout.n();
    const std::uint32_t s = coding_server(g, j);
    std::uint64_t per_round = 0;
    std::uint64_t earlier = 0;
    for (std::uint32_t h = 0; h < n; ++h) {
      if (!holds_coding(h, s)) continue;
      ++per_round;
      if (h < g % n) ++earlier;
    }
    return (g / n * per_round + earlier) * layout.su();
  }
  /// The inverse of coding_off: the group and fragment index whose coding
  /// fills redundancy-file unit q of server s; nullopt if s codes no group.
  std::optional<std::pair<std::uint64_t, std::uint32_t>> coding_fragment(
      std::uint32_t s, std::uint64_t q) const {
    const std::uint32_t n = layout.n();
    std::uint64_t per_round = 0;
    for (std::uint32_t h = 0; h < n; ++h) per_round += holds_coding(h, s);
    if (per_round == 0) return std::nullopt;
    // Walk q's round of N groups to its (q mod per_round)-th coded group.
    std::uint64_t g = q / per_round * n;
    for (std::uint64_t skip = q % per_round;; ++g) {
      if (!holds_coding(g, s)) continue;
      if (skip == 0) break;
      --skip;
    }
    std::uint32_t j = 0;
    while (coding_server(g, j) != s) ++j;
    return std::pair{g, j};
  }
  /// Server holding fragment `frag` (data [0, k), coding [k, k+m)) of g.
  std::uint32_t fragment_server(std::uint64_t g, std::uint32_t frag) const {
    return frag < spec.k ? layout.server_of_unit(g * spec.k + frag)
                         : coding_server(g, frag - spec.k);
  }
  /// Whether server `s` holds a coding fragment of group g.
  bool holds_coding(std::uint64_t g, std::uint32_t s) const {
    for (std::uint32_t j = 0; j < spec.m; ++j) {
      if (coding_server(g, j) == s) return true;
    }
    return false;
  }

  /// Read request for columns [c0, c0+len) of fragment `frag` of group g
  /// of file `handle`: a raw data-file read for data fragments, a
  /// redundancy-file read (generation `gen`) at the group's coding slot for
  /// coding fragments.
  pvfs::Request fragment_read(std::uint64_t handle, std::uint32_t gen,
                              std::uint64_t g, std::uint32_t frag,
                              std::uint64_t c0, std::uint64_t len) const {
    pvfs::Request r = fragment_request(handle, gen, g, frag, c0);
    r.op = frag < spec.k ? pvfs::Op::read_data_raw : pvfs::Op::read_red;
    r.len = len;
    return r;
  }
  /// Write request storing `payload` as the whole of fragment `frag` of
  /// group g (the counterpart of fragment_read).
  pvfs::Request fragment_write(std::uint64_t handle, std::uint32_t gen,
                               std::uint64_t g, std::uint32_t frag,
                               Buffer payload) const {
    pvfs::Request w = fragment_request(handle, gen, g, frag, 0);
    w.op = frag < spec.k ? pvfs::Op::write_data : pvfs::Op::write_red;
    w.payload = std::move(payload);
    return w;
  }

  /// Coding fragment j over the group's k data `units` (in order; phantom
  /// if any is). Row 0 is all ones, so it starts from a view of the first
  /// unit and XORs the rest, with no zero-filled accumulator; other rows
  /// accumulate GF-scaled units.
  Buffer encode(std::uint32_t j, std::span<const Buffer> units) const {
    const std::uint64_t su = layout.su();
    for (const Buffer& u : units) {
      if (!u.materialized()) return Buffer::phantom(su);
    }
    if (j == 0) {
      Buffer coding = units[0];
      for (std::size_t i = 1; i < units.size(); ++i) {
        coding.xor_with(units[i]);
      }
      return coding;
    }
    Buffer coding = Buffer::real(su);
    for (std::uint32_t i = 0; i < spec.k; ++i) {
      gf_muladd_region(coding.mutable_bytes(), units[i].bytes(),
                       rs_coeff(spec, j, i));
    }
    return coding;
  }

 private:
  /// The addressing fragment_read and fragment_write share.
  pvfs::Request fragment_request(std::uint64_t handle, std::uint32_t gen,
                                 std::uint64_t g, std::uint32_t frag,
                                 std::uint64_t c0) const {
    pvfs::Request r;
    r.handle = handle;
    r.su = layout.stripe_unit;
    if (frag < spec.k) {
      r.off = layout.local_unit(g * spec.k + frag) * layout.su() + c0;
    } else {
      r.off = coding_off(g, frag - spec.k) + c0;
      r.red_gen = gen;
    }
    return r;
  }
};

/// The group code of `s` on `layout`; nullopt for RAID0 and RAID1, which
/// have none. With the write dispatch, this is the only parity code that
/// looks at the scheme kind.
inline std::optional<GroupCode> group_code(Scheme s,
                                           const pvfs::StripeLayout& layout) {
  GroupCode gc{s.code(layout), layout};
  switch (s.kind) {
    case SchemeKind::raid0:
    case SchemeKind::raid1:
      return std::nullopt;
    case SchemeKind::raid4:
    case SchemeKind::raid5:
    case SchemeKind::hybrid:
      return gc;
    case SchemeKind::raid5_nolock:
      gc.lock = false;
      return gc;
    case SchemeKind::raid5_npc:
      gc.charge = false;
      return gc;
    case SchemeKind::rs:
      gc.rs = true;
      return gc;
  }
  std::abort();
}

// --- persisted scheme tags ---
// The manager stores a file's scheme as one opaque byte (OpenFile::scheme,
// journaled). Classic kinds map to their enumerator value; rs packs its
// parameters as 0x80 | (k-1)<<3 | (m-1), which tops out at 0xFE — never
// colliding with pvfs::kSchemeUnset (0xFF) or a classic kind.

inline std::uint8_t scheme_tag(Scheme s) {
  if (s.kind == SchemeKind::rs) {
    assert(s.k >= 1 && s.k <= kMaxRsK && s.m >= 1 && s.m <= kMaxRsM);
    return static_cast<std::uint8_t>(0x80 | ((s.k - 1) << 3) | (s.m - 1));
  }
  return static_cast<std::uint8_t>(s.kind);
}

inline Scheme scheme_from_tag(std::uint8_t tag) {
  if (tag & 0x80) {
    return Scheme::rs(((tag >> 3) & 0x0F) + 1u, (tag & 0x07) + 1u);
  }
  assert(tag <= static_cast<std::uint8_t>(SchemeKind::hybrid));
  return Scheme{static_cast<SchemeKind>(tag)};
}

/// Inverse of scheme_name for CLI flags and scripts: accepts the display
/// names case-insensitively plus the lowercase identifiers used in code
/// ("raid5_nolock", "raid5_npc") and "rs(k,m)" specs. nullopt for anything
/// unrecognized or out of the rs bounds.
inline std::optional<Scheme> parse_scheme(std::string_view text) {
  std::string t;
  t.reserve(text.size());
  for (char c : text) {
    t.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  }
  if (t == "raid0") return Scheme::raid0;
  if (t == "raid1") return Scheme::raid1;
  if (t == "raid4") return Scheme::raid4;
  if (t == "raid5") return Scheme::raid5;
  if (t == "raid5_nolock" || t == "r5-nolock") return Scheme::raid5_nolock;
  if (t == "raid5_npc" || t == "raid5-npc") return Scheme::raid5_npc;
  if (t == "hybrid") return Scheme::hybrid;
  // rs(k,m) — also accepted as "rs4_2"-style? No: one canonical spelling
  // keeps round-tripping exact; scheme_name prints uppercase, parsing is
  // case-folded above.
  if (t.size() >= 7 && t.substr(0, 3) == "rs(" && t.back() == ')') {
    const std::string_view body = std::string_view(t).substr(3, t.size() - 4);
    const std::size_t comma = body.find(',');
    if (comma == std::string_view::npos) return std::nullopt;
    std::uint32_t k = 0;
    std::uint32_t m = 0;
    const std::string_view ks = body.substr(0, comma);
    const std::string_view ms = body.substr(comma + 1);
    if (ks.empty() || ms.empty()) return std::nullopt;
    for (char c : ks) {
      if (c < '0' || c > '9') return std::nullopt;
      k = k * 10 + static_cast<std::uint32_t>(c - '0');
      if (k > 1000) return std::nullopt;
    }
    for (char c : ms) {
      if (c < '0' || c > '9') return std::nullopt;
      m = m * 10 + static_cast<std::uint32_t>(c - '0');
      if (m > 1000) return std::nullopt;
    }
    if (k < 1 || k > kMaxRsK || m < 1 || m > kMaxRsM) return std::nullopt;
    return Scheme::rs(k, m);
  }
  return std::nullopt;
}

/// Parse a comma-separated scheme list ("hybrid,rs(4,2),raid5") for CLI
/// flags and storm configs. Commas at parenthesis depth > 0 belong to a
/// parameterized spec, not the list — naive splitting would shear "rs(4,2)"
/// into "rs(4" and "2)". Surrounding whitespace per element is ignored.
/// nullopt when the list is empty or any element fails parse_scheme.
inline std::optional<std::vector<Scheme>> parse_scheme_list(
    std::string_view text) {
  std::vector<Scheme> out;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const bool split = i == text.size() || (text[i] == ',' && depth == 0);
    if (!split) {
      if (text[i] == '(') ++depth;
      if (text[i] == ')') --depth;
      continue;
    }
    std::string_view elem = text.substr(start, i - start);
    while (!elem.empty() && (elem.front() == ' ' || elem.front() == '\t')) {
      elem.remove_prefix(1);
    }
    while (!elem.empty() && (elem.back() == ' ' || elem.back() == '\t')) {
      elem.remove_suffix(1);
    }
    const std::optional<Scheme> s = parse_scheme(elem);
    if (!s) return std::nullopt;
    out.push_back(*s);
    start = i + 1;
  }
  if (depth != 0 || out.empty()) return std::nullopt;
  return out;
}

}  // namespace csar::raid
