// StripeLayout: PVFS round-robin striping math.
//
// Data layout (identical to PVFS, §4 of the paper): the file is split into
// stripe units of `su` bytes; unit u lives on server (u % n) at local unit
// index (u / n) of that server's data file.
//
// A "full stripe" is W = (N-1)*su consecutive bytes aligned on a multiple of
// W: one parity group of Figure 2, whose N-1 consecutive units occupy N-1
// distinct servers. The Hybrid write rule decomposes every write into a
// leading partial stripe, an integral run of full stripes and a trailing
// partial stripe. Where a group's coding fragments live is the group code's
// business (raid::GroupCode), not the layout's.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace csar::pvfs {

/// Where parity units live (raid::GroupCode::coding_server reads it).
enum class ParityPlacement : std::uint8_t {
  /// CSAR (Figure 2): data striped over all N servers; a group's parity
  /// goes to the one server holding none of its data, rotating per group.
  rotating,
  /// RAID4 (the Swift comparison in §3): data striped over servers
  /// 0..N-2, server N-1 is a dedicated parity server.
  fixed,
};

struct StripeLayout {
  std::uint32_t stripe_unit = 64 * 1024;  ///< su: bytes per unit
  std::uint32_t nservers = 6;             ///< N: number of I/O servers
  ParityPlacement placement = ParityPlacement::rotating;
  /// PVFS's `base` attribute: the server holding the file's first stripe
  /// unit. Spreads the "first server" hot spot when many files coexist.
  std::uint32_t base = 0;

  std::uint64_t su() const { return stripe_unit; }
  std::uint32_t n() const { return nservers; }

  /// Servers holding data units: all N (rotating) or N-1 (fixed parity).
  std::uint32_t data_servers() const {
    return placement == ParityPlacement::rotating ? nservers : nservers - 1;
  }

  /// Width of a full stripe (parity group) in bytes: (N-1) * su in both
  /// placements (a group is one unit per data server under `fixed`, and
  /// N-1 consecutive units under `rotating`). Parity schemes need N >= 2.
  std::uint64_t stripe_width() const {
    assert(nservers >= 2);
    return static_cast<std::uint64_t>(nservers - 1) * stripe_unit;
  }

  // --- unit math ---
  std::uint64_t unit_of(std::uint64_t off) const { return off / stripe_unit; }
  std::uint32_t server_of_unit(std::uint64_t u) const {
    return static_cast<std::uint32_t>((base + u) % data_servers());
  }
  std::uint64_t local_unit(std::uint64_t u) const {
    return u / data_servers();
  }
  /// The first unit at or after `u` that lives on data server `s`; the
  /// server's later units follow every data_servers() units.
  std::uint64_t first_unit_on(std::uint32_t s, std::uint64_t u) const {
    const std::uint32_t dn = data_servers();
    return u + (s + dn - server_of_unit(u)) % dn;
  }

  /// Server-local byte offset of global file offset `off`.
  std::uint64_t local_off(std::uint64_t off) const {
    return local_unit(unit_of(off)) * stripe_unit + off % stripe_unit;
  }

  /// Inverse of local_off for a fixed server: the global file offset of
  /// byte `local` within `server`'s data file.
  std::uint64_t global_off(std::uint32_t server, std::uint64_t local) const {
    const std::uint64_t dn = data_servers();
    const std::uint64_t k = local / stripe_unit;
    const std::uint64_t r = (server + dn - base % dn) % dn;
    return (k * dn + r) * stripe_unit + local % stripe_unit;
  }

  // --- request decomposition ---
  struct Extent {
    std::uint32_t server;      ///< I/O server holding this piece
    std::uint64_t global_off;  ///< offset within the PVFS file
    std::uint64_t local_off;   ///< offset within the server's data file
    std::uint64_t len;
  };

  /// Split [off, off+len) into per-unit extents in global-offset order.
  std::vector<Extent> decompose(std::uint64_t off, std::uint64_t len) const;

  /// Split [off, off+len) into per-server extents, merging unit runs that
  /// are contiguous in a server's local file (which happens exactly when the
  /// global range covers consecutive rows). Order: by server id. One pass
  /// over the servers, not the units.
  std::vector<Extent> decompose_merged(std::uint64_t off,
                                       std::uint64_t len) const;

  /// The Hybrid/RAID5 write split (§4): leading partial stripe, integral
  /// full stripes, trailing partial stripe. Any part may be empty.
  struct WriteSplit {
    std::uint64_t head_start = 0, head_end = 0;  ///< partial group at start
    std::uint64_t full_start = 0, full_end = 0;  ///< whole groups
    std::uint64_t tail_start = 0, tail_end = 0;  ///< partial group at end
  };
  WriteSplit split_write(std::uint64_t off, std::uint64_t len) const {
    return split_write_w(off, len, stripe_width());
  }

  /// split_write generalized to an arbitrary group width `w` (a group
  /// code's k·su).
  WriteSplit split_write_w(std::uint64_t off, std::uint64_t len,
                           std::uint64_t w) const {
    WriteSplit ws;
    const std::uint64_t end = off + len;
    const std::uint64_t gs = align_up(off, w);
    const std::uint64_t ge = align_down(end, w);
    if (gs <= ge) {
      ws.head_start = off;
      ws.head_end = gs;
      ws.full_start = gs;
      ws.full_end = ge;
      ws.tail_start = ge;
      ws.tail_end = end;
    } else {
      // Entirely inside one group: a single partial-stripe segment.
      ws.head_start = off;
      ws.head_end = end;
      ws.full_start = ws.full_end = end;
      ws.tail_start = ws.tail_end = end;
    }
    return ws;
  }
};

}  // namespace csar::pvfs
