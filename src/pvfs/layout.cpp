#include "pvfs/layout.hpp"

#include <algorithm>

namespace csar::pvfs {

std::vector<StripeLayout::Extent> StripeLayout::decompose(
    std::uint64_t off, std::uint64_t len) const {
  std::vector<Extent> out;
  if (len == 0) return out;
  const std::uint64_t end = off + len;
  out.reserve(unit_of(end - 1) - unit_of(off) + 1);
  std::uint64_t pos = off;
  while (pos < end) {
    const std::uint64_t u = unit_of(pos);
    const std::uint64_t unit_end = (u + 1) * stripe_unit;
    const std::uint64_t n = std::min(end, unit_end) - pos;
    out.push_back(Extent{server_of_unit(u), pos, local_off(pos), n});
    pos += n;
  }
  return out;
}

std::vector<StripeLayout::Extent> StripeLayout::decompose_merged(
    std::uint64_t off, std::uint64_t len) const {
  std::vector<Extent> out;
  if (len == 0) return out;
  // Per-unit pieces of one server tile a contiguous local range (interior
  // units of a contiguous global range are fully covered), so each server
  // gets exactly one extent, spanning from its first piece's local offset
  // to its last piece's local end. global_off records the first global byte.
  const std::uint64_t end = off + len;
  const std::uint64_t u0 = unit_of(off);
  const std::uint64_t u1 = unit_of(end - 1);
  const std::uint32_t dn = data_servers();
  out.reserve(std::min<std::uint64_t>(u1 - u0 + 1, dn));
  for (std::uint32_t s = 0; s < dn; ++s) {
    const std::uint64_t first = first_unit_on(s, u0);
    if (first > u1) continue;
    const std::uint64_t last = first + (u1 - first) / dn * dn;
    const std::uint64_t gs = std::max(off, first * stripe_unit);
    const std::uint64_t ge = std::min(end, (last + 1) * stripe_unit);
    const std::uint64_t ls = local_off(gs);
    out.push_back(Extent{s, gs, ls, local_off(ge - 1) + 1 - ls});
  }
  return out;
}

}  // namespace csar::pvfs
