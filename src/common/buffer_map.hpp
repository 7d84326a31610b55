// BufferMap: sparse byte content — disjoint file ranges each holding a
// Buffer. Overwrites trim partially covered entries by slicing, which is a
// view of the same backing, so storing and trimming never copies bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.hpp"
#include "common/interval_map.hpp"

namespace csar {

struct BufferSlicer {
  Buffer operator()(const Buffer& b, std::uint64_t off,
                    std::uint64_t len) const {
    return b.slice(off, len);
  }
};

using BufferMap = IntervalMap<Buffer, BufferSlicer>;

/// The content of [off, off+len): stored bytes, with unmapped gaps reading
/// as zeros. Phantom if any stored piece in the range is phantom. A range
/// covered by one stored entry comes back as a view of it (no copy); only a
/// range of several pieces builds a parts list.
inline Buffer read_range(const BufferMap& m, std::uint64_t off,
                         std::uint64_t len) {
  const std::uint64_t end = off + len;
  std::size_t n = 0;
  bool phantom = false;
  BufferMap::Query first{};
  m.for_each_overlap(off, end, [&](const BufferMap::Query& c) {
    if (n++ == 0) first = c;
    phantom = phantom || !c.value->materialized();
  });
  if (phantom) return Buffer::phantom(len);
  if (n == 1 && first.start == off && first.end == end) {
    return first.value->slice(off - first.entry_start, len);
  }
  std::vector<Buffer> parts;
  parts.reserve(2 * n + 1);
  std::uint64_t pos = off;
  m.for_each_overlap(off, end, [&](const BufferMap::Query& c) {
    if (c.start > pos) parts.push_back(Buffer::real(c.start - pos));
    parts.push_back(c.value->slice(c.start - c.entry_start, c.end - c.start));
    pos = c.end;
  });
  if (end > pos) parts.push_back(Buffer::real(end - pos));
  return Buffer::concat(parts);
}

}  // namespace csar
