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
/// covered by one stored entry comes back as a view of it (no copy).
inline Buffer read_range(const BufferMap& m, std::uint64_t off,
                         std::uint64_t len) {
  const auto chunks = m.query(off, off + len);
  for (const auto& c : chunks) {
    if (!c.value->materialized()) return Buffer::phantom(len);
  }
  if (chunks.size() == 1 && chunks[0].start == off &&
      chunks[0].end == off + len) {
    return chunks[0].value->slice(off - chunks[0].entry_start, len);
  }
  std::vector<Buffer> parts;
  parts.reserve(2 * chunks.size() + 1);
  std::uint64_t pos = off;
  for (const auto& c : chunks) {
    if (c.start > pos) parts.push_back(Buffer::real(c.start - pos));
    parts.push_back(c.value->slice(c.start - c.entry_start, c.end - c.start));
    pos = c.end;
  }
  if (off + len > pos) parts.push_back(Buffer::real(off + len - pos));
  return Buffer::concat(parts);
}

}  // namespace csar
