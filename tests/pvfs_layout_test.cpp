#include "pvfs/layout.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/rng.hpp"
#include "pvfs/client.hpp"

namespace csar::pvfs {
namespace {

TEST(Layout, UnitAndServerMath) {
  StripeLayout l{1024, 4};
  EXPECT_EQ(l.unit_of(0), 0u);
  EXPECT_EQ(l.unit_of(1023), 0u);
  EXPECT_EQ(l.unit_of(1024), 1u);
  EXPECT_EQ(l.server_of_unit(0), 0u);
  EXPECT_EQ(l.server_of_unit(3), 3u);
  EXPECT_EQ(l.server_of_unit(4), 0u);
  EXPECT_EQ(l.local_unit(0), 0u);
  EXPECT_EQ(l.local_unit(4), 1u);
  EXPECT_EQ(l.local_unit(9), 2u);
}

TEST(Layout, LocalOffRoundTrip) {
  StripeLayout l{1024, 4};
  // Global offset 5000 -> unit 4 (server 0, local unit 1), 904 bytes in.
  EXPECT_EQ(l.local_off(5000), 1024 + 5000 % 1024);
}

TEST(Layout, StripeWidth) {
  StripeLayout l{16 * 1024, 6};
  EXPECT_EQ(l.stripe_width(), 5u * 16 * 1024);
}

// PVFS's `base` attribute shifts the whole placement; every structural
// invariant must hold for every base.
class BaseOffsetProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(BaseOffsetProperty, PlacementInvariantsHoldForEveryBase) {
  const auto [n, base] = GetParam();
  StripeLayout l{4096, n, ParityPlacement::rotating, base};
  // Unit 0 starts at the base server. (The coding placement's invariants
  // for every base are GroupCode's, in raid_coding_layout_test.)
  EXPECT_EQ(l.server_of_unit(0), base % n);
  // Decomposition still covers exactly.
  Rng rng(47 + base);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t off = rng.below(100000);
    const std::uint64_t len = 1 + rng.below(50000);
    std::uint64_t total = 0;
    for (const auto& e : l.decompose(off, len)) {
      ASSERT_EQ(e.server, l.server_of_unit(l.unit_of(e.global_off)));
      total += e.len;
    }
    ASSERT_EQ(total, len);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BasesAndSizes, BaseOffsetProperty,
    ::testing::Combine(::testing::Values(3u, 5u, 6u, 8u),
                       ::testing::Values(0u, 1u, 2u, 4u)));

TEST(Layout, DecomposeSingleUnit) {
  StripeLayout l{1024, 4};
  auto ex = l.decompose(100, 200);
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_EQ(ex[0].server, 0u);
  EXPECT_EQ(ex[0].global_off, 100u);
  EXPECT_EQ(ex[0].local_off, 100u);
  EXPECT_EQ(ex[0].len, 200u);
}

TEST(Layout, DecomposeCrossesUnits) {
  StripeLayout l{1024, 4};
  auto ex = l.decompose(1000, 100);  // 24 bytes in unit 0, 76 in unit 1
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex[0].server, 0u);
  EXPECT_EQ(ex[0].len, 24u);
  EXPECT_EQ(ex[1].server, 1u);
  EXPECT_EQ(ex[1].local_off, 0u);
  EXPECT_EQ(ex[1].len, 76u);
}

TEST(Layout, DecomposeCoversExactly) {
  StripeLayout l{512, 3};
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t off = rng.below(10000);
    const std::uint64_t len = 1 + rng.below(5000);
    auto ex = l.decompose(off, len);
    std::uint64_t pos = off;
    std::uint64_t total = 0;
    for (const auto& e : ex) {
      ASSERT_EQ(e.global_off, pos);  // contiguous, ordered
      ASSERT_EQ(e.server, l.server_of_unit(l.unit_of(e.global_off)));
      ASSERT_EQ(e.local_off, l.local_off(e.global_off));
      // Never crosses a unit boundary.
      ASSERT_EQ(l.unit_of(e.global_off), l.unit_of(e.global_off + e.len - 1));
      pos += e.len;
      total += e.len;
    }
    ASSERT_EQ(total, len);
  }
}

TEST(Layout, DecomposeMergedOneExtentPerServer) {
  StripeLayout l{512, 3};
  Rng rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t off = rng.below(10000);
    const std::uint64_t len = 1 + rng.below(8000);
    auto merged = l.decompose_merged(off, len);
    std::set<std::uint32_t> seen;
    std::uint64_t total = 0;
    for (const auto& e : merged) {
      ASSERT_TRUE(seen.insert(e.server).second) << "duplicate server extent";
      total += e.len;
    }
    ASSERT_EQ(total, len);
    // Merged extent length equals the sum of that server's unit pieces, and
    // the pieces tile [local_off, local_off + len) exactly.
    for (const auto& m : merged) {
      std::uint64_t pos = m.local_off;
      for (const auto& e : l.decompose(off, len)) {
        if (e.server != m.server) continue;
        ASSERT_EQ(e.local_off, pos);
        pos += e.len;
      }
      ASSERT_EQ(pos, m.local_off + m.len);
    }
  }
}

TEST(Layout, SplitWriteAligned) {
  StripeLayout l{1000, 3};  // width 2000
  auto ws = l.split_write(2000, 4000);
  EXPECT_EQ(ws.head_start, ws.head_end);  // empty head
  EXPECT_EQ(ws.full_start, 2000u);
  EXPECT_EQ(ws.full_end, 6000u);
  EXPECT_EQ(ws.tail_start, ws.tail_end);  // empty tail
}

TEST(Layout, SplitWriteUnaligned) {
  StripeLayout l{1000, 3};  // width 2000
  auto ws = l.split_write(1500, 5000);    // [1500, 6500)
  EXPECT_EQ(ws.head_start, 1500u);
  EXPECT_EQ(ws.head_end, 2000u);
  EXPECT_EQ(ws.full_start, 2000u);
  EXPECT_EQ(ws.full_end, 6000u);
  EXPECT_EQ(ws.tail_start, 6000u);
  EXPECT_EQ(ws.tail_end, 6500u);
}

TEST(Layout, SplitWriteInsideOneGroup) {
  StripeLayout l{1000, 3};
  auto ws = l.split_write(100, 500);
  EXPECT_EQ(ws.head_start, 100u);
  EXPECT_EQ(ws.head_end, 600u);
  EXPECT_EQ(ws.full_start, ws.full_end);
  EXPECT_EQ(ws.tail_start, ws.tail_end);
}

TEST(Layout, SplitWriteCrossesBoundaryWithoutFullGroup) {
  StripeLayout l{1000, 3};
  auto ws = l.split_write(1800, 400);  // [1800, 2200): two partial segments
  EXPECT_EQ(ws.head_start, 1800u);
  EXPECT_EQ(ws.head_end, 2000u);
  EXPECT_EQ(ws.full_start, ws.full_end);
  EXPECT_EQ(ws.tail_start, 2000u);
  EXPECT_EQ(ws.tail_end, 2200u);
}

TEST(Layout, SplitWriteProperty) {
  StripeLayout l{512, 5};
  Rng rng(37);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t off = rng.below(100000);
    const std::uint64_t len = 1 + rng.below(50000);
    auto ws = l.split_write(off, len);
    const std::uint64_t w = l.stripe_width();
    // The three parts tile [off, off+len) in order.
    ASSERT_EQ(ws.head_start, off);
    ASSERT_LE(ws.head_start, ws.head_end);
    ASSERT_EQ(ws.full_start, ws.head_end);
    ASSERT_LE(ws.full_start, ws.full_end);
    ASSERT_EQ(ws.tail_start, ws.full_end);
    ASSERT_LE(ws.tail_start, ws.tail_end);
    ASSERT_EQ(ws.tail_end, off + len);
    // A non-empty full part is group-aligned; partials never span a group.
    if (ws.full_end > ws.full_start) {
      ASSERT_EQ(ws.full_start % w, 0u);
      ASSERT_EQ(ws.full_end % w, 0u);
    }
    ASSERT_LT(ws.head_end - ws.head_start, w);
    ASSERT_LT(ws.tail_end - ws.tail_start, w);
    // The paper's claim: at most two partial stripes per contiguous write.
    int partials = 0;
    if (ws.head_end > ws.head_start) ++partials;
    if (ws.tail_end > ws.tail_start) ++partials;
    ASSERT_LE(partials, 2);
  }
}

TEST(Layout, TwoServerDegenerateStripe) {
  // N=2: a full stripe is a single unit.
  StripeLayout l{1024, 2};
  EXPECT_EQ(l.stripe_width(), 1024u);
}

TEST(Layout, GatherWithinOneUnitIsAViewOfTheCallersBytes) {
  StripeLayout l{1024, 4};
  const Buffer data = Buffer::pattern(500, 1);
  const std::uint64_t off = 1024 + 100;  // inside unit 1, on server 1
  const auto merged = l.decompose_merged(off, data.size());
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].server, 1u);
  const Buffer got = Client::gather_for_server(l, off, data, merged[0]);
  EXPECT_EQ(got.size(), 500u);
  EXPECT_EQ(got.bytes().data(), data.bytes().data());  // no copy
}

TEST(Layout, GatherAcrossStripesGivesEachServersBytesInLocalOrder) {
  const std::uint64_t su = 1024;
  const std::uint32_t n = 4;
  StripeLayout l{su, n};
  const std::uint64_t off = 512;
  const std::uint64_t len = 3 * n * su + 300;
  const Buffer data = Buffer::pattern(len, 2);
  const auto merged = l.decompose_merged(off, len);
  ASSERT_EQ(merged.size(), n);
  std::uint64_t sum = 0;
  for (const auto& e : merged) {
    // Byte i of the file lives on server (i / su) % n, and a server's
    // local order is its global order.
    std::vector<std::byte> expect;
    for (std::uint64_t i = off; i < off + len; ++i) {
      if ((i / su) % n == e.server) expect.push_back(data.bytes()[i - off]);
    }
    const Buffer got = Client::gather_for_server(l, off, data, e);
    EXPECT_EQ(got, Buffer::from_bytes(expect)) << "server " << e.server;
    sum += got.size();
  }
  EXPECT_EQ(sum, len);
  const Buffer phantom =
      Client::gather_for_server(l, off, Buffer::phantom(len), merged[1]);
  EXPECT_FALSE(phantom.materialized());
  EXPECT_EQ(phantom.size(),
            Client::gather_for_server(l, off, data, merged[1]).size());
}


// decompose_merged and gather_for_server walk the servers' units directly;
// these references rebuild both from the per-unit decompose, and every
// layout shape must agree with them.
std::vector<StripeLayout::Extent> merged_reference(const StripeLayout& l,
                                                   std::uint64_t off,
                                                   std::uint64_t len) {
  std::vector<StripeLayout::Extent> per_server(l.n(), {0, 0, 0, 0});
  std::vector<bool> seen(l.n(), false);
  for (const auto& e : l.decompose(off, len)) {
    if (!seen[e.server]) {
      per_server[e.server] = e;
      seen[e.server] = true;
    } else {
      per_server[e.server].len += e.len;
    }
  }
  std::vector<StripeLayout::Extent> out;
  for (std::uint32_t s = 0; s < l.n(); ++s) {
    if (seen[s]) out.push_back(per_server[s]);
  }
  return out;
}

Buffer gather_reference(const StripeLayout& l, std::uint64_t off,
                        const Buffer& data, std::uint32_t s) {
  std::vector<Buffer> parts;
  for (const auto& e : l.decompose(off, data.size())) {
    if (e.server == s) parts.push_back(data.slice(e.global_off - off, e.len));
  }
  return Buffer::concat(parts);
}

void expect_matches_reference(const StripeLayout& l, std::uint64_t off,
                              std::uint64_t len, const Buffer& pool) {
  const std::string where = "su=" + std::to_string(l.stripe_unit) +
                            " n=" + std::to_string(l.n()) +
                            " base=" + std::to_string(l.base) +
                            " fixed=" +
                            std::to_string(l.placement == ParityPlacement::fixed) +
                            " off=" + std::to_string(off) +
                            " len=" + std::to_string(len);
  const auto units = l.decompose(off, len);
  std::uint64_t covered = 0;
  for (const auto& e : units) covered += e.len;
  EXPECT_EQ(covered, len) << where;

  const auto got = l.decompose_merged(off, len);
  const auto want = merged_reference(l, off, len);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].server, want[i].server) << where;
    EXPECT_EQ(got[i].global_off, want[i].global_off) << where;
    EXPECT_EQ(got[i].local_off, want[i].local_off) << where;
    EXPECT_EQ(got[i].len, want[i].len) << where;
  }

  const Buffer real = pool.slice(0, len);
  const Buffer phantom = Buffer::phantom(len);
  for (const auto& e : got) {
    const std::uint32_t s = e.server;
    const Buffer g = Client::gather_for_server(l, off, real, e);
    EXPECT_TRUE(g.materialized()) << where << " s=" << s;
    EXPECT_EQ(g, gather_reference(l, off, real, s)) << where << " s=" << s;
    const Buffer gp = Client::gather_for_server(l, off, phantom, e);
    EXPECT_FALSE(gp.materialized()) << where << " s=" << s;
    EXPECT_EQ(gp.size(), g.size()) << where << " s=" << s;
  }
}

TEST(Layout, MergedAndGatherMatchTheirDecomposeReferences) {
  Rng rng(0xDEC0);
  for (const std::uint32_t su : {1024u, 64u * 1024u}) {
    for (std::uint32_t n = 1; n <= 9; ++n) {
      const Buffer pool = Buffer::pattern(3ull * n * su + su, n);
      for (const auto placement :
           {ParityPlacement::rotating, ParityPlacement::fixed}) {
        if (placement == ParityPlacement::fixed && n < 2) continue;
        for (std::uint32_t base = 0; base < n; ++base) {
          StripeLayout l{su, n, placement, base};
          const std::uint64_t span = 3ull * n * su + su;
          expect_matches_reference(l, 0, 0, pool);
          expect_matches_reference(l, 0, span, pool);
          expect_matches_reference(l, rng.below(span), 0, pool);
          for (int i = 0; i < 6; ++i) {
            const std::uint64_t off = rng.below(4ull * n * su);
            expect_matches_reference(l, off, 1 + rng.below(span - 1), pool);
          }
          // Unit-aligned and one-byte edges.
          expect_matches_reference(l, su, su, pool);
          expect_matches_reference(l, su - 1, 2, pool);
        }
      }
    }
  }
}

}  // namespace
}  // namespace csar::pvfs
