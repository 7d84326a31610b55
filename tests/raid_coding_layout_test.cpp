// Coding-fragment geometry of the group code (GroupCode::coding_server,
// coding_off and coding_fragment): one formula for RAID4, the RAID5 family,
// Hybrid and rs(k,m), checked exhaustively on small clusters.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "raid/scheme.hpp"

namespace csar::raid {
namespace {

using pvfs::ParityPlacement;
using pvfs::StripeLayout;

constexpr std::uint32_t kSu = 4096;

GroupCode code_on(const StripeLayout& l, std::uint32_t k, std::uint32_t m) {
  return GroupCode{CodeSpec{k, m}, l};
}

TEST(CodingLayout, Figure2ParityPlacement) {
  // The paper's Figure 2: three servers; P[0-1] (parity of D0, D1) is on
  // I/O server 2. Groups of N-1=2 consecutive units.
  const GroupCode gc = *group_code(Scheme::raid5, StripeLayout{1024, 3});
  EXPECT_EQ(gc.group_of_unit(0), 0u);
  EXPECT_EQ(gc.group_of_unit(1), 0u);
  EXPECT_EQ(gc.group_of_unit(2), 1u);
  EXPECT_EQ(gc.coding_server(0, 0), 2u);  // D0 on s0, D1 on s1 -> s2
  EXPECT_EQ(gc.coding_server(1, 0), 1u);  // D2 on s2, D3 on s0 -> s1
  EXPECT_EQ(gc.coding_server(2, 0), 0u);  // D4 on s1, D5 on s2 -> s0
}

TEST(CodingLayout, TwoServerDegenerateParity) {
  // N=2: groups are single units; parity is effectively a rotated mirror.
  const GroupCode gc = *group_code(Scheme::raid5, StripeLayout{1024, 2});
  EXPECT_EQ(gc.coding_server(0, 0), 1u);  // unit 0 on s0 -> parity on s1
  EXPECT_EQ(gc.coding_server(1, 0), 0u);  // unit 1 on s1 -> parity on s0
}

TEST(CodingLayout, Raid4ParityIsDenseOnTheDedicatedServer) {
  const GroupCode gc =
      *group_code(Scheme::raid4, StripeLayout{kSu, 5, ParityPlacement::fixed});
  for (std::uint64_t g = 0; g < 100; ++g) {
    EXPECT_EQ(gc.coding_server(g, 0), 4u);
    EXPECT_EQ(gc.coding_off(g, 0), g * kSu);  // dense in the parity file
  }
}

// Structural invariant of the paper's rotating parity: the parity server of
// a group never holds any of the group's data units, and each server packs
// the parity of every N-th group densely — slot g/N.
class ParityPlacementProperty : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(ParityPlacementProperty, ParityServerHoldsNoGroupData) {
  const std::uint32_t n = GetParam();
  const GroupCode gc = *group_code(Scheme::raid5, StripeLayout{kSu, n});
  for (std::uint64_t g = 0; g < 200; ++g) {
    const std::uint32_t ps = gc.coding_server(g, 0);
    for (std::uint64_t u = g * (n - 1); u < (g + 1) * (n - 1); ++u) {
      ASSERT_NE(gc.layout.server_of_unit(u), ps)
          << "group " << g << " unit " << u << " collides with parity";
    }
  }
}

TEST_P(ParityPlacementProperty, ParityLocalUnitsAreDense) {
  // Each server holds parity for every N-th group, packed densely into its
  // redundancy file: local indices 0,1,2,... per server with no gaps.
  const std::uint32_t n = GetParam();
  const GroupCode gc = *group_code(Scheme::raid5, StripeLayout{kSu, n});
  std::vector<std::uint64_t> next(n, 0);
  for (std::uint64_t g = 0; g < 500; ++g) {
    const std::uint32_t ps = gc.coding_server(g, 0);
    ASSERT_EQ(gc.coding_off(g, 0), next[ps] * kSu) << "group " << g;
    ASSERT_EQ(gc.coding_off(g, 0), g / n * kSu) << "group " << g;
    ++next[ps];
  }
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, ParityPlacementProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 16));

// The general geometry over every cluster size N <= 16: for every base,
// every rotating k+m <= N and RAID4's fixed placement, (1) a group's k+m
// fragments sit on distinct servers, (2) each server's coding slots, in
// group order, are 0, 1, 2, ... with no gaps, (3) coding_fragment inverts
// coding_off, and (4) with m = 1 and k = N-1 or k = 1 the slot is the
// classic rotating parity slot g/N.
void check_geometry(const GroupCode& gc) {
  const std::uint32_t n = gc.layout.n();
  const std::uint32_t frags = gc.k() + gc.m();
  const bool classic_rotating =
      gc.layout.placement == ParityPlacement::rotating && gc.m() == 1 &&
      (gc.k() == n - 1 || gc.k() == 1);
  std::vector<std::uint64_t> next(n, 0);
  // Two full rounds of N groups, then some: the placement repeats every N
  // groups, so a slot-count error shows by the second round.
  for (std::uint64_t g = 0; g < 2 * n + 3; ++g) {
    std::set<std::uint32_t> servers;
    for (std::uint32_t f = 0; f < frags; ++f) {
      servers.insert(gc.fragment_server(g, f));
    }
    ASSERT_EQ(servers.size(), frags) << "group " << g;
    for (std::uint32_t j = 0; j < gc.m(); ++j) {
      const std::uint32_t s = gc.coding_server(g, j);
      const std::uint64_t off = gc.coding_off(g, j);
      ASSERT_EQ(off, next[s] * kSu) << "group " << g << " fragment " << j;
      if (classic_rotating) {
        ASSERT_EQ(off, g / n * kSu) << "group " << g;
      }
      ++next[s];
      const auto back = gc.coding_fragment(s, off / kSu);
      ASSERT_TRUE(back.has_value());
      ASSERT_EQ(*back, std::make_pair(g, j)) << "group " << g;
    }
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    if (next[s] == 0) {
      EXPECT_FALSE(gc.coding_fragment(s, 0).has_value()) << "server " << s;
    }
  }
}

class CodingGeometryProperty
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CodingGeometryProperty, RotatingEveryBaseAndCode) {
  const std::uint32_t n = GetParam();
  for (std::uint32_t base = 0; base < n; ++base) {
    const StripeLayout l{kSu, n, ParityPlacement::rotating, base};
    for (std::uint32_t k = 1; k < n; ++k) {
      for (std::uint32_t m = 1; k + m <= n; ++m) {
        SCOPED_TRACE(testing::Message() << "N=" << n << " base=" << base
                                        << " k=" << k << " m=" << m);
        check_geometry(code_on(l, k, m));
      }
    }
  }
}

TEST_P(CodingGeometryProperty, Raid4Fixed) {
  const std::uint32_t n = GetParam();
  const StripeLayout l{kSu, n, ParityPlacement::fixed};
  check_geometry(code_on(l, n - 1, 1));
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, CodingGeometryProperty,
                         ::testing::Range(2u, 17u));

TEST(CodingLayout, RsRedundancyFilesHaveNoHoles) {
  // rs(4,2) on 6 servers: every server codes 2 of every 6 groups; 12 groups
  // fill slots 0..3 on each server.
  const GroupCode gc = *group_code(Scheme::rs(4, 2), StripeLayout{kSu, 6});
  std::vector<std::uint64_t> max_slot(6, 0);
  std::vector<std::uint64_t> count(6, 0);
  for (std::uint64_t g = 0; g < 12; ++g) {
    for (std::uint32_t j = 0; j < 2; ++j) {
      const std::uint32_t s = gc.coding_server(g, j);
      max_slot[s] = std::max(max_slot[s], gc.coding_off(g, j) / kSu);
      ++count[s];
    }
  }
  for (std::uint32_t s = 0; s < 6; ++s) {
    EXPECT_EQ(count[s], 4u) << "server " << s;
    EXPECT_EQ(max_slot[s], 3u) << "server " << s;
  }
}

}  // namespace
}  // namespace csar::raid
