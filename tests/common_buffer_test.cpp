#include "common/buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace csar {
namespace {

TEST(Buffer, RealZeroFilled) {
  Buffer b = Buffer::real(16);
  EXPECT_EQ(b.size(), 16u);
  EXPECT_TRUE(b.materialized());
  for (auto byte : b.bytes()) EXPECT_EQ(byte, std::byte{0});
}

TEST(Buffer, PhantomCarriesOnlySize) {
  Buffer b = Buffer::phantom(1ull << 40);  // 1 TiB costs nothing
  EXPECT_EQ(b.size(), 1ull << 40);
  EXPECT_FALSE(b.materialized());
}

TEST(Buffer, PatternDeterministic) {
  Buffer a = Buffer::pattern(64, 42);
  Buffer b = Buffer::pattern(64, 42);
  Buffer c = Buffer::pattern(64, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a == c, true);
}

TEST(Buffer, SliceCopiesRange) {
  Buffer a = Buffer::pattern(64, 7);
  Buffer s = a.slice(8, 16);
  EXPECT_EQ(s.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(s.bytes()[i], a.bytes()[i + 8]);
  }
}

TEST(Buffer, PhantomSliceStaysPhantom) {
  Buffer p = Buffer::phantom(100);
  Buffer s = p.slice(10, 20);
  EXPECT_FALSE(s.materialized());
  EXPECT_EQ(s.size(), 20u);
}

TEST(Buffer, WriteAtSplices) {
  Buffer dst = Buffer::real(32);
  Buffer src = Buffer::pattern(8, 3);
  dst.write_at(12, src);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dst.bytes()[12 + i], src.bytes()[i]);
  }
  EXPECT_EQ(dst.bytes()[11], std::byte{0});
  EXPECT_EQ(dst.bytes()[20], std::byte{0});
}

TEST(Buffer, XorSelfGivesZero) {
  Buffer a = Buffer::pattern(128, 9);
  Buffer b = Buffer::pattern(128, 9);
  a.xor_with(b);
  for (auto byte : a.bytes()) EXPECT_EQ(byte, std::byte{0});
}

TEST(Buffer, XorRoundTrip) {
  Buffer a = Buffer::pattern(100, 1);
  const Buffer orig = a.slice(0, 100);
  Buffer k = Buffer::pattern(100, 2);
  a.xor_with(k);
  EXPECT_FALSE(a == orig);
  a.xor_with(k);
  EXPECT_EQ(a, orig);
}

TEST(Buffer, ResizeZeroExtends) {
  Buffer a = Buffer::pattern(8, 5);
  a.resize(16);
  EXPECT_EQ(a.size(), 16u);
  for (std::size_t i = 8; i < 16; ++i) EXPECT_EQ(a.bytes()[i], std::byte{0});
}

TEST(Buffer, EqualityBySizeForPhantom) {
  EXPECT_TRUE(Buffer::phantom(5) == Buffer::phantom(5));
  EXPECT_FALSE(Buffer::phantom(5) == Buffer::phantom(6));
  EXPECT_FALSE(Buffer::phantom(5) == Buffer::real(5));
}


TEST(Buffer, XorAtOffsetColumns) {
  // The RAID5 delta path XORs a delta into parity at a column offset.
  Buffer parity = Buffer::pattern(100, 1);
  Buffer delta = Buffer::pattern(30, 2);
  Buffer expect = parity.slice(0, 100);
  for (std::size_t i = 0; i < 30; ++i) {
    expect.mutable_bytes()[40 + i] =
        expect.bytes()[40 + i] ^ delta.bytes()[i];
  }
  parity.xor_at(40, delta);
  EXPECT_EQ(parity, expect);
}

TEST(Buffer, XorAtPhantomNoOp) {
  Buffer a = Buffer::phantom(100);
  Buffer b = Buffer::phantom(40);
  a.xor_at(10, b);  // must not crash and must stay phantom
  EXPECT_FALSE(a.materialized());
  EXPECT_EQ(a.size(), 100u);
}

TEST(Buffer, XorAtEmptySource) {
  Buffer a = Buffer::pattern(10, 1);
  const Buffer orig = a.slice(0, 10);
  a.xor_at(5, Buffer::real(0));
  EXPECT_EQ(a, orig);
}

TEST(Buffer, MoveLeavesSourceEmptyVector) {
  Buffer a = Buffer::pattern(64, 1);
  const void* data = a.bytes().data();
  Buffer b = std::move(a);
  EXPECT_EQ(b.bytes().data(), data);  // ownership transferred, no copy
  EXPECT_EQ(b.size(), 64u);
}

TEST(Buffer, SliceAtEnd) {
  Buffer a = Buffer::pattern(10, 1);
  Buffer s = a.slice(10, 0);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(Buffer, PatternZeroLength) {
  Buffer a = Buffer::pattern(0, 77);
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.materialized());
}

TEST(Buffer, ResizeGrowOfSharedViewZeroExtends) {
  // The view is a prefix of larger shared backing: growing must zero the
  // tail, not expose the bytes that follow the view in the backing.
  const Buffer whole = Buffer::pattern(64, 5);
  Buffer a = whole.slice(0, 8);
  a.resize(16);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.bytes()[i], whole.bytes()[i]);
  }
  for (std::size_t i = 8; i < 16; ++i) EXPECT_EQ(a.bytes()[i], std::byte{0});
  EXPECT_EQ(whole, Buffer::pattern(64, 5));
}

TEST(Buffer, PatternMatchesGoldenHash) {
  // FNV-1a over Buffer::pattern(4096, 7). The bytes feed storm shadows,
  // scrub checksums and run fingerprints, so the storage behind them must
  // never change them.
  const Buffer b = Buffer::pattern(4096, 7);
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::byte x : b.bytes()) {
    h ^= std::to_integer<std::uint64_t>(x);
    h *= 1099511628211ULL;
  }
  EXPECT_EQ(h, 0xca00e8d34489accdULL);
}

TEST(Buffer, FromBytesKeepsTheVectorsBytes) {
  std::vector<std::byte> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::byte(i * 7);
  const std::vector<std::byte> expect = v;
  const Buffer b = Buffer::from_bytes(std::move(v));
  ASSERT_EQ(b.size(), expect.size());
  EXPECT_TRUE(std::equal(b.bytes().begin(), b.bytes().end(), expect.begin()));
}

TEST(Buffer, ConcatOfOneNonEmptyPartSharesItsBytes) {
  const Buffer part = Buffer::pattern(64, 3);
  const std::vector<Buffer> parts = {Buffer(), part.slice(8, 32),
                                     Buffer::real(0)};
  const Buffer out = Buffer::concat(parts);
  EXPECT_EQ(out.size(), 32u);
  EXPECT_EQ(out.bytes().data(), part.bytes().data() + 8);  // no copy
  EXPECT_EQ(out, part.slice(8, 32));
}

TEST(Buffer, ConcatOfSeveralPartsMatchesHandBuiltBytes) {
  const Buffer a = Buffer::pattern(10, 1);
  const Buffer b = Buffer::pattern(7, 2);
  const Buffer c = Buffer::real(5);
  const std::vector<Buffer> parts = {a, Buffer(), b, c};
  std::vector<std::byte> expect;
  for (const Buffer& p : parts) {
    expect.insert(expect.end(), p.bytes().begin(), p.bytes().end());
  }
  const Buffer out = Buffer::concat(parts);
  EXPECT_TRUE(out.materialized());
  EXPECT_EQ(out, Buffer::from_bytes(expect));
}

TEST(Buffer, ConcatOfPhantomPartsIsPhantomOfSummedSize) {
  const std::vector<Buffer> parts = {Buffer::phantom(10), Buffer::phantom(0),
                                     Buffer::phantom(22)};
  const Buffer out = Buffer::concat(parts);
  EXPECT_FALSE(out.materialized());
  EXPECT_EQ(out.size(), 32u);
}

TEST(Buffer, ConcatOfNothingIsEmpty) {
  const Buffer out = Buffer::concat({});
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(out.materialized());
}

TEST(Buffer, ConcatResultAndPartsNeverSeeEachOthersWrites) {
  for (const bool single : {true, false}) {
    std::vector<Buffer> parts;
    parts.reserve(2);
    parts.push_back(Buffer::pattern(16, 4));
    if (!single) parts.push_back(Buffer::pattern(16, 5));
    const Buffer orig_front = parts.front().slice(0, 16);
    Buffer out = Buffer::concat(parts);
    const Buffer orig_out = Buffer::concat(parts);

    out.mutable_bytes()[0] ^= std::byte{0xFF};
    EXPECT_EQ(parts.front(), orig_front);

    out = Buffer::concat(parts);
    parts.front().mutable_bytes()[0] ^= std::byte{0xFF};
    EXPECT_EQ(out, orig_out);
  }
}

}  // namespace
}  // namespace csar
