#include "common/parity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/buffer.hpp"
#include "common/rng.hpp"

namespace csar {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.below(256));
  return v;
}

TEST(Parity, XorBytesBasic) {
  std::vector<std::byte> a = {std::byte{0xF0}, std::byte{0x0F}};
  std::vector<std::byte> b = {std::byte{0xFF}, std::byte{0xFF}};
  xor_bytes(a, b);
  EXPECT_EQ(a[0], std::byte{0x0F});
  EXPECT_EQ(a[1], std::byte{0xF0});
}

// Word-wise and byte-wise kernels must agree on every length (alignment
// tails are where word-wise code goes wrong).
class ParityKernelEquivalence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(ParityKernelEquivalence, WordMatchesByte) {
  const std::size_t n = GetParam();
  Rng rng(1234 + n);
  auto src = random_bytes(rng, n);
  auto dst1 = random_bytes(rng, n);
  auto dst2 = dst1;
  xor_bytes(dst1, src);
  xor_words(dst2, src);
  EXPECT_EQ(dst1, dst2) << "length " << n;
}

// The fused form dst = a ^ b equals copying a and XORing b into it, at every
// length and with unaligned starts.
TEST_P(ParityKernelEquivalence, FusedCopyXorMatchesCopyThenXor) {
  const std::size_t n = GetParam();
  Rng rng(4321 + n);
  for (const std::size_t skew : {0u, 1u, 3u}) {
    const auto a = random_bytes(rng, n + skew);
    const auto b = random_bytes(rng, n + 2 * skew);
    std::vector<std::byte> want(a.begin() + skew, a.end());
    xor_bytes(want, std::span<const std::byte>(b).subspan(2 * skew, n));
    std::vector<std::byte> got(n + skew);
    xor_words(std::span<std::byte>(got).subspan(skew, n),
              std::span<const std::byte>(a).subspan(skew, n),
              std::span<const std::byte>(b).subspan(2 * skew, n));
    EXPECT_EQ(std::vector<std::byte>(got.begin() + skew, got.end()), want)
        << "length " << n << " skew " << skew;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ParityKernelEquivalence,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                                           63, 64, 65, 1023, 1024, 4096,
                                           4097));

TEST(Parity, SelfInverse) {
  Rng rng(99);
  auto src = random_bytes(rng, 257);
  auto dst = random_bytes(rng, 257);
  const auto orig = dst;
  xor_words(dst, src);
  xor_words(dst, src);
  EXPECT_EQ(dst, orig);
}

TEST(Parity, AccumulateRecoversMissingSource) {
  // RAID5 invariant: P = D0 ^ D1 ^ D2  =>  D1 = P ^ D0 ^ D2.
  Rng rng(5);
  constexpr std::size_t kN = 128;
  auto d0 = random_bytes(rng, kN);
  auto d1 = random_bytes(rng, kN);
  auto d2 = random_bytes(rng, kN);
  std::vector<std::byte> parity(kN, std::byte{0});
  std::vector<std::span<const std::byte>> all = {d0, d1, d2};
  xor_accumulate(parity, all);

  std::vector<std::byte> rebuilt(kN, std::byte{0});
  std::vector<std::span<const std::byte>> survivors = {parity, d0, d2};
  xor_accumulate(rebuilt, survivors);
  EXPECT_EQ(rebuilt, d1);
}

TEST(Parity, ShortSourceContributesPrefix) {
  // Parity of zero-padded units: a short source only affects its prefix.
  std::vector<std::byte> dst(8, std::byte{0});
  std::vector<std::byte> s1 = {std::byte{0xAA}, std::byte{0xBB}};
  std::vector<std::span<const std::byte>> srcs = {s1};
  xor_accumulate(dst, srcs);
  EXPECT_EQ(dst[0], std::byte{0xAA});
  EXPECT_EQ(dst[1], std::byte{0xBB});
  for (std::size_t i = 2; i < 8; ++i) EXPECT_EQ(dst[i], std::byte{0});
}

TEST(Parity, BufferXorUsesWordKernel) {
  Buffer a = Buffer::pattern(1000, 1);
  Buffer b = Buffer::pattern(1000, 2);
  Buffer expect = Buffer::real(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    expect.mutable_bytes()[i] = a.bytes()[i] ^ b.bytes()[i];
  }
  a.xor_with(b);
  EXPECT_EQ(a, expect);
}

// xor_with on a shared view writes this ^ other into fresh backing in one
// pass; it must give exactly what copy-then-XOR gives, byte for byte, and
// leave every buffer sharing the old backing untouched.
TEST(Buffer, SharedXorMatchesCopyThenXor) {
  const std::uint64_t sizes[] = {1, 7, 8, 31, 32, 33, 100, 4099};
  const std::uint64_t offs[] = {0, 1, 5, 13};
  std::uint64_t seed = 1;
  for (const std::uint64_t n : sizes) {
    for (const std::uint64_t m : {n / 2, n, n + 9}) {
      for (const std::uint64_t off : offs) {
        for (const std::uint64_t other_off : offs) {
          const Buffer backing = Buffer::pattern(n + off + 3, ++seed);
          const Buffer other_backing = Buffer::pattern(m + other_off, ++seed);
          const Buffer other = other_backing.slice(other_off, m);
          // Reference: copy the view's bytes, then XOR the common prefix.
          std::vector<std::byte> want(backing.bytes().begin() + off,
                                      backing.bytes().begin() + off + n);
          for (std::uint64_t i = 0; i < std::min(n, m); ++i) {
            want[i] ^= other.bytes()[i];
          }
          Buffer target = backing.slice(off, n);  // shared: fused path
          target.xor_with(other);
          EXPECT_EQ(target, Buffer::from_bytes(want))
              << "n=" << n << " m=" << m << " off=" << off;
          EXPECT_EQ(backing, Buffer::pattern(n + off + 3, seed - 1));
          EXPECT_EQ(other_backing, Buffer::pattern(m + other_off, seed));

          Buffer owned = Buffer::real(n);  // unshared: XORs in place
          owned.write_at(0, backing.slice(off, n));
          owned.xor_with(other);
          EXPECT_EQ(owned, target);
        }
      }
    }
  }
}

TEST(Buffer, SharedXorWithAnAliasOfItsOwnBacking) {
  const Buffer backing = Buffer::pattern(64, 3);
  Buffer a = backing.slice(0, 40);
  const Buffer b = backing.slice(7, 40);
  std::vector<std::byte> want(backing.bytes().begin(),
                              backing.bytes().begin() + 40);
  for (std::size_t i = 0; i < 40; ++i) want[i] ^= backing.bytes()[7 + i];
  a.xor_with(b);
  EXPECT_EQ(a, Buffer::from_bytes(want));
  EXPECT_EQ(backing, Buffer::pattern(64, 3));
  EXPECT_EQ(b, Buffer::pattern(64, 3).slice(7, 40));
}

}  // namespace
}  // namespace csar
