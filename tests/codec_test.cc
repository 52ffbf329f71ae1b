// Unit tests for the per-section codec layer (io/codec.h): encode→decode
// round-trip identity over adversarial value patterns and every lane
// count used by the bundle sections, exact error reporting on malformed
// streams (the fuzz target's assertions, pinned deterministically), and
// the windowed delta-varint decode giving the one-shot decode's output and
// Status under every window size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/codec.h"

namespace abcs {
namespace {

std::vector<std::byte> Encode(SectionCodec codec,
                              const std::vector<uint32_t>& values,
                              uint32_t lanes) {
  std::vector<std::byte> out;
  const Status st = EncodeU32Section(codec, values.data(),
                                     values.size() * 4, lanes, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

std::vector<uint32_t> Decode(SectionCodec codec,
                             const std::vector<std::byte>& enc,
                             uint32_t lanes, std::size_t count_u32) {
  std::vector<uint32_t> out(count_u32, 0xa5a5a5a5);
  const Status st = DecodeU32Section(codec, enc.data(), enc.size(), lanes,
                                     out.data(), count_u32 * 4);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

Status DecodeStatus(SectionCodec codec, const std::vector<std::byte>& enc,
                    uint32_t lanes, std::size_t count_u32) {
  std::vector<uint32_t> out(count_u32 + 1, 0);
  return DecodeU32Section(codec, enc.data(), enc.size(), lanes, out.data(),
                          count_u32 * 4);
}

// Value patterns that stress each codec's edges: sorted (best case for
// delta), reverse-sorted (negative deltas), constant, alternating
// 0/UINT32_MAX (widest zigzag + width-32 lanes), and uniform random.
std::vector<std::vector<uint32_t>> Patterns(std::size_t count) {
  Rng rng(99);
  std::vector<std::vector<uint32_t>> patterns(5,
                                              std::vector<uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    patterns[0][i] = static_cast<uint32_t>(3 * i);
    patterns[1][i] = static_cast<uint32_t>(7 * (count - i));
    patterns[2][i] = 42;
    patterns[3][i] = i % 2 == 0 ? 0 : std::numeric_limits<uint32_t>::max();
    patterns[4][i] = static_cast<uint32_t>(rng.Next());
  }
  return patterns;
}

TEST(SectionCodecTest, RoundTripIdentityAcrossLanesAndPatterns) {
  // Lane counts 1–4 cover every bundle section element type (u32, Arc,
  // DeltaIndex::Entry, Edge); counts cover empty, one element, and sizes
  // that exercise bit-stream tails at every alignment.
  for (const uint32_t lanes : {1u, 2u, 3u, 4u}) {
    for (const std::size_t elems : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{64},
                                    std::size_t{513}}) {
      for (const auto& values : Patterns(elems * lanes)) {
        for (const SectionCodec codec :
             {SectionCodec::kDeltaVarint, SectionCodec::kBitPack}) {
          const std::vector<std::byte> enc = Encode(codec, values, lanes);
          EXPECT_EQ(Decode(codec, enc, lanes, values.size()), values)
              << SectionCodecName(codec) << " lanes=" << lanes
              << " elems=" << elems;
        }
      }
    }
  }
}

TEST(SectionCodecTest, PerLaneWidthsBeatOneSharedWidth) {
  // The point of the columnar view: a 2-lane array with one narrow and
  // one wide column must pack near the narrow column's width, not pay the
  // wide width twice.
  const std::size_t elems = 4096;
  std::vector<uint32_t> values(elems * 2);
  for (std::size_t i = 0; i < elems; ++i) {
    values[2 * i] = static_cast<uint32_t>(i % 8);     // 3-bit lane
    values[2 * i + 1] = 0x00ffffff;                   // 24-bit lane
  }
  const std::vector<std::byte> enc =
      Encode(SectionCodec::kBitPack, values, 2);
  // ~(3+24)/64 of raw, plus header; a shared 24-bit width would be 48/64.
  EXPECT_LT(enc.size(), values.size() * 4 * 30 / 64);
}

TEST(SectionCodecTest, SortedArraysShrinkUnderDeltaVarint) {
  std::vector<uint32_t> sorted(10000);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<uint32_t>(5 * i + i % 3);
  }
  const std::vector<std::byte> enc =
      Encode(SectionCodec::kDeltaVarint, sorted, 1);
  // Small deltas → 1 byte per value vs 4 raw.
  EXPECT_LT(enc.size(), sorted.size() * 4 / 3);
}

TEST(SectionCodecTest, RawDecodeRequiresMatchingLengths) {
  const std::vector<uint32_t> values = {1, 2, 3, 4};
  std::vector<std::byte> enc(values.size() * 4);
  std::memcpy(enc.data(), values.data(), enc.size());
  EXPECT_EQ(Decode(SectionCodec::kRaw, enc, 1, values.size()), values);
  enc.pop_back();
  const Status st = DecodeStatus(SectionCodec::kRaw, enc, 1, values.size());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

TEST(SectionCodecTest, EncodeRejectsBadShapes) {
  const std::vector<uint32_t> values = {1, 2, 3};
  std::vector<std::byte> out;
  // 3 u32s are not a whole number of 2-lane elements.
  EXPECT_EQ(EncodeU32Section(SectionCodec::kBitPack, values.data(), 12, 2,
                             &out)
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(EncodeU32Section(SectionCodec::kBitPack, values.data(), 12, 0,
                             &out)
                .code(),
            Status::Code::kInvalidArgument);
  // kRaw has no encoder by design.
  EXPECT_EQ(EncodeU32Section(SectionCodec::kRaw, values.data(), 12, 1, &out)
                .code(),
            Status::Code::kInvalidArgument);
}

TEST(SectionCodecTest, TruncatedStreamsFailCleanly) {
  const std::vector<uint32_t> values = Patterns(300)[4];
  for (const SectionCodec codec :
       {SectionCodec::kDeltaVarint, SectionCodec::kBitPack}) {
    std::vector<std::byte> enc = Encode(codec, values, 3);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{1}, enc.size() / 2, enc.size() - 1}) {
      std::vector<std::byte> cut(enc.begin(), enc.begin() + keep);
      const Status st = DecodeStatus(codec, cut, 3, values.size());
      EXPECT_EQ(st.code(), Status::Code::kCorruption)
          << SectionCodecName(codec) << " keep=" << keep;
    }
    // Trailing garbage is rejected too: the TOC's stored length is exact.
    enc.push_back(std::byte{0});
    const Status st = DecodeStatus(codec, enc, 3, values.size());
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << SectionCodecName(codec);
  }
}

TEST(SectionCodecTest, OverlongVarintIsCorruption) {
  // Six continuation bytes: no u32 delta needs more than five.
  const std::vector<std::byte> enc(6, std::byte{0x80});
  const Status st = DecodeStatus(SectionCodec::kDeltaVarint, enc, 1, 1);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("varint"), std::string::npos) << st.ToString();
}

TEST(SectionCodecTest, DeltaOutsideU32RangeIsCorruption) {
  // Zigzag(1) is a delta of -1: from the implicit prev of 0 the first
  // element lands below zero, outside u32.
  const std::vector<std::byte> negative = {std::byte{0x01}};
  Status st = DecodeStatus(SectionCodec::kDeltaVarint, negative, 1, 1);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("outside u32"), std::string::npos)
      << st.ToString();
  // Zigzag(2^32) = 2^33: a +2^32 delta overflows u32 from prev = 0.
  const std::vector<std::byte> overflow = {std::byte{0x80}, std::byte{0x80},
                                           std::byte{0x80}, std::byte{0x80},
                                           std::byte{0x20}};
  st = DecodeStatus(SectionCodec::kDeltaVarint, overflow, 1, 1);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("outside u32"), std::string::npos)
      << st.ToString();
}

TEST(SectionCodecTest, BitPackWidthOver32IsCorruption) {
  std::vector<std::byte> enc = Encode(SectionCodec::kBitPack, {1, 2, 3, 4}, 1);
  enc[0] = std::byte{33};
  const Status st = DecodeStatus(SectionCodec::kBitPack, enc, 1, 4);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("width"), std::string::npos) << st.ToString();
}

TEST(SectionCodecTest, BitPackSizeMismatchIsCorruption) {
  // Claim a wider lane than the payload carries: the size accounting must
  // reject the stream before the reader runs.
  std::vector<std::byte> enc = Encode(SectionCodec::kBitPack, {1, 2, 3, 4}, 1);
  enc[0] = std::byte{31};
  const Status st = DecodeStatus(SectionCodec::kBitPack, enc, 1, 4);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

// ------------------------------------------------- windowed delta-varint --

/// Output and Status of one delta-varint decode, one-shot (`window` 0) or
/// through the refill hook in `window`-byte windows. `inside_varint`
/// counts refills whose window boundary split a varint.
struct WindowedRun {
  std::vector<uint32_t> out;
  Status status;
  std::size_t inside_varint = 0;
};

WindowedRun RunDeltaVarint(const std::vector<std::byte>& enc, uint32_t lanes,
                           std::size_t count_u32, std::size_t window) {
  WindowedRun run;
  run.out.assign(count_u32 + 1, 0xa5a5a5a5);
  if (window == 0) {
    run.status = DecodeU32Section(SectionCodec::kDeltaVarint, enc.data(),
                                  enc.size(), lanes, run.out.data(),
                                  count_u32 * 4);
    return run;
  }
  std::size_t limit = 0;
  run.status = DecodeDeltaVarintWindowed(
      enc.data(), enc.size(), lanes, run.out.data(), count_u32 * 4,
      [&](std::size_t consumed) {
        // The decoder asks only once it has read everything handed out.
        EXPECT_EQ(consumed, limit);
        if (consumed > 0 && (static_cast<uint8_t>(enc[consumed - 1]) & 0x80)) {
          ++run.inside_varint;
        }
        limit = std::min(enc.size(), consumed + window);
        return limit;
      });
  return run;
}

constexpr std::size_t kWindows[] = {1, 2, 3, 7, 64, std::size_t{1} << 20};

/// The windowed decode must match the one-shot decode byte for byte and
/// Status for Status.
void ExpectWindowedMatchesOneShot(const std::vector<std::byte>& enc,
                                  uint32_t lanes, std::size_t count_u32) {
  const WindowedRun want = RunDeltaVarint(enc, lanes, count_u32, 0);
  for (const std::size_t window : kWindows) {
    const WindowedRun got = RunDeltaVarint(enc, lanes, count_u32, window);
    EXPECT_EQ(got.status.ToString(), want.status.ToString())
        << "lanes=" << lanes << " window=" << window;
    EXPECT_EQ(got.out, want.out) << "lanes=" << lanes << " window=" << window;
  }
}

TEST(SectionCodecTest, WindowedDeltaVarintMatchesOneShot) {
  // The alternating 0/UINT32_MAX pattern codes every value as a 5-byte
  // varint, so windows of 1–7 bytes end inside varints; 300 000 random
  // values code to more than 1 MiB, so the 1 MiB window refills too.
  for (const uint32_t lanes : {1u, 2u, 3u}) {
    for (const std::size_t elems : {std::size_t{1}, std::size_t{513}}) {
      for (const auto& values : Patterns(elems * lanes)) {
        ExpectWindowedMatchesOneShot(
            Encode(SectionCodec::kDeltaVarint, values, lanes), lanes,
            values.size());
      }
    }
    const std::vector<uint32_t> big = Patterns(300000 - 300000 % lanes)[4];
    const std::vector<std::byte> enc =
        Encode(SectionCodec::kDeltaVarint, big, lanes);
    ASSERT_GT(enc.size(), std::size_t{1} << 20);
    ExpectWindowedMatchesOneShot(enc, lanes, big.size());
    const WindowedRun run =
        RunDeltaVarint(enc, lanes, big.size(), std::size_t{1} << 20);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_TRUE(std::equal(big.begin(), big.end(), run.out.begin()));
  }
  const std::vector<std::byte> wide =
      Encode(SectionCodec::kDeltaVarint, Patterns(64)[3], 1);
  for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{7}}) {
    EXPECT_GT(RunDeltaVarint(wide, 1, 64, window).inside_varint, 0u)
        << "window=" << window;
  }
}

TEST(SectionCodecTest, WindowedDeltaVarintErrorsMatchOneShot) {
  for (const uint32_t lanes : {1u, 2u, 3u}) {
    const std::vector<uint32_t> values = Patterns(300 * lanes)[4];
    const std::vector<std::byte> enc =
        Encode(SectionCodec::kDeltaVarint, values, lanes);
    // Truncation: the windowed decode overruns exactly where the one-shot
    // decode does, with the same message.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{1}, enc.size() / 2, enc.size() - 1}) {
      const std::vector<std::byte> cut(enc.begin(), enc.begin() + keep);
      ExpectWindowedMatchesOneShot(cut, lanes, values.size());
      for (const std::size_t window : kWindows) {
        EXPECT_EQ(RunDeltaVarint(cut, lanes, values.size(), window)
                      .status.message(),
                  "varint overruns the encoded payload")
            << "keep=" << keep << " window=" << window;
      }
    }
    // Trailing bytes, a wrong element count and a broken shape.
    std::vector<std::byte> trailing = enc;
    trailing.push_back(std::byte{0});
    ExpectWindowedMatchesOneShot(trailing, lanes, values.size());
    ExpectWindowedMatchesOneShot(enc, lanes, values.size() - lanes);
    ExpectWindowedMatchesOneShot(enc, lanes, values.size() + 1);
  }
  // An overlong varint and deltas outside u32, each after a valid prefix.
  std::vector<std::byte> overlong(8, std::byte{0x80});
  overlong[0] = std::byte{0x02};
  ExpectWindowedMatchesOneShot(overlong, 1, 2);
  ExpectWindowedMatchesOneShot({std::byte{0x04}, std::byte{0x05}}, 1, 2);
  ExpectWindowedMatchesOneShot({std::byte{0x02}, std::byte{0x80},
                                std::byte{0x80}, std::byte{0x80},
                                std::byte{0x80}, std::byte{0x20}},
                               1, 2);
}

TEST(SectionCodecTest, BitWidthForIsTheTightestWidth) {
  EXPECT_EQ(BitWidthFor(0), 0u);
  EXPECT_EQ(BitWidthFor(1), 1u);
  EXPECT_EQ(BitWidthFor(3), 2u);
  EXPECT_EQ(BitWidthFor(4), 3u);
  EXPECT_EQ(BitWidthFor(70000), 17u);
  EXPECT_EQ(BitWidthFor(0xffffffffu), 32u);
}

}  // namespace
}  // namespace abcs
