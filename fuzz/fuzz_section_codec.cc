// libFuzzer harness for the bundle section codecs (io/codec.h). Three
// properties, all over fully attacker-controlled bytes:
//
//  1. Decode totality: DecodeU32Section over arbitrary input under every
//     codec tag, lane count and claimed decoded size either fills the
//     output exactly or fails with a clean Status — never an OOB read or
//     write (the output buffer is canary-guarded on both ends).
//  2. Windowed decode: the delta-varint decode fed through its refill
//     hook, in windows whose sizes the input picks, returns the same
//     status code and message and writes the same output as the one-shot
//     decode.
//  3. Round-trip identity: interpreting the input as element data,
//     encode→decode under each codec must reproduce it bit for bit.
//
// The first byte steers lane count and the decoded-size skew so one
// corpus explores all section shapes the bundle TOC can legally claim;
// it and the payload bytes also pick the window sizes.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "io/codec.h"

namespace {

constexpr uint32_t kCanary = 0xdeadbeef;

void CheckedDecode(abcs::SectionCodec codec, const std::byte* data,
                   std::size_t size, uint32_t lanes,
                   std::size_t decoded_u32s) {
  std::vector<uint32_t> out(decoded_u32s + 2, kCanary);
  const abcs::Status st = abcs::DecodeU32Section(
      codec, data, size, lanes, out.data() + 1, decoded_u32s * 4);
  (void)st;
  if (out.front() != kCanary || out.back() != kCanary) std::abort();
}

/// Property 2. Window k spans 1 + (payload byte k ^ `mix`) % `spread`
/// bytes, so one input tries both byte-sized windows (`spread` 1) and
/// windows of up to 256 bytes, with boundaries anywhere in a varint.
void CheckWindowedDecode(const std::byte* data, std::size_t size,
                         uint32_t lanes, std::size_t decoded_u32s,
                         uint8_t mix, std::size_t spread) {
  std::vector<uint32_t> want(decoded_u32s, kCanary);
  const abcs::Status one_shot =
      abcs::DecodeU32Section(abcs::SectionCodec::kDeltaVarint, data, size,
                             lanes, want.data(), decoded_u32s * 4);
  std::vector<uint32_t> got(decoded_u32s, kCanary);
  std::size_t limit = 0;
  std::size_t refills = 0;
  const abcs::Status windowed = abcs::DecodeDeltaVarintWindowed(
      data, size, lanes, got.data(), decoded_u32s * 4,
      [&](std::size_t consumed) {
        if (consumed != limit || consumed >= size) std::abort();
        const uint8_t pick = static_cast<uint8_t>(data[refills++ % size]);
        limit = std::min(size, consumed + 1 + (pick ^ mix) % spread);
        return limit;
      });
  if (windowed.code() != one_shot.code() ||
      windowed.message() != one_shot.message() || got != want) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t steer = data[0];
  const std::byte* payload = reinterpret_cast<const std::byte*>(data + 1);
  const std::size_t payload_size = size - 1;

  const uint32_t lanes = 1 + steer % 4;
  // Decoded sizes from "empty" through "far larger than the input" probe
  // truncation, exact-fit and overrun paths of every decoder.
  const std::size_t skew[] = {0, payload_size / 4, payload_size,
                              payload_size * 3 + 8};
  for (const std::size_t u32s_raw : skew) {
    const std::size_t u32s = u32s_raw - u32s_raw % lanes;
    for (const abcs::SectionCodec codec :
         {abcs::SectionCodec::kRaw, abcs::SectionCodec::kDeltaVarint,
          abcs::SectionCodec::kBitPack}) {
      CheckedDecode(codec, payload, payload_size, lanes, u32s);
    }
    for (const std::size_t spread : {std::size_t{1}, std::size_t{256}}) {
      CheckWindowedDecode(payload, payload_size, lanes, u32s, steer, spread);
    }
  }

  // Round trip: the input bytes as element data.
  const std::size_t elem_u32s = (payload_size / 4 / lanes) * lanes;
  if (elem_u32s == 0) return 0;
  std::vector<uint32_t> values(elem_u32s);
  std::memcpy(values.data(), payload, elem_u32s * 4);
  for (const abcs::SectionCodec codec :
       {abcs::SectionCodec::kDeltaVarint, abcs::SectionCodec::kBitPack}) {
    std::vector<std::byte> enc;
    if (!abcs::EncodeU32Section(codec, values.data(), elem_u32s * 4, lanes,
                                &enc)
             .ok()) {
      std::abort();  // every whole-element shape must encode
    }
    std::vector<uint32_t> back(elem_u32s, 0);
    if (!abcs::DecodeU32Section(codec, enc.data(), enc.size(), lanes,
                                back.data(), elem_u32s * 4)
             .ok()) {
      std::abort();  // own output must decode
    }
    if (back != values) std::abort();  // and reproduce the input exactly
  }
  return 0;
}
