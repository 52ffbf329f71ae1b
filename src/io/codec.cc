#include "io/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

namespace abcs {

namespace {

/// Zigzag-fold a signed 64-bit delta into an unsigned varint payload.
/// Deltas of u32 values span (-2³², 2³²), so the folded value fits 33 bits
/// and a varint never legitimately exceeds 5 bytes.
constexpr uint64_t ZigzagEncode(int64_t d) {
  return (static_cast<uint64_t>(d) << 1) ^ static_cast<uint64_t>(d >> 63);
}
constexpr int64_t ZigzagDecode(uint64_t z) {
  return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}
constexpr uint32_t kMaxVarintBytes = 5;  ///< 33 significant bits max

void PutVarint(uint64_t z, std::vector<std::byte>* out) {
  while (z >= 0x80) {
    out->push_back(static_cast<std::byte>((z & 0x7f) | 0x80));
    z >>= 7;
  }
  out->push_back(static_cast<std::byte>(z));
}

/// Little-endian bit writer over a byte vector; lanes are flushed to a
/// byte boundary so each lane's stream is independently addressable.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::byte>* out) : out_(out) {}
  void Put(uint32_t v, uint32_t width) {
    acc_ |= static_cast<uint64_t>(v) << nbits_;
    nbits_ += width;
    while (nbits_ >= 8) {
      out_->push_back(static_cast<std::byte>(acc_ & 0xff));
      acc_ >>= 8;
      nbits_ -= 8;
    }
  }
  void Flush() {
    if (nbits_ > 0) {
      out_->push_back(static_cast<std::byte>(acc_ & 0xff));
      acc_ = 0;
      nbits_ = 0;
    }
  }

 private:
  std::vector<std::byte>* out_;
  uint64_t acc_ = 0;  ///< nbits_ < 8 before Put, width ≤ 32 → never overflows
  uint32_t nbits_ = 0;
};

/// Bounds-checked little-endian bit reader; Refill never reads past
/// `end`, so crafted streams can only under-run (reported), never overrun.
class BitReader {
 public:
  BitReader(const std::byte* data, std::size_t size)
      : p_(data), end_(data + size) {}
  bool Get(uint32_t width, uint32_t* out) {
    while (nbits_ < width) {
      if (p_ == end_) return false;
      acc_ |= static_cast<uint64_t>(*p_++) << nbits_;
      nbits_ += 8;
    }
    const uint64_t mask =
        width == 32 ? 0xffffffffull : (uint64_t{1} << width) - 1;
    *out = static_cast<uint32_t>(acc_ & mask);
    acc_ >>= width;
    nbits_ -= width;
    return true;
  }
  /// Drops the sub-byte remainder at a lane boundary; the padding bits
  /// must be zero (a canonical-form check that doubles as tamper noise
  /// detection on unverified opens).
  bool AlignToByte() {
    const uint32_t drop = nbits_ & 7;
    if (drop != 0 && (acc_ & ((1ull << drop) - 1)) != 0) return false;
    acc_ >>= drop;
    nbits_ -= drop;
    return true;
  }
  std::size_t Remaining() const { return (end_ - p_) + nbits_ / 8; }

 private:
  const std::byte* p_;
  const std::byte* end_;
  uint64_t acc_ = 0;
  uint32_t nbits_ = 0;
};

Status CheckShape(std::size_t decoded_bytes, uint32_t lanes) {
  if (lanes == 0) {
    return Status::InvalidArgument("codec: lane count must be nonzero");
  }
  if (decoded_bytes % (std::size_t{4} * lanes) != 0) {
    return Status::InvalidArgument(
        "codec: payload is not a whole number of " + std::to_string(lanes) +
        "-lane elements");
  }
  return Status::OK();
}

// ---------------------------------------------------------- delta-varint --

void EncodeDeltaVarint(const uint32_t* values, std::size_t count,
                       uint32_t lanes, std::vector<std::byte>* out) {
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    uint32_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const uint32_t v = values[i * lanes + lane];
      PutVarint(ZigzagEncode(static_cast<int64_t>(v) - prev), out);
      prev = v;
    }
  }
}

/// The decoder's next window limit, out of line and marked cold so the
/// call does not cost the byte loop its registers (a one-shot decode never
/// makes it; a windowed one makes it once per window).
[[gnu::noinline, gnu::cold]] const std::byte* NextLimit(
    const DecodeRefill& refill, const std::byte* enc, const std::byte* p) {
  return enc + refill(static_cast<std::size_t>(p - enc));
}

/// The one delta-varint decoder. `refill` null: the whole stream is
/// readable up front. Otherwise the decoder starts with nothing readable
/// and asks `refill` for the next limit each time it reaches the current
/// one short of `end`.
Status DecodeDeltaVarint(const std::byte* enc, std::size_t enc_bytes,
                         uint32_t lanes, uint32_t* out, std::size_t count,
                         const DecodeRefill* refill) {
  const std::byte* p = enc;
  const std::byte* end = enc + enc_bytes;
  const std::byte* limit = refill == nullptr ? end : enc;
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    int64_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
      uint64_t z = 0;
      uint32_t shift = 0, nbytes = 0;
      for (;;) {
        if (p == limit) [[unlikely]] {
          if (limit == end) {
            return Status::Corruption("varint overruns the encoded payload");
          }
          limit = NextLimit(*refill, enc, p);
        }
        const uint8_t b = static_cast<uint8_t>(*p++);
        z |= static_cast<uint64_t>(b & 0x7f) << shift;
        shift += 7;
        if (++nbytes > kMaxVarintBytes) {
          return Status::Corruption("varint longer than a u32 delta allows");
        }
        if ((b & 0x80) == 0) break;
      }
      const int64_t v = prev + ZigzagDecode(z);
      if (v < 0 || v > 0xffffffffll) {
        return Status::Corruption("delta-varint value outside u32 range");
      }
      out[i * lanes + lane] = static_cast<uint32_t>(v);
      prev = v;
    }
  }
  if (p != end) {
    return Status::Corruption("trailing bytes after the encoded payload");
  }
  return Status::OK();
}

// -------------------------------------------------------------- bit-pack --

void EncodeBitPack(const uint32_t* values, std::size_t count, uint32_t lanes,
                   std::vector<std::byte>* out) {
  // Header: one width byte per lane; then each lane's bitstream, padded to
  // a byte boundary, in lane order.
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    uint32_t max = 0;
    for (std::size_t i = 0; i < count; ++i) {
      max = std::max(max, values[i * lanes + lane]);
    }
    out->push_back(static_cast<std::byte>(BitWidthFor(max)));
  }
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    const uint32_t width = static_cast<uint32_t>((*out)[lane]);
    if (width == 0) continue;
    BitWriter writer(out);
    for (std::size_t i = 0; i < count; ++i) {
      writer.Put(values[i * lanes + lane], width);
    }
    writer.Flush();
  }
}

Status DecodeBitPack(const std::byte* enc, std::size_t enc_bytes,
                     uint32_t lanes, uint32_t* out, std::size_t count) {
  if (enc_bytes < lanes) {
    return Status::Corruption("bit-pack header truncated");
  }
  std::size_t expect = lanes;
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    const uint32_t width = static_cast<uint32_t>(enc[lane]);
    if (width > 32) {
      return Status::Corruption("bit-pack lane width exceeds 32 bits");
    }
    expect += BitPackedBytes(count, width);
  }
  if (expect != enc_bytes) {
    return Status::Corruption(
        "bit-pack payload size does not match its lane widths");
  }
  const std::byte* p = enc + lanes;
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    const uint32_t width = static_cast<uint32_t>(enc[lane]);
    const std::size_t lane_bytes = BitPackedBytes(count, width);
    if (width == 0) {
      for (std::size_t i = 0; i < count; ++i) out[i * lanes + lane] = 0;
      continue;
    }
    BitReader reader(p, lane_bytes);
    for (std::size_t i = 0; i < count; ++i) {
      uint32_t v = 0;
      if (!reader.Get(width, &v)) {
        return Status::Corruption("bit-pack lane underruns its bitstream");
      }
      out[i * lanes + lane] = v;
    }
    p += lane_bytes;
  }
  return Status::OK();
}

}  // namespace

const char* SectionCodecName(SectionCodec codec) {
  switch (codec) {
    case SectionCodec::kRaw:
      return "raw";
    case SectionCodec::kDeltaVarint:
      return "delta-varint";
    case SectionCodec::kBitPack:
      return "bit-pack";
  }
  return "codec-?";
}

Status DecodeDeltaVarintWindowed(const std::byte* encoded,
                                 std::size_t encoded_bytes, uint32_t lanes,
                                 void* out, std::size_t decoded_bytes,
                                 const DecodeRefill& refill) {
  ABCS_RETURN_NOT_OK(CheckShape(decoded_bytes, lanes));
  return DecodeDeltaVarint(encoded, encoded_bytes, lanes,
                           static_cast<uint32_t*>(out),
                           decoded_bytes / (std::size_t{4} * lanes), &refill);
}

uint32_t BitWidthFor(uint32_t max_value) {
  return static_cast<uint32_t>(std::bit_width(max_value));
}

Status EncodeU32Section(SectionCodec codec, const void* data,
                        std::size_t decoded_bytes, uint32_t lanes,
                        std::vector<std::byte>* out) {
  ABCS_RETURN_NOT_OK(CheckShape(decoded_bytes, lanes));
  out->clear();
  const std::size_t count = decoded_bytes / (std::size_t{4} * lanes);
  // The payload may be an array of structs with 8-byte alignment (Edge);
  // copy-free u32 access is valid because 4 divides every element size.
  const uint32_t* values = static_cast<const uint32_t*>(data);
  switch (codec) {
    case SectionCodec::kDeltaVarint:
      out->reserve(decoded_bytes / 2);
      EncodeDeltaVarint(values, count, lanes, out);
      return Status::OK();
    case SectionCodec::kBitPack:
      out->reserve(decoded_bytes / 2);
      EncodeBitPack(values, count, lanes, out);
      return Status::OK();
    case SectionCodec::kRaw:
      break;
  }
  return Status::InvalidArgument("cannot encode under codec tag " +
                                 std::to_string(static_cast<uint32_t>(codec)));
}

Status DecodeU32Section(SectionCodec codec, const std::byte* encoded,
                        std::size_t encoded_bytes, uint32_t lanes, void* out,
                        std::size_t decoded_bytes) {
  ABCS_RETURN_NOT_OK(CheckShape(decoded_bytes, lanes));
  const std::size_t count = decoded_bytes / (std::size_t{4} * lanes);
  uint32_t* values = static_cast<uint32_t*>(out);
  switch (codec) {
    case SectionCodec::kDeltaVarint:
      return DecodeDeltaVarint(encoded, encoded_bytes, lanes, values, count,
                               nullptr);
    case SectionCodec::kBitPack:
      return DecodeBitPack(encoded, encoded_bytes, lanes, values, count);
    case SectionCodec::kRaw:
      if (encoded_bytes != decoded_bytes) {
        return Status::Corruption(
            "raw codec encoded/decoded byte counts disagree");
      }
      std::memcpy(out, encoded, decoded_bytes);
      return Status::OK();
  }
  return Status::Corruption("unknown codec tag " +
                            std::to_string(static_cast<uint32_t>(codec)));
}

}  // namespace abcs
