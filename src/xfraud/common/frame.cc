#include "xfraud/common/frame.h"

#include <string>

#include "xfraud/common/crc32.h"

namespace xfraud {

namespace {

constexpr unsigned char kMagic[4] = {'X', 'F', 'R', 'M'};

void PutU16(unsigned char* out, uint16_t v) {
  out[0] = static_cast<unsigned char>(v & 0xFF);
  out[1] = static_cast<unsigned char>((v >> 8) & 0xFF);
}

void PutU32(unsigned char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64(unsigned char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
}

uint16_t GetU16(const unsigned char* in) {
  return static_cast<uint16_t>(static_cast<uint16_t>(in[0]) |
                               static_cast<uint16_t>(in[1]) << 8);
}

uint32_t GetU32(const unsigned char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(in[i]) << (8 * i);
  return v;
}

uint64_t GetU64(const unsigned char* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

uint32_t FramePayloadCrc(const void* payload, size_t n) {
  return Crc32(n > 0 ? payload : "", n);
}

void SealFramePayload(FrameHeader* header, const void* payload, size_t n) {
  header->payload_bytes = n;
  header->payload_crc = FramePayloadCrc(payload, n);
}

Status VerifyFramePayload(const FrameHeader& header, const void* payload,
                          size_t n) {
  if (header.payload_bytes != n) {
    return Status::Corruption(
        "frame: payload length mismatch: header says " +
        std::to_string(header.payload_bytes) + " bytes, got " +
        std::to_string(n));
  }
  const uint32_t crc = FramePayloadCrc(payload, n);
  if (crc != header.payload_crc) {
    return Status::Corruption("frame: payload CRC mismatch (type " +
                              std::to_string(static_cast<int>(header.type)) +
                              ", seq " + std::to_string(header.seq) + ")");
  }
  return Status::OK();
}

void EncodeFrameHeader(const FrameHeader& header, unsigned char* out) {
  for (int i = 0; i < 4; ++i) out[i] = kMagic[i];
  PutU16(out + 4, static_cast<uint16_t>(header.type));
  PutU16(out + 6, header.flags);
  PutU32(out + 8, header.rank);
  PutU64(out + 12, header.seq);
  PutU64(out + 20, header.payload_bytes);
  PutU32(out + 28, header.payload_crc);
}

uint64_t MaxFramePayload(FrameType type) {
  switch (type) {
    case FrameType::kReduce:
    case FrameType::kResult:
    case FrameType::kBroadcast:
    case FrameType::kGather:
      return kMaxFramePayload;
    default:
      return kMaxControlFramePayload;
  }
}

Result<FrameHeader> DecodeFrameHeader(const unsigned char* data) {
  for (int i = 0; i < 4; ++i) {
    if (data[i] != kMagic[i]) {
      return Status::Corruption("frame: bad magic");
    }
  }
  FrameHeader header;
  uint16_t type = GetU16(data + 4);
  if (type < static_cast<uint16_t>(FrameType::kHello) ||
      type > static_cast<uint16_t>(FrameType::kDrain)) {
    return Status::Corruption("frame: unknown type " + std::to_string(type));
  }
  header.type = static_cast<FrameType>(type);
  header.flags = GetU16(data + 6);
  header.rank = GetU32(data + 8);
  header.seq = GetU64(data + 12);
  header.payload_bytes = GetU64(data + 20);
  header.payload_crc = GetU32(data + 28);
  if (header.payload_bytes > MaxFramePayload(header.type)) {
    return Status::Corruption(
        "frame: payload length " + std::to_string(header.payload_bytes) +
        " exceeds the type " + std::to_string(type) + " limit of " +
        std::to_string(MaxFramePayload(header.type)));
  }
  return header;
}

}  // namespace xfraud
