#include "xfraud/common/frame.h"

#include <cstring>
#include <string>

#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"

namespace xfraud {

namespace {

constexpr std::string_view kMagic = "XFRM";

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
  std::string bytes;
  bytes.reserve(kFrameHeaderBytes);
  ByteWriter w(&bytes);
  w.PutBytes(kMagic);
  w.Put(static_cast<uint16_t>(header.type));
  w.Put(header.flags);
  w.Put(header.rank);
  w.Put(header.seq);
  w.Put(header.payload_bytes);
  w.Put(header.payload_crc);
  std::memcpy(out, bytes.data(), kFrameHeaderBytes);
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
  ByteReader in(data, kFrameHeaderBytes);
  if (!in.ExpectMagic(kMagic)) return Status::Corruption("frame: bad magic");
  FrameHeader header;
  const uint16_t type = in.Get<uint16_t>();
  if (type < static_cast<uint16_t>(FrameType::kHello) ||
      type > static_cast<uint16_t>(FrameType::kDrain)) {
    return Status::Corruption("frame: unknown type " + std::to_string(type));
  }
  header.type = static_cast<FrameType>(type);
  in.Get(&header.flags);
  in.Get(&header.rank);
  in.Get(&header.seq);
  in.Get(&header.payload_bytes);
  in.Get(&header.payload_crc);
  if (header.payload_bytes > MaxFramePayload(header.type)) {
    return Status::Corruption(
        "frame: payload length " + std::to_string(header.payload_bytes) +
        " exceeds the type " + std::to_string(type) + " limit of " +
        std::to_string(MaxFramePayload(header.type)));
  }
  return header;
}

}  // namespace xfraud
