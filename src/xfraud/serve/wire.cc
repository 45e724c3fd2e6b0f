#include "xfraud/serve/wire.h"

#include <cmath>
#include <cstring>

namespace xfraud::serve {

namespace {

// Little-endian, byte-by-byte — same convention as common/frame.cc, so the
// payloads are host-endianness independent like the headers around them.

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

double GetF64(const unsigned char* p) {
  const uint64_t bits = GetU64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

constexpr size_t kScoreRequestBytes = 20;
constexpr size_t kScoreReplyFixedBytes = 42;
constexpr size_t kHealthBytes = 16;

}  // namespace

std::string EncodeScoreRequest(const ScoreRequestWire& req) {
  std::string out;
  out.reserve(kScoreRequestBytes);
  PutU64(&out, req.epoch);
  uint64_t deadline_us = kNoDeadlineUs;
  if (req.deadline_s >= 0.0) {
    // Round down: a truncated budget can only make the server *more*
    // conservative about an almost-spent deadline, never less.
    deadline_us = static_cast<uint64_t>(req.deadline_s * 1e6);
    if (deadline_us == kNoDeadlineUs) --deadline_us;  // +inf guard
  }
  PutU64(&out, deadline_us);
  PutU32(&out, static_cast<uint32_t>(req.txn_node));
  return out;
}

Result<ScoreRequestWire> DecodeScoreRequest(const void* payload, size_t n) {
  if (n != kScoreRequestBytes) {
    return Status::Corruption("score request payload is " +
                              std::to_string(n) + " bytes, want " +
                              std::to_string(kScoreRequestBytes));
  }
  const auto* p = static_cast<const unsigned char*>(payload);
  ScoreRequestWire req;
  req.epoch = GetU64(p);
  const uint64_t deadline_us = GetU64(p + 8);
  req.deadline_s = deadline_us == kNoDeadlineUs
                       ? -1.0
                       : static_cast<double>(deadline_us) * 1e-6;
  req.txn_node = static_cast<int32_t>(GetU32(p + 16));
  return req;
}

std::string EncodeScoreReply(const ScoreReplyWire& reply) {
  // Truncate the status message so the reply always fits the control-frame
  // payload cap the receiver enforces.
  const std::string msg = reply.status.message().substr(
      0, kMaxControlFramePayload - kScoreReplyFixedBytes);
  std::string out;
  out.reserve(kScoreReplyFixedBytes + msg.size());
  PutU32(&out, static_cast<uint32_t>(reply.status.code()));
  PutF64(&out, reply.response.score);
  PutU64(&out, static_cast<uint64_t>(reply.response.imputed_rows));
  PutF64(&out, reply.response.latency_s);
  PutF64(&out, reply.response.deadline_slack_s);
  out.push_back(reply.response.degraded ? 1 : 0);
  out.push_back(reply.response.from_prefilter ? 1 : 0);
  PutU32(&out, static_cast<uint32_t>(msg.size()));
  out.append(msg);
  return out;
}

Result<ScoreReplyWire> DecodeScoreReply(const void* payload, size_t n) {
  if (n < kScoreReplyFixedBytes) {
    return Status::Corruption("score reply payload is " + std::to_string(n) +
                              " bytes, want at least " +
                              std::to_string(kScoreReplyFixedBytes));
  }
  const auto* p = static_cast<const unsigned char*>(payload);
  const uint32_t code = GetU32(p);
  ScoreReplyWire reply;
  reply.response.score = GetF64(p + 4);
  reply.response.imputed_rows = static_cast<int64_t>(GetU64(p + 12));
  reply.response.latency_s = GetF64(p + 20);
  reply.response.deadline_slack_s = GetF64(p + 28);
  reply.response.degraded = p[36] != 0;
  reply.response.from_prefilter = p[37] != 0;
  const uint32_t msg_len = GetU32(p + 38);
  if (n != kScoreReplyFixedBytes + msg_len) {
    return Status::Corruption("score reply message length disagrees with "
                              "payload size");
  }
  std::string msg(reinterpret_cast<const char*>(p + kScoreReplyFixedBytes),
                  msg_len);
  XF_RETURN_IF_ERROR(StatusFromWire(code, std::move(msg), &reply.status));
  return reply;
}

std::string EncodeHealth(const HealthWire& health) {
  std::string out;
  out.reserve(kHealthBytes);
  PutU64(&out, health.generation);
  PutU64(&out, static_cast<uint64_t>(health.requests_served));
  return out;
}

Result<HealthWire> DecodeHealth(const void* payload, size_t n) {
  if (n != kHealthBytes) {
    return Status::Corruption("health payload is " + std::to_string(n) +
                              " bytes, want " + std::to_string(kHealthBytes));
  }
  const auto* p = static_cast<const unsigned char*>(payload);
  HealthWire health;
  health.generation = GetU64(p);
  health.requests_served = static_cast<int64_t>(GetU64(p + 8));
  return health;
}

Status StatusFromWire(uint32_t code, std::string message, Status* out) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      *out = Status::OK();
      return Status::OK();
    case StatusCode::kInvalidArgument:
      *out = Status::InvalidArgument(std::move(message));
      return Status::OK();
    case StatusCode::kNotFound:
      *out = Status::NotFound(std::move(message));
      return Status::OK();
    case StatusCode::kAlreadyExists:
      *out = Status::AlreadyExists(std::move(message));
      return Status::OK();
    case StatusCode::kIoError:
      *out = Status::IoError(std::move(message));
      return Status::OK();
    case StatusCode::kCorruption:
      *out = Status::Corruption(std::move(message));
      return Status::OK();
    case StatusCode::kOutOfRange:
      *out = Status::OutOfRange(std::move(message));
      return Status::OK();
    case StatusCode::kFailedPrecondition:
      *out = Status::FailedPrecondition(std::move(message));
      return Status::OK();
    case StatusCode::kInternal:
      *out = Status::Internal(std::move(message));
      return Status::OK();
    case StatusCode::kUnavailable:
      *out = Status::Unavailable(std::move(message));
      return Status::OK();
    case StatusCode::kDeadlineExceeded:
      *out = Status::DeadlineExceeded(std::move(message));
      return Status::OK();
  }
  return Status::Corruption("unknown status code " + std::to_string(code) +
                            " on the wire");
}

}  // namespace xfraud::serve
