#include "xfraud/serve/wire.h"

#include "xfraud/common/bytes.h"

namespace xfraud::serve {

namespace {

constexpr size_t kScoreReplyFixedBytes = 42;

}  // namespace

std::string EncodeScoreRequest(const ScoreRequestWire& req) {
  std::string out;
  ByteWriter w(&out);
  w.Put(req.epoch);
  uint64_t deadline_us = kNoDeadlineUs;
  if (req.deadline_s >= 0.0) {
    // Round down: a truncated budget can only make the server *more*
    // conservative about an almost-spent deadline, never less.
    deadline_us = static_cast<uint64_t>(req.deadline_s * 1e6);
    if (deadline_us == kNoDeadlineUs) --deadline_us;  // +inf guard
  }
  w.Put(deadline_us);
  w.Put(req.txn_node);
  return out;
}

Result<ScoreRequestWire> DecodeScoreRequest(const void* payload, size_t n) {
  ByteReader in(payload, n);
  ScoreRequestWire req;
  in.Get(&req.epoch);
  const uint64_t deadline_us = in.Get<uint64_t>();
  req.deadline_s = deadline_us == kNoDeadlineUs
                       ? -1.0
                       : static_cast<double>(deadline_us) * 1e-6;
  in.Get(&req.txn_node);
  in.ExpectEnd();
  XF_RETURN_IF_ERROR(in.status("score request"));
  return req;
}

std::string EncodeScoreReply(const ScoreReplyWire& reply) {
  // Truncate the status message so the reply always fits the control-frame
  // payload cap the receiver enforces.
  const std::string msg = reply.status.message().substr(
      0, kMaxControlFramePayload - kScoreReplyFixedBytes);
  std::string out;
  out.reserve(kScoreReplyFixedBytes + msg.size());
  ByteWriter w(&out);
  w.Put(static_cast<uint32_t>(reply.status.code()));
  w.Put(reply.response.score);
  w.Put(reply.response.imputed_rows);
  w.Put(reply.response.latency_s);
  w.Put(reply.response.deadline_slack_s);
  w.Put(static_cast<uint8_t>(reply.response.degraded ? 1 : 0));
  w.Put(static_cast<uint8_t>(reply.response.from_prefilter ? 1 : 0));
  w.PutString(msg);
  return out;
}

Result<ScoreReplyWire> DecodeScoreReply(const void* payload, size_t n) {
  ByteReader in(payload, n);
  const uint32_t code = in.Get<uint32_t>();
  ScoreReplyWire reply;
  in.Get(&reply.response.score);
  in.Get(&reply.response.imputed_rows);
  in.Get(&reply.response.latency_s);
  in.Get(&reply.response.deadline_slack_s);
  reply.response.degraded = in.Get<uint8_t>() != 0;
  reply.response.from_prefilter = in.Get<uint8_t>() != 0;
  std::string msg;
  in.GetString(&msg, kMaxControlFramePayload);
  in.ExpectEnd();
  XF_RETURN_IF_ERROR(in.status("score reply"));
  XF_RETURN_IF_ERROR(StatusFromWire(code, std::move(msg), &reply.status));
  return reply;
}

std::string EncodeHealth(const HealthWire& health) {
  std::string out;
  ByteWriter w(&out);
  w.Put(health.generation);
  w.Put(health.requests_served);
  return out;
}

Result<HealthWire> DecodeHealth(const void* payload, size_t n) {
  ByteReader in(payload, n);
  HealthWire health;
  in.Get(&health.generation);
  in.Get(&health.requests_served);
  in.ExpectEnd();
  XF_RETURN_IF_ERROR(in.status("health payload"));
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
