#include "serve/wire.hpp"

#include <type_traits>
#include <utility>

#include "util/hash.hpp"

namespace tw::serve {
namespace {

using recover::ByteReader;
using recover::ByteWriter;
using recover::CheckpointError;
using recover::MaybeConst;

constexpr std::array<std::uint8_t, 4> kMagic = {'T', 'W', 'S', 'V'};
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 4 + 4;  // magic..crc

/// The frame header in front of every payload.
struct Header {
  std::array<std::uint8_t, 4> magic{};
  std::uint32_t version = 0;
  std::uint32_t type = 0;  ///< MsgType
  std::uint32_t size = 0;  ///< payload bytes
  std::uint32_t crc = 0;   ///< CRC-32 of the payload
};

template <class Io, MaybeConst<Header> R>
void fields(Io& io, R& h) {
  for (auto& b : h.magic) io.u8(b);
  io.u32(h.version);
  io.u32(h.type);
  io.u32(h.size);
  io.u32(h.crc);
}

// --- one field list per message payload -----------------------------------

/// Ping, shutdown, stats request and pong carry no payload.
template <class Io, class R>
  requires std::is_empty_v<R>
void fields(Io&, R&) {}

template <class Io, MaybeConst<SubmitRequest> R>
void fields(Io& io, R& m) {
  fields(io, m.params);
  io.str(m.netlist_yal);
  io.u8(m.want_progress);
}

template <class Io, MaybeConst<QueryRequest> R>
void fields(Io& io, R& m) {
  io.u64(m.job);
}

template <class Io, MaybeConst<CancelRequest> R>
void fields(Io& io, R& m) {
  io.u64(m.job);
}

template <class Io, MaybeConst<SubmitReply> R>
void fields(Io& io, R& m) {
  io.u64(m.job);
  io.u8(m.disposition, Disposition::kCached, "disposition");
}

template <class Io, MaybeConst<RejectReply> R>
void fields(Io& io, R& m) {
  io.u8(m.code, RejectCode::kOverloaded, "reject code");
  io.str(m.detail);
  io.u32(m.retry_after_ms);
}

template <class Io, MaybeConst<ProgressEvent> R>
void fields(Io& io, R& m) {
  io.u64(m.job);
  io.i32(m.replica);
  io.u8(m.phase, std::uint8_t{1}, "flow phase");  // stage 1 or stage 2
  io.i32(m.step);
  io.i32(m.pass);
  io.f64(m.t);
  io.f64(m.cost);
}

template <class Io, MaybeConst<ResultEvent> R>
void fields(Io& io, R& m) {
  io.u64(m.job);
  io.u8(m.status, JobStatus::kFailed, "job status");
  io.u8(m.cached);
  io.u64(m.fingerprint);
  io.f64(m.final_teil);
  io.i64(m.final_chip_area);
  io.i32(m.replicas_succeeded);
  io.i32(m.replicas_total);
  io.i32(m.attempts);
  io.str(m.detail);
}

template <class Io, MaybeConst<StatusReply> R>
void fields(Io& io, R& m) {
  io.u64(m.job);
  io.u8(m.state, JobState::kDone, "job state");
}

template <class Io, MaybeConst<StatsReply> R>
void fields(Io& io, R& m) {
  io.i32(m.jobs_in_flight);
  for (auto& q : m.queued) io.i32(q);
  for (auto& q : m.running) io.i32(q);
  io.i64(m.shed);
  io.i64(m.preempted);
  io.i64(m.resumed);
  io.i64(m.recovered);
  io.i64(m.cache_evictions);
  io.i64(m.progress_dropped);
  io.i64(m.reaped);
  io.u64(m.journal_bytes);
  io.i32(m.journal_records);
  io.u64(m.cache_bytes);
  io.u64(m.cache_budget_bytes);
  io.u8(m.cache_off);
  io.u8(m.journal_degraded);
  io.i64(m.checkpoint_off_jobs);
}

/// Decodes a payload as the Message alternative that type_of maps to
/// `type`.
template <std::size_t I = 0>
Message decode_payload(MsgType type, ByteReader& r) {
  if constexpr (I == std::variant_size_v<Message>) {
    throw ServeError(ServeErrc::kCorrupt,
                     "unknown message type " +
                         std::to_string(static_cast<std::uint32_t>(type)));
  } else {
    using T = std::variant_alternative_t<I, Message>;
    static const MsgType kType = type_of(T{});
    if (kType != type) return decode_payload<I + 1>(type, r);
    T m;
    fields(r, m);
    return m;
  }
}

}  // namespace

const char* to_string(ServeErrc code) {
  switch (code) {
    case ServeErrc::kIo: return "io";
    case ServeErrc::kDisconnected: return "disconnected";
    case ServeErrc::kBadMagic: return "bad_magic";
    case ServeErrc::kBadVersion: return "bad_version";
    case ServeErrc::kBadCrc: return "bad_crc";
    case ServeErrc::kOversized: return "oversized";
    case ServeErrc::kCorrupt: return "corrupt";
    case ServeErrc::kProtocol: return "protocol";
  }
  return "unknown";
}

ServeError::ServeError(ServeErrc code, const std::string& detail)
    : std::runtime_error(std::string("serve error (") + to_string(code) +
                         "): " + detail),
      code_(code) {}

std::uint64_t params_digest(const JobParams& p) {
  // Priority schedules work; it never changes the work. Digest a copy
  // with it zeroed so identical jobs dedup across priority classes.
  JobParams canon = p;
  canon.priority = JobPriority::kBatch;
  ByteWriter w;
  fields(w, canon);
  return fnv1a(w.bytes());
}

const char* to_string(JobPriority p) {
  switch (p) {
    case JobPriority::kBatch: return "batch";
    case JobPriority::kNormal: return "normal";
    case JobPriority::kUrgent: return "urgent";
  }
  return "unknown";
}

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kSubmit: return "submit";
    case MsgType::kQuery: return "query";
    case MsgType::kCancel: return "cancel";
    case MsgType::kPing: return "ping";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kStats: return "stats";
    case MsgType::kSubmitReply: return "submit_reply";
    case MsgType::kReject: return "reject";
    case MsgType::kProgress: return "progress";
    case MsgType::kResult: return "result";
    case MsgType::kStatus: return "status";
    case MsgType::kPong: return "pong";
    case MsgType::kStatsReply: return "stats_reply";
  }
  return "unknown";
}

const char* to_string(Disposition d) {
  switch (d) {
    case Disposition::kFresh: return "fresh";
    case Disposition::kDuplicateRunning: return "duplicate_running";
    case Disposition::kCached: return "cached";
  }
  return "unknown";
}

const char* to_string(RejectCode c) {
  switch (c) {
    case RejectCode::kQueueFull: return "queue_full";
    case RejectCode::kQuotaExceeded: return "quota_exceeded";
    case RejectCode::kParseError: return "parse_error";
    case RejectCode::kUnknownJob: return "unknown_job";
    case RejectCode::kShuttingDown: return "shutting_down";
    case RejectCode::kBadRequest: return "bad_request";
    case RejectCode::kOverloaded: return "overloaded";
  }
  return "unknown";
}

const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kBudgetExhausted: return "budget_exhausted";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
  }
  return "unknown";
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
  }
  return "unknown";
}

MsgType type_of(const Message& m) {
  struct Visitor {
    MsgType operator()(const SubmitRequest&) { return MsgType::kSubmit; }
    MsgType operator()(const QueryRequest&) { return MsgType::kQuery; }
    MsgType operator()(const CancelRequest&) { return MsgType::kCancel; }
    MsgType operator()(const PingRequest&) { return MsgType::kPing; }
    MsgType operator()(const ShutdownRequest&) { return MsgType::kShutdown; }
    MsgType operator()(const StatsRequest&) { return MsgType::kStats; }
    MsgType operator()(const SubmitReply&) { return MsgType::kSubmitReply; }
    MsgType operator()(const RejectReply&) { return MsgType::kReject; }
    MsgType operator()(const ProgressEvent&) { return MsgType::kProgress; }
    MsgType operator()(const ResultEvent&) { return MsgType::kResult; }
    MsgType operator()(const StatusReply&) { return MsgType::kStatus; }
    MsgType operator()(const PongReply&) { return MsgType::kPong; }
    MsgType operator()(const StatsReply&) { return MsgType::kStatsReply; }
  };
  return std::visit(Visitor{}, m);
}

std::vector<std::uint8_t> encode_frame(const Message& m) {
  ByteWriter pw;
  std::visit([&pw](const auto& msg) { fields(pw, msg); }, m);
  const std::vector<std::uint8_t> payload = pw.take();
  if (payload.size() > kMaxPayload)
    throw ServeError(ServeErrc::kOversized,
                     "payload of " + std::to_string(payload.size()) +
                         " bytes exceeds cap " + std::to_string(kMaxPayload));

  const Header h{kMagic, kWireVersion, static_cast<std::uint32_t>(type_of(m)),
                 static_cast<std::uint32_t>(payload.size()),
                 recover::crc32(payload)};
  ByteWriter w;
  fields(w, h);
  std::vector<std::uint8_t> frame = w.take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix before growing: the buffer stays bounded
  // by one partial frame plus one read chunk.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  while (try_parse()) {}
}

bool FrameParser::try_parse() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderSize) return false;
  Header h;
  ByteReader hr{std::span(buf_).subspan(pos_, kHeaderSize)};
  fields(hr, h);
  if (h.magic != kMagic)
    throw ServeError(ServeErrc::kBadMagic, "stream does not start with TWSV");
  if (h.version != kWireVersion)
    throw ServeError(ServeErrc::kBadVersion,
                     "frame version " + std::to_string(h.version) +
                         " != " + std::to_string(kWireVersion));
  if (h.size > kMaxPayload)
    throw ServeError(ServeErrc::kOversized,
                     "frame payload of " + std::to_string(h.size) +
                         " bytes exceeds cap " + std::to_string(kMaxPayload));
  if (avail < kHeaderSize + h.size) return false;

  const auto payload = std::span(buf_).subspan(pos_ + kHeaderSize, h.size);
  if (recover::crc32(payload) != h.crc)
    throw ServeError(ServeErrc::kBadCrc, "frame payload CRC mismatch");
  Message m;
  try {
    ByteReader r(payload);
    m = decode_payload(static_cast<MsgType>(h.type), r);
    r.expect_end();
  } catch (const CheckpointError& e) {
    // ByteReader bounds, length and enum-range failures surface as
    // CheckpointError; re-type them for this layer.
    throw ServeError(ServeErrc::kCorrupt, e.what());
  }
  pos_ += kHeaderSize + h.size;
  ready_.push_back(std::move(m));
  return true;
}

bool FrameParser::has_message() { return !ready_.empty(); }

Message FrameParser::take_message() {
  if (ready_.empty())
    throw ServeError(ServeErrc::kProtocol, "take_message on empty parser");
  Message m = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return m;
}

}  // namespace tw::serve
