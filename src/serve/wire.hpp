// Wire protocol of the placement service (twserved / twcli).
//
// Everything on the socket is a length-prefixed binary frame reusing the
// checkpoint serialization core (recover::ByteWriter/ByteReader — fixed-
// width little-endian, bit-exact doubles, bounds-checked reads; each
// message's layout is one field list run in both directions):
//
//   magic "TWSV" | u32 version | u32 type | u32 payload size | u32 CRC-32
//   | payload
//
// The framing gives the same guarantees on the socket that checkpoints
// have on disk: a truncated, corrupted or hostile byte stream yields a
// typed ServeError — never an out-of-bounds read, never a giant
// allocation (payloads are capped), never garbage state. This header is
// pure bytes: no sockets, no syscalls — it is unit-testable without a
// daemon, and the daemon/client layers do nothing but move its frames.
//
// Job identity for deduplication is the pair
// (netlist_digest, params_digest): two submissions with byte-identical
// canonical netlists and identical job parameters are the same work, and
// the second is served from the result cache instead of re-annealing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "recover/serialize.hpp"

namespace tw::serve {

/// v2 added: JobParams::priority, RejectReply::retry_after_ms,
/// kOverloaded, and the kStats/kStatsReply exchange.
inline constexpr std::uint32_t kWireVersion = 2;

/// Hard cap on any frame's payload: a corrupt or hostile length prefix
/// must not trigger a giant allocation. Netlists of the paper's scale are
/// a few hundred KiB of YAL text; 64 MiB leaves two orders of headroom.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;

/// Why a frame or request could not be processed.
enum class ServeErrc : std::uint8_t {
  kIo = 0,        ///< socket read/write failed
  kDisconnected,  ///< peer closed the connection mid-exchange
  kBadMagic,      ///< stream is not speaking this protocol
  kBadVersion,    ///< incompatible protocol version
  kBadCrc,        ///< payload CRC mismatch
  kOversized,     ///< payload size exceeds kMaxPayload
  kCorrupt,       ///< payload failed to decode (bad enum, length, ...)
  kProtocol,      ///< well-formed frame of an unexpected type
};

const char* to_string(ServeErrc code);

/// The one exception type of the serve subsystem; typed like
/// recover::CheckpointError so callers can branch on the defect class.
class ServeError : public std::runtime_error {
 public:
  ServeError(ServeErrc code, const std::string& detail);

  ServeErrc code() const { return code_; }

 private:
  ServeErrc code_;
};

// ---------------------------------------------------------------------------
// Job parameters

/// Scheduling class of a job. Priority decides *when* a job runs — queue
/// order, load shedding, who gets checkpoint-preempted under pressure —
/// never *what* it computes: results stay byte-identical across priority
/// classes, which is why priority is excluded from params_digest (same
/// work at different priorities dedups together).
enum class JobPriority : std::uint8_t {
  kBatch = 0,   ///< shed first under load, preempted first
  kNormal = 1,  ///< the default
  kUrgent = 2,  ///< shed last; may checkpoint-preempt lower classes
};

inline constexpr int kNumPriorityClasses = 3;

const char* to_string(JobPriority p);

/// The submitter-visible knobs of one job. Value 0 means "server default"
/// for the per-stage fields; the seed and supervision fields are taken
/// literally. The encoding of this struct (canonical field order) is the
/// params half of the dedup key, so two JobParams dedup together exactly
/// when every field matches — except `priority`, which is zeroed before
/// digesting (see JobPriority).
struct JobParams {
  std::uint64_t master_seed = 1;
  std::int32_t replicas = 1;
  std::int32_t max_attempts = 2;
  /// Requested work quota (RunBudget semantics; kUnlimited = -1). The
  /// scheduler clamps against its per-job quota limits and rejects
  /// requests exceeding them with kQuotaExceeded.
  std::int64_t budget_moves = -1;
  std::int64_t budget_steps = -1;
  /// Watchdog allowance of the first attempt (-1 disables).
  std::int64_t watchdog_moves = -1;
  /// Flow-speed knobs (0 = library default): the compact parameterization
  /// the determinism tests run under.
  std::int32_t s1_attempts_per_cell = 0;
  std::int32_t s1_p2_samples = 0;
  std::int32_t s2_attempts_per_cell = 0;
  std::int32_t steiner_m = 0;
  std::int32_t checkpoint_every = 5;
  std::int32_t checkpoint_keep = 4;
  /// Scheduling class (see JobPriority); not part of the dedup digest.
  JobPriority priority = JobPriority::kNormal;

  bool operator==(const JobParams&) const = default;
};

/// The canonical field list of JobParams (recover/serialize.hpp): the
/// wire's submit payload and the job record (journal.hpp) both carry it.
template <class Io, recover::MaybeConst<JobParams> R>
void fields(Io& io, R& p) {
  io.u64(p.master_seed);
  io.i32(p.replicas);
  io.i32(p.max_attempts);
  io.i64(p.budget_moves);
  io.i64(p.budget_steps);
  io.i64(p.watchdog_moves);
  io.i32(p.s1_attempts_per_cell);
  io.i32(p.s1_p2_samples);
  io.i32(p.s2_attempts_per_cell);
  io.i32(p.steiner_m);
  io.i32(p.checkpoint_every);
  io.i32(p.checkpoint_keep);
  io.u8(p.priority, JobPriority::kUrgent, "job priority");
}

/// FNV-1a over the canonical encoding with `priority` zeroed: the params
/// half of the dedup key. Priority affects scheduling only, so the same
/// work submitted urgent and batch must hash — and dedup — identically.
std::uint64_t params_digest(const JobParams& p);

// ---------------------------------------------------------------------------
// Messages

enum class MsgType : std::uint32_t {
  // client -> server
  kSubmit = 1,
  kQuery = 2,
  kCancel = 3,
  kPing = 4,
  kShutdown = 5,
  kStats = 6,
  // server -> client
  kSubmitReply = 64,
  kReject = 65,
  kProgress = 66,
  kResult = 67,
  kStatus = 68,
  kPong = 69,
  kStatsReply = 70,
};

const char* to_string(MsgType t);

struct SubmitRequest {
  JobParams params;
  std::string netlist_yal;  ///< YAL text, parsed server-side
  /// Stream ProgressEvents for this job on this connection (the reply and
  /// terminal ResultEvent are always sent).
  bool want_progress = false;
};

struct QueryRequest {
  std::uint64_t job = 0;
};

struct CancelRequest {
  std::uint64_t job = 0;
};

struct PingRequest {};

/// Graceful stop: drain in-flight jobs' wind-down, settle their records,
/// exit 0.
struct ShutdownRequest {};

/// Health/observability probe: the server answers with a StatsReply.
struct StatsRequest {};

/// How a submission was admitted.
enum class Disposition : std::uint8_t {
  kFresh = 0,             ///< new work, queued for annealing
  kDuplicateRunning = 1,  ///< identical job already in flight; attached
  kCached = 2,            ///< served from the result cache (no annealing)
};

const char* to_string(Disposition d);

struct SubmitReply {
  std::uint64_t job = 0;
  Disposition disposition = Disposition::kFresh;
};

/// Typed rejection codes: every refusal names its reason; nothing is
/// dropped silently (graceful/typed degradation).
enum class RejectCode : std::uint8_t {
  kQueueFull = 0,      ///< admission queue at capacity; resubmit later
  kQuotaExceeded = 1,  ///< requested work/replica quota above server limits
  kParseError = 2,     ///< netlist failed to parse (detail: diagnostics)
  kUnknownJob = 3,     ///< query/cancel for a job id the server never had
  kShuttingDown = 4,   ///< server is draining; no new work
  kBadRequest = 5,     ///< structurally valid frame, semantically invalid
  /// Load shed: the server is past this priority class's admission
  /// threshold (or out of a disk resource it needs to accept work).
  /// Transient by construction — retry_after_ms carries the hint.
  kOverloaded = 6,
};

const char* to_string(RejectCode c);

struct RejectReply {
  RejectCode code = RejectCode::kBadRequest;
  std::string detail;
  /// Backoff hint for kOverloaded (0 for every other code): how long the
  /// client should wait before resubmitting. A hint, not a promise.
  std::uint32_t retry_after_ms = 0;
};

/// One streamed progress sample (mirrors FlowProgress + job/replica ids).
struct ProgressEvent {
  std::uint64_t job = 0;
  std::int32_t replica = 0;
  std::uint8_t phase = 0;  ///< recover::FlowPhase
  std::int32_t step = 0;
  std::int32_t pass = 0;
  double t = 0.0;
  double cost = 0.0;
};

/// How a finished job ended (the job-level rollup of replica outcomes).
enum class JobStatus : std::uint8_t {
  kCompleted = 0,        ///< best replica ran its full schedule
  kBudgetExhausted = 1,  ///< best replica's quota expired (partial result)
  kCancelled = 2,        ///< cancelled; best feasible state at that point
  kFailed = 3,           ///< every replica failed; no usable placement
};

const char* to_string(JobStatus s);

/// A finished job's terminal result: the headline metrics plus the
/// bit-exact result fingerprint (pool::result_fingerprint) the soak
/// harness compares across kill/restart runs. The result cache stores
/// exactly this for an identical resubmission.
struct JobResult {
  JobStatus status = JobStatus::kFailed;
  std::uint64_t fingerprint = 0;
  double final_teil = 0.0;
  std::int64_t final_chip_area = 0;
  std::int32_t replicas_succeeded = 0;
  std::int32_t replicas_total = 0;
  std::int32_t attempts = 0;  ///< supervised attempts across all replicas
};

/// Terminal event of a job: its result, for this submission.
struct ResultEvent : JobResult {
  std::uint64_t job = 0;
  bool cached = false;  ///< served from the result cache, not computed now
  std::string detail;   ///< failure summary when status == kFailed
};

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
};

const char* to_string(JobState s);

struct StatusReply {
  std::uint64_t job = 0;
  JobState state = JobState::kQueued;
};

struct PongReply {};

/// The server's health snapshot: queue pressure by priority, every
/// degradation the daemon has taken (shed, preempted, reaped, dropped),
/// and how full the disk budgets are. One frame answers "is this daemon
/// healthy, and if not, what did it sacrifice" — the overload and
/// disk-full soak scenarios assert against these fields.
struct StatsReply {
  std::int32_t jobs_in_flight = 0;
  /// Executor tasks (replicas, not jobs) waiting / running per class.
  std::array<std::int32_t, kNumPriorityClasses> queued{};
  std::array<std::int32_t, kNumPriorityClasses> running{};
  // Cumulative counters since daemon start:
  std::int64_t shed = 0;       ///< submissions rejected kOverloaded
  std::int64_t preempted = 0;  ///< replica tasks parked at a checkpoint
  std::int64_t resumed = 0;    ///< parked tasks picked back up
  std::int64_t recovered = 0;  ///< jobs re-adopted from records at boot
  std::int64_t cache_evictions = 0;   ///< entries evicted for the byte budget
  std::int64_t progress_dropped = 0;  ///< events dropped on slow readers
  std::int64_t reaped = 0;            ///< idle connections reaped
  // Disk budget usage:
  std::uint64_t journal_bytes = 0;  ///< bytes of the live job records
  std::int32_t journal_records = 0;  ///< live job records (jobs in flight)
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_budget_bytes = 0;  ///< 0 = unbounded
  // Degraded modes currently in effect (typed, never silent):
  bool cache_off = false;      ///< result-cache writes disabled after IO failure
  bool journal_degraded = false;  ///< a job record write or removal failed
  std::int64_t checkpoint_off_jobs = 0;  ///< jobs finished checkpoint-off

  bool operator==(const StatsReply&) const = default;
};

using Message =
    std::variant<SubmitRequest, QueryRequest, CancelRequest, PingRequest,
                 ShutdownRequest, StatsRequest, SubmitReply, RejectReply,
                 ProgressEvent, ResultEvent, StatusReply, PongReply,
                 StatsReply>;

MsgType type_of(const Message& m);

// ---------------------------------------------------------------------------
// Framing

/// Encodes one message into a complete frame (header + CRC + payload),
/// ready to write to the socket.
std::vector<std::uint8_t> encode_frame(const Message& m);

/// Incremental frame extractor: feed() raw socket bytes in arbitrary
/// chunks, take() complete messages as they materialize. Throws
/// ServeError (kBadMagic / kBadVersion / kOversized / kBadCrc / kCorrupt)
/// the moment the stream is provably broken — the connection is then
/// unrecoverable and must be dropped.
class FrameParser {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete message, or nothing if more bytes are
  /// needed. (std::optional<Message> needs Message to be complete at
  /// declaration; a has/take pair avoids the header dependency dance.)
  bool has_message();
  Message take_message();

  /// Bytes buffered but not yet consumed (diagnostics).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  bool try_parse();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::vector<Message> ready_;
};

}  // namespace tw::serve
