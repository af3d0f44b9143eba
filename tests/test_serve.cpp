// Placement service (src/serve): wire-protocol framing against truncated,
// corrupted and hostile byte streams; the write-ahead job records read
// back at startup, with damaged records retired one job at a time and
// dead job directories swept; the byte-budgeted on-disk result cache;
// the durable-file layer the job records, the cache and the checkpoint
// sink share (close-time ENOSPC, golden on-disk bytes); the scheduler's
// typed admission
// control (quotas, priority-aware overload shedding, parse rejection),
// dedup against running and cached work, checkpoint preemption with
// byte-identical resume, disk-fault degraded modes, and crash recovery
// (job records + checkpoint re-adoption reproducing the uninterrupted
// fingerprint); and the daemon end-to-end over a real Unix socket —
// submit, progress streaming, cached duplicates, cooperative cancel,
// stats snapshots, graceful shutdown.
//
// Tests may use std::thread (the raw-thread lint rule confines threads in
// src/ to the pool); the daemon cases run Daemon::run() on a test thread
// and stop it with request_stop().
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "netlist/parser.hpp"
#include "netlist/yal.hpp"
#include "pool/executor.hpp"
#include "recover/checkpoint.hpp"
#include "recover/fault.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/result_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"
#include "util/hash.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

using namespace tw::serve;

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// YAL text of the compact workload circuit the pool tests anneal.
const std::string& test_yal() {
  static const std::string yal =
      write_yal(generate_circuit(tiny_circuit(21)));
  return yal;
}

/// The fast parameterization (the knobs tests/fingerprint.hpp's fast_flow
/// sets), expressed as wire-visible JobParams.
JobParams fast_params(std::uint64_t seed) {
  JobParams p;
  p.master_seed = seed;
  p.s1_attempts_per_cell = 12;
  p.s1_p2_samples = 6;
  p.s2_attempts_per_cell = 8;
  p.steiner_m = 4;
  p.checkpoint_every = 1;
  return p;
}

/// The code of the typed `Error` that `fn` throws; nullopt when it returns.
template <typename Error, typename Fn>
auto error_code_of(Fn fn)
    -> std::optional<decltype(std::declval<const Error&>().code())> {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return std::nullopt;
}

/// Offset of the one byte in [from, to) where `a` and `b` differ (an enum
/// field at 0 in one and at its largest value in the other); fails the
/// test unless exactly one byte differs there.
std::size_t only_difference(const std::vector<std::uint8_t>& a,
                            const std::vector<std::uint8_t>& b,
                            std::size_t from, std::size_t to) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t at = 0;
  int differ = 0;
  for (std::size_t i = from; i < to && i < a.size() && i < b.size(); ++i)
    if (a[i] != b[i]) {
      at = i;
      ++differ;
    }
  EXPECT_EQ(differ, 1) << "in bytes [" << from << ", " << to << ")";
  return at;
}

/// Re-stamps the little-endian CRC-32 at `crc_at` over bytes [from, to),
/// so only a decoder's own checks can reject what was planted there.
void restamp_crc(std::vector<std::uint8_t>& bytes, std::size_t crc_at,
                 std::size_t from, std::size_t to) {
  const std::uint32_t crc =
      recover::crc32(std::span(bytes).subspan(from, to - from));
  for (std::size_t i = 0; i < 4; ++i)
    bytes[crc_at + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

/// The whole file at `path`.
std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Replaces the file at `path` with `bytes`.
void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(WireTest, RoundTripsEveryMessageType) {
  SubmitRequest submit;
  submit.params = fast_params(42);
  submit.params.budget_moves = 123456;
  submit.netlist_yal = "MODULE a;\nENDMODULE;\n";
  submit.want_progress = true;

  ResultEvent result;
  result.job = 9;
  result.status = JobStatus::kBudgetExhausted;
  result.cached = true;
  result.fingerprint = 0xdeadbeefcafef00dull;
  result.final_teil = 6318.25;
  result.final_chip_area = 863950;
  result.replicas_succeeded = 2;
  result.replicas_total = 3;
  result.attempts = 5;
  result.detail = "partial";

  StatsReply stats;
  stats.jobs_in_flight = 3;
  stats.queued = {1, 0, 2};
  stats.running = {0, 1, 1};
  stats.shed = 7;
  stats.preempted = 2;
  stats.resumed = 2;
  stats.journal_bytes = 4096;
  stats.journal_records = 2;
  stats.cache_bytes = 512;
  stats.cache_budget_bytes = 1024;
  stats.cache_off = true;
  stats.journal_degraded = true;
  stats.checkpoint_off_jobs = 1;

  const std::vector<Message> all = {
      submit,
      QueryRequest{7},
      CancelRequest{8},
      PingRequest{},
      ShutdownRequest{},
      StatsRequest{},
      SubmitReply{11, Disposition::kDuplicateRunning},
      RejectReply{RejectCode::kQuotaExceeded, "too many replicas"},
      RejectReply{RejectCode::kOverloaded, "3 in flight", 750},
      ProgressEvent{3, 1, 1, 40, 2, 81.5, 1234.75},
      result,
      StatusReply{5, JobState::kRunning},
      PongReply{},
      stats,
  };

  FrameParser parser;
  for (const Message& m : all) {
    const std::vector<std::uint8_t> frame = encode_frame(m);
    parser.feed(frame);
  }
  for (const Message& m : all) {
    ASSERT_TRUE(parser.has_message());
    const Message got = parser.take_message();
    EXPECT_EQ(type_of(got), type_of(m));
  }
  EXPECT_FALSE(parser.has_message());
  EXPECT_EQ(parser.buffered(), 0u);
}

/// The type of each Message alternative, in variant order: every
/// MsgType a frame can carry.
template <std::size_t... I>
std::vector<MsgType> every_msg_type(std::index_sequence<I...>) {
  return {type_of(Message(std::in_place_index<I>))...};
}

TEST(WireTest, EveryMsgTypeAndJobStateHasItsOwnName) {
  const std::vector<MsgType> types =
      every_msg_type(std::make_index_sequence<std::variant_size_v<Message>>{});
  std::set<std::string> names;
  for (MsgType t : types) {
    EXPECT_STRNE(to_string(t), "unknown") << static_cast<int>(t);
    names.insert(to_string(t));
  }
  EXPECT_EQ(names.size(), types.size());
  EXPECT_STREQ(to_string(static_cast<MsgType>(0)), "unknown");

  const JobState states[] = {JobState::kQueued, JobState::kRunning,
                             JobState::kDone};
  names.clear();
  for (JobState s : states) {
    EXPECT_STRNE(to_string(s), "unknown") << static_cast<int>(s);
    names.insert(to_string(s));
  }
  EXPECT_EQ(names.size(), std::size(states));
  EXPECT_STREQ(to_string(static_cast<JobState>(3)), "unknown");
}

TEST(WireTest, DecodedFieldsSurviveTheRoundTrip) {
  SubmitRequest submit;
  submit.params = fast_params(77);
  submit.netlist_yal = test_yal();
  submit.want_progress = true;

  FrameParser parser;
  parser.feed(encode_frame(submit));
  ASSERT_TRUE(parser.has_message());
  const auto got = std::get<SubmitRequest>(parser.take_message());
  EXPECT_EQ(got.params, submit.params);
  EXPECT_EQ(got.netlist_yal, submit.netlist_yal);
  EXPECT_TRUE(got.want_progress);

  ResultEvent r;
  r.job = 4;
  r.status = JobStatus::kCompleted;
  r.fingerprint = 0x123456789abcdef0ull;
  r.final_teil = 0.1;
  r.final_chip_area = 77;
  parser.feed(encode_frame(r));
  ASSERT_TRUE(parser.has_message());
  const auto gr = std::get<ResultEvent>(parser.take_message());
  EXPECT_EQ(gr.job, 4u);
  EXPECT_EQ(gr.status, JobStatus::kCompleted);
  EXPECT_EQ(gr.fingerprint, r.fingerprint);
  EXPECT_DOUBLE_EQ(gr.final_teil, 0.1);
  EXPECT_EQ(gr.final_chip_area, 77);
}

TEST(WireTest, PriorityAndRetryHintSurviveTheRoundTrip) {
  SubmitRequest submit;
  submit.params = fast_params(9);
  submit.params.priority = JobPriority::kUrgent;
  submit.netlist_yal = "MODULE a;\nENDMODULE;\n";

  FrameParser parser;
  parser.feed(encode_frame(submit));
  ASSERT_TRUE(parser.has_message());
  const auto got = std::get<SubmitRequest>(parser.take_message());
  EXPECT_EQ(got.params.priority, JobPriority::kUrgent);

  parser.feed(encode_frame(
      RejectReply{RejectCode::kOverloaded, "busy", 1250}));
  ASSERT_TRUE(parser.has_message());
  const auto rej = std::get<RejectReply>(parser.take_message());
  EXPECT_EQ(rej.code, RejectCode::kOverloaded);
  EXPECT_EQ(rej.retry_after_ms, 1250u);

  StatsReply stats;
  stats.jobs_in_flight = 5;
  stats.queued = {3, 2, 1};
  stats.running = {0, 2, 1};
  stats.shed = 11;
  stats.preempted = 4;
  stats.resumed = 3;
  stats.recovered = 2;
  stats.cache_evictions = 6;
  stats.progress_dropped = 99;
  stats.reaped = 1;
  stats.journal_bytes = 123456;
  stats.journal_records = 3;
  stats.cache_bytes = 789;
  stats.cache_budget_bytes = 8192;
  stats.cache_off = true;
  stats.journal_degraded = true;
  stats.checkpoint_off_jobs = 2;
  parser.feed(encode_frame(stats));
  ASSERT_TRUE(parser.has_message());
  const auto gs = std::get<StatsReply>(parser.take_message());
  EXPECT_EQ(gs, stats);
}

TEST(WireTest, ByteAtATimeFeedingReassembles) {
  const std::vector<std::uint8_t> frame =
      encode_frame(StatusReply{31, JobState::kDone});
  FrameParser parser;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_FALSE(parser.has_message()) << "message before byte " << i;
    parser.feed(std::span(&frame[i], 1));
  }
  ASSERT_TRUE(parser.has_message());
  const auto got = std::get<StatusReply>(parser.take_message());
  EXPECT_EQ(got.job, 31u);
  EXPECT_EQ(got.state, JobState::kDone);
}

TEST(WireTest, BadMagicIsTyped) {
  std::vector<std::uint8_t> junk = {'H', 'T', 'T', 'P', '/', '1', '.', '1',
                                    ' ', ' ', ' ', ' ', ' ', ' ', ' ', ' ',
                                    ' ', ' ', ' ', ' '};
  FrameParser parser;
  try {
    parser.feed(junk);
    (void)parser.has_message();
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrc::kBadMagic);
  }
}

TEST(WireTest, CorruptPayloadFailsTheCrc) {
  std::vector<std::uint8_t> frame = encode_frame(QueryRequest{123});
  frame.back() ^= 0x01;  // flip one payload bit
  FrameParser parser;
  try {
    parser.feed(frame);
    (void)parser.has_message();
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrc::kBadCrc);
  }
}

TEST(WireTest, WrongVersionIsTyped) {
  std::vector<std::uint8_t> frame = encode_frame(PingRequest{});
  frame[4] = 0xEE;  // version field (little-endian) after the 4-byte magic
  FrameParser parser;
  try {
    parser.feed(frame);
    (void)parser.has_message();
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrc::kBadVersion);
  }
}

TEST(WireTest, OversizedLengthPrefixNeverAllocates) {
  // A hostile header claiming a multi-GiB payload must be rejected from
  // the 20 header bytes alone.
  std::vector<std::uint8_t> frame = encode_frame(PingRequest{});
  frame[12] = 0xFF;  // payload-size field
  frame[13] = 0xFF;
  frame[14] = 0xFF;
  frame[15] = 0x7F;
  FrameParser parser;
  try {
    parser.feed(std::span(frame.data(), 20));
    (void)parser.has_message();
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrc::kOversized);
  }
}

TEST(WireTest, ParamsDigestSeparatesEveryField) {
  const JobParams base = fast_params(1);
  std::vector<JobParams> variants(12, base);
  variants[0].master_seed = 2;
  variants[1].replicas = 4;
  variants[2].max_attempts = 9;
  variants[3].budget_moves = 5;
  variants[4].budget_steps = 6;
  variants[5].watchdog_moves = 7;
  variants[6].s1_attempts_per_cell = 99;
  variants[7].s1_p2_samples = 98;
  variants[8].s2_attempts_per_cell = 97;
  variants[9].steiner_m = 96;
  variants[10].checkpoint_every = 95;
  variants[11].checkpoint_keep = 94;
  for (std::size_t i = 0; i < variants.size(); ++i)
    EXPECT_NE(params_digest(variants[i]), params_digest(base))
        << "field " << i << " does not reach the digest";
  EXPECT_EQ(params_digest(base), params_digest(fast_params(1)));

  // Priority is deliberately EXCLUDED: it routes scheduling, it does not
  // change the computation, so identical work dedups across classes.
  JobParams urgent = base;
  urgent.priority = JobPriority::kUrgent;
  EXPECT_EQ(params_digest(urgent), params_digest(base))
      << "priority must not reach the digest (it would defeat dedup)";
}

/// One message of every type, every field away from its default.
std::vector<Message> golden_messages() {
  SubmitRequest submit;
  submit.params.master_seed = 0x1122334455667788ull;
  submit.params.replicas = 3;
  submit.params.max_attempts = 4;
  submit.params.budget_moves = 1000001;
  submit.params.budget_steps = 77;
  submit.params.watchdog_moves = 500000;
  submit.params.s1_attempts_per_cell = 12;
  submit.params.s1_p2_samples = 6;
  submit.params.s2_attempts_per_cell = 8;
  submit.params.steiner_m = 4;
  submit.params.checkpoint_every = 2;
  submit.params.checkpoint_keep = 3;
  submit.params.priority = JobPriority::kUrgent;
  submit.netlist_yal = "MODULE golden;\nENDMODULE;\n";
  submit.want_progress = true;

  ResultEvent result;
  result.job = 23;
  result.status = JobStatus::kBudgetExhausted;
  result.cached = true;
  result.fingerprint = 0xdeadbeefcafef00dull;
  result.final_teil = 6318.25;
  result.final_chip_area = 863950;
  result.replicas_succeeded = 2;
  result.replicas_total = 3;
  result.attempts = 5;
  result.detail = "partial result";

  StatsReply stats;
  stats.jobs_in_flight = 5;
  stats.queued = {3, 2, 1};
  stats.running = {4, 6, 7};
  stats.shed = 11;
  stats.preempted = 4;
  stats.resumed = 3;
  stats.recovered = 2;
  stats.cache_evictions = 6;
  stats.progress_dropped = 99;
  stats.reaped = 8;
  stats.journal_bytes = 123456;
  stats.journal_records = 9;
  stats.cache_bytes = 789;
  stats.cache_budget_bytes = 8192;
  stats.cache_off = true;
  stats.journal_degraded = true;
  stats.checkpoint_off_jobs = 12;

  return {
      submit,
      QueryRequest{0x0102030405060708ull},
      CancelRequest{0x1112131415161718ull},
      PingRequest{},
      ShutdownRequest{},
      StatsRequest{},
      SubmitReply{21, Disposition::kCached},
      RejectReply{RejectCode::kOverloaded, "9 jobs in flight", 1250},
      ProgressEvent{22, 3, 1, 41, 2, 812.25, -1234.5},
      result,
      StatusReply{24, JobState::kRunning},
      PongReply{},
      stats,
  };
}

TEST(WireTest, EveryMessageTypeMatchesGoldenBytes) {
  // The digest was recorded from the per-message codecs that preceded
  // the shared field lists: the bytes on the socket are unchanged, so
  // clients and daemons of either build still speak to each other.
  const std::vector<Message> all = golden_messages();
  ASSERT_EQ(all.size(), 13u);
  std::vector<std::uint8_t> stream;
  FrameParser parser;
  for (const Message& m : all) {
    const std::vector<std::uint8_t> frame = encode_frame(m);
    stream.insert(stream.end(), frame.begin(), frame.end());
    parser.feed(frame);
    ASSERT_TRUE(parser.has_message()) << to_string(type_of(m));
    EXPECT_EQ(encode_frame(parser.take_message()), frame)
        << to_string(type_of(m)) << " does not decode to itself";
  }
  EXPECT_EQ(stream.size(), 638u);
  EXPECT_EQ(fnv1a(stream), 0xf59dbd08fe9f7b72ull);
}

TEST(WireTest, OutOfRangeEnumBytesAreCorrupt) {
  SubmitRequest batch;
  batch.params.priority = JobPriority::kBatch;
  SubmitRequest urgent;
  urgent.params.priority = JobPriority::kUrgent;
  ResultEvent completed;
  completed.status = JobStatus::kCompleted;
  ResultEvent failed;
  failed.status = JobStatus::kFailed;

  struct Case {
    const char* field;
    Message lo;  ///< the field at 0
    Message hi;  ///< the field at its largest valid value
    std::uint8_t max;
  };
  const std::vector<Case> cases = {
      {"disposition", SubmitReply{1, Disposition::kFresh},
       SubmitReply{1, Disposition::kCached}, 2},
      {"reject code", RejectReply{RejectCode::kQueueFull, "x"},
       RejectReply{RejectCode::kOverloaded, "x"}, 6},
      {"progress phase", ProgressEvent{1, 0, 0, 0, 0, 0.0, 0.0},
       ProgressEvent{1, 0, 1, 0, 0, 0.0, 0.0}, 1},
      {"job status", completed, failed, 3},
      {"job state", StatusReply{1, JobState::kQueued},
       StatusReply{1, JobState::kDone}, 2},
      {"priority", batch, urgent, 2},
  };
  constexpr std::size_t kHeader = 20;  // the CRC sits at offset 16
  for (const Case& c : cases) {
    std::vector<std::uint8_t> frame = encode_frame(c.hi);
    const std::size_t at =
        only_difference(encode_frame(c.lo), frame, kHeader, frame.size());
    frame[at] = c.max;
    restamp_crc(frame, 16, kHeader, frame.size());
    FrameParser top;
    top.feed(frame);
    EXPECT_TRUE(top.has_message()) << c.field << " at its maximum";
    frame[at] = static_cast<std::uint8_t>(c.max + 1);
    restamp_crc(frame, 16, kHeader, frame.size());
    FrameParser parser;
    EXPECT_EQ(error_code_of<ServeError>([&] { parser.feed(frame); }),
              ServeErrc::kCorrupt)
        << c.field << " one past its maximum";
  }
}

// ---------------------------------------------------------------------------
// Write-ahead job records

/// Path of job `id`'s record under the job root `dir`.
std::string record_path(const std::string& dir, std::uint64_t id) {
  return dir + "/job-" + std::to_string(id) + "/record.twj";
}

TEST(JournalTest, ReplayReconstructsLiveJobsInOrder) {
  const std::string dir = fresh_dir("tw_srv_journal") + "/jobs";
  {
    JobJournal j(dir);
    j.write(LiveJob{3, fast_params(3), "netlist three"});
    j.write(LiveJob{1, fast_params(1), "netlist one"});
    j.write(LiveJob{2, fast_params(2), "netlist two"});
    j.write(LiveJob{3, fast_params(3), "netlist three", /*cancelled=*/true});
    EXPECT_TRUE(j.remove(2));  // job 2 finished
    EXPECT_EQ(j.records(), 2);
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-2"));

  JobJournal j(dir);
  const std::vector<LiveJob> live = j.recover();
  EXPECT_EQ(j.max_job(), 3u);
  EXPECT_EQ(j.records(), 2);
  EXPECT_EQ(j.bytes(), std::filesystem::file_size(record_path(dir, 1)) +
                           std::filesystem::file_size(record_path(dir, 3)));
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].job, 1u);
  EXPECT_EQ(live[0].netlist_yal, "netlist one");
  EXPECT_FALSE(live[0].cancelled);
  EXPECT_EQ(live[1].job, 3u);
  EXPECT_TRUE(live[1].cancelled) << "the cancel rewrite must survive";
  EXPECT_EQ(live[1].params, fast_params(3));
}

TEST(JournalTest, MissingJournalIsAnEmptyHistory) {
  const std::string dir = fresh_dir("tw_srv_nojournal") + "/none";
  JobJournal j(dir);
  EXPECT_TRUE(j.recover().empty());
  EXPECT_EQ(j.max_job(), 0u);
  EXPECT_EQ(j.records(), 0);
  EXPECT_EQ(j.bytes(), 0u);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

TEST(JournalTest, TornTailIsDroppedEarlierRecordsSurvive) {
  // write_atomic never publishes a partial record, so a torn one is disk
  // damage; it retires its own job and no other.
  const std::string dir = fresh_dir("tw_srv_torn") + "/jobs";
  {
    JobJournal j(dir);
    j.write(LiveJob{1, fast_params(1), "first"});
    j.write(LiveJob{2, fast_params(2), "second"});
  }
  const std::string path = record_path(dir, 2);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);

  JobJournal j(dir);
  const std::vector<LiveJob> live = j.recover();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].job, 1u);
  EXPECT_EQ(live[0].netlist_yal, "first");
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-2"));
  EXPECT_EQ(j.max_job(), 2u) << "a retired job's id stays taken";
}

TEST(JournalTest, CorruptTailRecordIsDroppedNotFatal) {
  const std::string dir = fresh_dir("tw_srv_crc") + "/jobs";
  {
    JobJournal j(dir);
    j.write(LiveJob{1, fast_params(1), "good"});
    j.write(LiveJob{2, fast_params(2), "about to rot"});
  }
  // Flip a byte in the tail of job 2's record: its CRC no longer holds.
  std::vector<std::uint8_t> bytes = file_bytes(record_path(dir, 2));
  ASSERT_GT(bytes.size(), 3u);
  bytes[bytes.size() - 3] ^= 0x40;
  write_bytes(record_path(dir, 2), bytes);
  // A valid record under another job's directory is corrupt too.
  std::filesystem::create_directories(dir + "/job-4");
  std::filesystem::copy_file(record_path(dir, 1), record_path(dir, 4));

  JobJournal j(dir);
  std::vector<LiveJob> live;
  ASSERT_NO_THROW(live = j.recover());
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].job, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-2"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-4"));
  EXPECT_EQ(j.max_job(), 4u);
}

TEST(JournalTest, OutOfRangePriorityMakesACorruptRecordNotAThrow) {
  // Startup never throws for content: a CRC-valid record whose priority
  // byte is one past kUrgent retires its own job only, and its id stays
  // taken.
  const auto write_jobs = [](const std::string& dir, JobPriority priority) {
    JobJournal j(dir);
    j.write(LiveJob{1, fast_params(1), "kept"});
    JobParams p = fast_params(5);
    p.priority = priority;
    j.write(LiveJob{5, p, "damaged"});
    j.write(LiveJob{6, fast_params(6), "after the damage"});
    return file_bytes(record_path(dir, 5));
  };
  const std::vector<std::uint8_t> batch =
      write_jobs(fresh_dir("tw_srv_prio_a") + "/jobs", JobPriority::kBatch);
  const std::string dir = fresh_dir("tw_srv_prio") + "/jobs";
  std::vector<std::uint8_t> bytes = write_jobs(dir, JobPriority::kUrgent);

  // The frame header is magic, version, size and CRC (at 12); the
  // payload starts at 16.
  const std::size_t at = only_difference(batch, bytes, 16, bytes.size());
  ASSERT_EQ(bytes[at], static_cast<std::uint8_t>(JobPriority::kUrgent));
  bytes[at] = static_cast<std::uint8_t>(JobPriority::kUrgent) + 1;
  restamp_crc(bytes, 12, 16, bytes.size());
  write_bytes(record_path(dir, 5), bytes);

  JobJournal j(dir);
  std::vector<LiveJob> live;
  ASSERT_NO_THROW(live = j.recover());
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].netlist_yal, "kept");
  EXPECT_EQ(live[1].netlist_yal, "after the damage");
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-5"));
  EXPECT_EQ(j.max_job(), 6u);
}

TEST(JournalTest, StartupSweepsJobDirectoriesWithoutARecord) {
  // A checkpoint tree whose record is gone (a removal cut short) and a
  // torn temp that never became a record (a kill before the ack) are
  // removed; their ids stay taken. Names the journal never writes are
  // not its to remove.
  const std::string dir = fresh_dir("tw_srv_sweep") + "/jobs";
  {
    JobJournal j(dir);
    j.write(LiveJob{2, fast_params(2), "live"});
  }
  std::filesystem::create_directories(dir + "/job-3/replica-0");
  write_bytes(dir + "/job-3/replica-0/ckpt-000001.twcp", {1, 2, 3});
  std::filesystem::create_directories(dir + "/job-9");
  write_bytes(record_path(dir, 9) + ".tmp", {1, 2});
  std::filesystem::create_directories(dir + "/job-011");
  std::filesystem::create_directories(dir + "/notes");

  JobJournal j(dir);
  const std::vector<LiveJob> live = j.recover();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].job, 2u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-3"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-9"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/job-011"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/notes"));
  EXPECT_EQ(j.max_job(), 9u);
}

TEST(JournalTest, InjectedWriteFaultsAreTypedAndLeaveNoRecord) {
  const std::string dir = fresh_dir("tw_srv_jfault") + "/jobs";
  recover::DiskFaultPlan plan;
  plan.fail_at(recover::DiskSite::kJournalWrite, 1,
               recover::DiskFault::kEnospc);
  plan.fail_at(recover::DiskSite::kJournalWrite, 2,
               recover::DiskFault::kShortWrite);
  plan.fail_at(recover::DiskSite::kJournalWrite, 3,
               recover::DiskFault::kShortWrite);
  JobJournal j(dir, &plan);
  j.write(LiveJob{1, fast_params(1), "survives"});
  // A job's first write that fails, with nothing written (ENOSPC) or a
  // torn temp file (short write), takes its directory with it.
  EXPECT_EQ(error_code_of<ServeError>(
                [&] { j.write(LiveJob{2, fast_params(2), "enospc"}); }),
            ServeErrc::kIo);
  EXPECT_EQ(error_code_of<ServeError>(
                [&] { j.write(LiveJob{3, fast_params(3), "torn"}); }),
            ServeErrc::kIo);
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-2"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/job-3"));
  // A rewrite (a cancel) that fails keeps the record it could not
  // replace; the torn temp next to it is never read.
  EXPECT_EQ(error_code_of<ServeError>([&] {
              j.write(LiveJob{1, fast_params(1), "survives", true});
            }),
            ServeErrc::kIo);
  EXPECT_TRUE(std::filesystem::exists(record_path(dir, 1) + ".tmp"));
  EXPECT_EQ(j.records(), 1);
  EXPECT_EQ(plan.count(recover::DiskSite::kJournalWrite), 4);

  JobJournal reread(dir);
  const std::vector<LiveJob> live = reread.recover();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].job, 1u);
  EXPECT_EQ(live[0].netlist_yal, "survives");
  EXPECT_FALSE(live[0].cancelled);
  EXPECT_EQ(reread.max_job(), 1u);
}

// ---------------------------------------------------------------------------
// Result cache

JobResult sample_result(std::uint64_t fp) {
  JobResult r;
  r.status = JobStatus::kCompleted;
  r.fingerprint = fp;
  r.final_teil = 123.5;
  r.final_chip_area = 999;
  r.replicas_succeeded = 1;
  r.replicas_total = 1;
  r.attempts = 1;
  return r;
}

/// On-disk size of one cache entry (they are fixed-width records, so one
/// probe sizes them all) — the unit the byte-budget tests measure in.
/// The probe directory is named after the calling test: ctest runs each
/// case in its own process, and two probes sharing a directory at once
/// would measure each other's entries.
std::uint64_t cache_entry_bytes() {
  static const std::uint64_t bytes = [] {
    const std::string leaf =
        std::string("tw_srv_cache_probe_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ResultCache probe(fresh_dir(leaf), 1u << 20);
    probe.put(CacheKey{1, 1}, sample_result(1));
    return probe.bytes();
  }();
  return bytes;
}

TEST(ResultCacheTest, PutLookupAndReloadAcrossRestart) {
  const std::string dir = fresh_dir("tw_srv_cache1");
  const CacheKey key{0x1111, 0x2222};
  {
    ResultCache cache(dir, 1u << 20);
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.put(key, sample_result(0xabcd));
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->fingerprint, 0xabcdu);
    EXPECT_DOUBLE_EQ(hit->final_teil, 123.5);
  }
  // A fresh instance (daemon restart) reloads the entry from disk.
  ResultCache cache(dir, 1u << 20);
  EXPECT_EQ(cache.loaded(), 1);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->fingerprint, 0xabcdu);
  EXPECT_EQ(hit->status, JobStatus::kCompleted);
}

TEST(ResultCacheTest, ByteBudgetEvictsOldestFilesFirst) {
  const std::uint64_t entry = cache_entry_bytes();
  ASSERT_GT(entry, 0u);

  const std::string dir = fresh_dir("tw_srv_cache2");
  ResultCache cache(dir, 3 * entry);
  for (std::uint64_t i = 1; i <= 5; ++i)
    cache.put(CacheKey{i, i}, sample_result(i));
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
  EXPECT_FALSE(cache.lookup(CacheKey{1, 1}).has_value());
  EXPECT_FALSE(cache.lookup(CacheKey{2, 2}).has_value());
  for (std::uint64_t i = 3; i <= 5; ++i)
    EXPECT_TRUE(cache.lookup(CacheKey{i, i}).has_value()) << i;
  EXPECT_EQ(cache.prune_failures(), 0);

  // The directory itself is bounded too, not just the index.
  int files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    files += e.path().extension() == ".twr" ? 1 : 0;
  EXPECT_EQ(files, 3);
}

TEST(ResultCacheTest, ShrunkBudgetPrunesAtStartupAndOversizedIsRefused) {
  const std::uint64_t entry = cache_entry_bytes();
  const std::string dir = fresh_dir("tw_srv_cache_shrink");
  {
    ResultCache cache(dir, 1u << 20);
    for (std::uint64_t i = 1; i <= 5; ++i)
      cache.put(CacheKey{i, i}, sample_result(i));
    EXPECT_EQ(cache.size(), 5);
  }
  // Restart under a smaller budget: the overflow is evicted at load,
  // oldest first — the disk must fit the budget the operator set *now*.
  ResultCache cache(dir, 2 * entry);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
  EXPECT_TRUE(cache.lookup(CacheKey{4, 4}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{5, 5}).has_value());

  // An entry that alone exceeds the whole budget is refused up front —
  // caching it would evict everything and then itself be evicted.
  ResultCache tiny(fresh_dir("tw_srv_cache_tiny"), entry - 1);
  EXPECT_THROW(tiny.put(CacheKey{9, 9}, sample_result(9)), ServeError);
  EXPECT_EQ(tiny.size(), 0);
  EXPECT_EQ(tiny.bytes(), 0u);
}

TEST(ResultCacheTest, InjectedWriteFaultIsTypedAndLeavesTheCacheConsistent) {
  recover::DiskFaultPlan plan;
  plan.fail_at(recover::DiskSite::kCacheWrite, 0,
               recover::DiskFault::kEnospc);
  const std::string dir = fresh_dir("tw_srv_cache_fault");
  ResultCache cache(dir, 1u << 20, &plan);
  EXPECT_THROW(cache.put(CacheKey{1, 1}, sample_result(1)), ServeError);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.lookup(CacheKey{1, 1}).has_value());
  // The fault was one-shot; the cache keeps working afterwards.
  cache.put(CacheKey{2, 2}, sample_result(2));
  EXPECT_TRUE(cache.lookup(CacheKey{2, 2}).has_value());
  EXPECT_EQ(plan.count(recover::DiskSite::kCacheWrite), 2);
}

TEST(ResultCacheTest, NonDeterministicTerminalStatesAreNotCached) {
  const std::string dir = fresh_dir("tw_srv_cache3");
  ResultCache cache(dir, 1u << 20);
  JobResult cancelled = sample_result(1);
  cancelled.status = JobStatus::kCancelled;
  JobResult failed = sample_result(2);
  failed.status = JobStatus::kFailed;
  JobResult partial = sample_result(3);
  partial.status = JobStatus::kBudgetExhausted;

  cache.put(CacheKey{1, 1}, cancelled);
  cache.put(CacheKey{2, 2}, failed);
  cache.put(CacheKey{3, 3}, partial);

  EXPECT_FALSE(cacheable(JobStatus::kCancelled));
  EXPECT_FALSE(cacheable(JobStatus::kFailed));
  EXPECT_TRUE(cacheable(JobStatus::kBudgetExhausted));
  EXPECT_TRUE(cacheable(JobStatus::kCompleted));
  EXPECT_FALSE(cache.lookup(CacheKey{1, 1}).has_value());
  EXPECT_FALSE(cache.lookup(CacheKey{2, 2}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{3, 3}).has_value());
}

TEST(ResultCacheTest, TornEntryFromAKilledDaemonIsSkippedOnLoad) {
  const std::string dir = fresh_dir("tw_srv_cache4");
  {
    ResultCache cache(dir, 1u << 20);
    cache.put(CacheKey{10, 10}, sample_result(10));
  }
  // A garbage .twr file (torn write, disk rot) must not poison the load.
  std::ofstream(dir + "/res-000099.twr", std::ios::binary)
      << "not a cache entry";
  ResultCache cache(dir, 1u << 20);
  EXPECT_EQ(cache.loaded(), 1);
  EXPECT_TRUE(cache.lookup(CacheKey{10, 10}).has_value());

  // And the counter resumed above the junk file's number: a new put must
  // not collide with (or be shadowed by) anything present.
  cache.put(CacheKey{11, 11}, sample_result(11));
  ResultCache reloaded(dir, 1u << 20);
  EXPECT_TRUE(reloaded.lookup(CacheKey{11, 11}).has_value());
}

/// The bytes of the one entry file a fresh cache in `dir` writes for
/// `result` under key {5, 6}.
std::vector<std::uint8_t> cache_entry_file(const std::string& dir,
                                           const JobResult& result) {
  {
    ResultCache cache(dir, 1u << 20);
    cache.put(CacheKey{5, 6}, result);
  }
  return file_bytes(dir + "/res-000001.twr");
}

TEST(ResultCacheTest, OutOfRangeStatusByteIsSkippedOnLoad) {
  // Locate the status byte by diffing two entries that differ only in
  // it, then plant values under a re-stamped CRC: the largest status
  // loads, one past it is an invalid entry the load skips.
  constexpr std::size_t kHeader = 16;  // the CRC sits at offset 12
  JobResult partial = sample_result(7);
  partial.status = JobStatus::kBudgetExhausted;
  const std::vector<std::uint8_t> a =
      cache_entry_file(fresh_dir("tw_srv_cache_enum_a"), sample_result(7));
  const std::string dir = fresh_dir("tw_srv_cache_enum");
  const std::vector<std::uint8_t> b = cache_entry_file(dir, partial);
  const std::size_t at = only_difference(a, b, kHeader, b.size());

  const auto plant = [&](std::uint8_t status) {
    std::vector<std::uint8_t> bytes = b;
    bytes[at] = status;
    restamp_crc(bytes, 12, kHeader, bytes.size());
    write_bytes(dir + "/res-000001.twr", bytes);
  };
  plant(static_cast<std::uint8_t>(JobStatus::kFailed));
  {
    const ResultCache cache(dir, 1u << 20);
    EXPECT_EQ(cache.loaded(), 1);
    ASSERT_TRUE(cache.lookup(CacheKey{5, 6}).has_value());
    EXPECT_EQ(cache.lookup(CacheKey{5, 6})->status, JobStatus::kFailed);
  }
  plant(static_cast<std::uint8_t>(JobStatus::kFailed) + 1);
  const ResultCache cache(dir, 1u << 20);
  EXPECT_EQ(cache.loaded(), 0);
  EXPECT_FALSE(cache.lookup(CacheKey{5, 6}).has_value());
}

// ---------------------------------------------------------------------------
// Durable files: the checkpoint sink, the result cache and the job
// records share one atomic write and one frame, and the first two one
// numbered-file scheme (recover/durable.hpp).

/// Removes a directory when the test leaves it, on a failed ASSERT too.
struct RemoveOnExit {
  std::string dir;
  ~RemoveOnExit() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

TEST(RecoverDurable, CloseTimeEnospcIsTypedAndRenamesNothing) {
  // A symlink to /dev/full at a store's next temp path is the one
  // unprivileged way to make ENOSPC strike when the buffered bytes reach
  // the disk. Each store must fail typed, rename nothing and keep its
  // prior state. Nothing here may read through a link: a read of
  // /dev/full never ends, so every ASSERT comes before any read-back.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string root = fresh_dir("tw_durable_enospc");
  const RemoveOnExit cleanup{root};
  const auto plant = [](const std::string& tmp) {
    std::filesystem::create_symlink("/dev/full", tmp);
  };

  {  // Checkpoint sink: no checkpoint file appears.
    const std::string dir = root + "/ckpt";
    recover::FileCheckpointSink sink(dir);
    plant(dir + "/ckpt-000001.twcp.tmp");
    ASSERT_EQ(error_code_of<recover::CheckpointError>(
                  [&] { (void)sink.save(recover::FlowCheckpoint{}); }),
              recover::CheckpointErrc::kIo);
    EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt-000001.twcp"));
    EXPECT_EQ(sink.saved(), 0);
    EXPECT_EQ(sink.bytes(), 0u);
    EXPECT_FALSE(recover::find_latest_checkpoint(dir).has_value());
  }
  {  // Result cache: nothing indexed, and a reload agrees.
    const std::string dir = root + "/cache";
    ResultCache cache(dir, 1u << 20);
    plant(dir + "/res-000001.twr.tmp");
    ASSERT_EQ(error_code_of<ServeError>(
                  [&] { cache.put(CacheKey{1, 1}, sample_result(1)); }),
              ServeErrc::kIo);
    EXPECT_FALSE(std::filesystem::exists(dir + "/res-000001.twr"));
    EXPECT_EQ(cache.size(), 0);
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_FALSE(cache.lookup(CacheKey{1, 1}).has_value());
    const ResultCache reloaded(dir, 1u << 20);
    EXPECT_EQ(reloaded.size(), 0);
    EXPECT_EQ(reloaded.loaded(), 0);
  }
  {  // Job records: a failed rewrite keeps the old record; a failed
     // first write leaves no directory.
    const std::string dir = root + "/jobs";
    JobJournal j(dir);
    j.write(LiveJob{1, fast_params(1), "live job"});
    plant(dir + "/job-1/record.twj.tmp");
    ASSERT_EQ(error_code_of<ServeError>([&] {
                j.write(LiveJob{1, fast_params(1), "live job", true});
              }),
              ServeErrc::kIo);
    std::filesystem::create_directories(dir + "/job-2");
    plant(dir + "/job-2/record.twj.tmp");
    ASSERT_EQ(error_code_of<ServeError>([&] {
                j.write(LiveJob{2, fast_params(2), "second job"});
              }),
              ServeErrc::kIo);
    EXPECT_FALSE(std::filesystem::exists(dir + "/job-2"));
    EXPECT_EQ(j.records(), 1);
    JobJournal reread(dir);
    const std::vector<LiveJob> live = reread.recover();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].netlist_yal, "live job");
    EXPECT_FALSE(live[0].cancelled);
  }
}

/// FNV-1a over a file's bytes.
std::uint64_t file_digest(const std::string& path) {
  return fnv1a(file_bytes(path));
}

/// A stage-2 checkpoint with every field group populated.
recover::FlowCheckpoint golden_checkpoint() {
  recover::FlowCheckpoint cp;
  cp.master_seed = 42;
  cp.digest = 0x0123456789ABCDEFull;
  cp.phase = recover::FlowPhase::kStage2;
  cp.s1_done.final_teic = 1500.75;
  cp.s1_done.final_teil = 1234.5;
  cp.s1_done.residual_overlap = 17;
  cp.s1_done.core = Rect{-200, -150, 200, 150};
  cp.s1_done.t_infinity = 812.25;
  cp.s1_done.temperature_steps = 3;
  cp.s1_done.attempts = 9000;
  cp.s1_done.accepts = 4100;
  cp.s1_done.trace.push_back({812.25, 1600.5, 0.875, 120});
  cp.s1_done.trace.push_back({406.125, 1550.0, 0.5, 60});
  cp.stage1_teil = 1234.5;
  cp.stage1_chip_area = 120000;
  cp.s2.pass = 1;
  cp.s2.anneal.t = 3.5;
  cp.s2.anneal.steps = 7;
  cp.s2.anneal.last_cost = 1100.125;
  cp.s2.p2 = 0.25;
  cp.s2.working_core = Rect{-210, -160, 210, 160};
  cp.s2.expansions = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  cp.s2.rp.teil = 1180.5;
  cp.s2.rp.regions = 12;
  cp.s2.rp.router_counters.nodes_popped = 4321;
  cp.s2.done.resize(1);
  cp.s2.done[0].route_length = 987.5;
  cp.s2.rng = {11, 22, 33, 44};
  cp.placement.cells.resize(2);
  cp.placement.cells[0].center = Point{-50, 25};
  cp.placement.cells[0].orient = Orient::FE;
  cp.placement.cells[0].pin_site = {0, 3, 5};
  cp.placement.cells[1].center = Point{75, -40};
  cp.placement.cells[1].instance = 1;
  cp.placement.cells[1].aspect = 1.5;
  return cp;
}

TEST(RecoverDurable, OnDiskBytesMatchGoldenDigests) {
  // Digests recorded from the stores' own writers before they shared
  // recover/durable.hpp: the format is unchanged, so files an older
  // build left on disk stay readable.
  const std::string root = fresh_dir("tw_durable_golden");
  const RemoveOnExit cleanup{root};

  const std::string ckpt = root + "/golden.twcp";
  recover::write_checkpoint_file(ckpt, golden_checkpoint());
  EXPECT_EQ(file_digest(ckpt), 0x5759391efb1b81f7ull);
  EXPECT_EQ(recover::encode_checkpoint(recover::load_checkpoint(ckpt)),
            recover::encode_checkpoint(golden_checkpoint()));

  {
    ResultCache cache(root + "/cache", 1u << 20);
    cache.put(CacheKey{0x1111, 0x2222}, sample_result(0xabcdef));
  }
  EXPECT_EQ(file_digest(root + "/cache/res-000001.twr"),
            0xd9d81eb0fba86621ull);

  // One job record: a daemon's successor must read what it left behind.
  {
    JobJournal j(root + "/jobs");
    j.write(LiveJob{2, fast_params(2), "golden netlist two", true});
  }
  EXPECT_EQ(file_digest(root + "/jobs/job-2/record.twj"),
            0xad85751815259db3ull);
}

// ---------------------------------------------------------------------------
// Scheduler

/// Routes PoolExecutor callbacks (worker threads) back to the test thread,
/// exactly as the daemon's event queue does.
struct DoneQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<pool::ExecutorResult> results;

  pool::PoolExecutor::Hooks hooks() {
    pool::PoolExecutor::Hooks h;
    h.on_done = [this](pool::ExecutorResult r) {
      {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(std::move(r));
      }
      cv.notify_all();
    };
    return h;
  }

  pool::ExecutorResult wait_pop() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return !results.empty(); });
    pool::ExecutorResult r = std::move(results.front());
    results.pop_front();
    return r;
  }
};

SubmitRequest fast_submit(std::uint64_t seed) {
  SubmitRequest req;
  req.params = fast_params(seed);
  req.netlist_yal = test_yal();
  return req;
}

TEST(SchedulerTest, QuotaViolationsAreTypedRejections) {
  DoneQueue q;
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_quota");
  cfg.threads = 1;
  cfg.limits.max_replicas = 2;
  cfg.limits.max_cells = 4;  // the test netlist has 21
  cfg.limits.max_budget_moves = 1000;
  Scheduler sched(cfg, q.hooks());

  SubmitRequest req = fast_submit(1);
  req.params.replicas = 3;  // above max_replicas
  Submitted s = sched.submit(req);
  ASSERT_EQ(s.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(s.reject.code, RejectCode::kQuotaExceeded);

  req = fast_submit(1);
  req.params.budget_moves = 5000;  // above max_budget_moves
  s = sched.submit(req);
  ASSERT_EQ(s.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(s.reject.code, RejectCode::kQuotaExceeded);

  req = fast_submit(1);  // budget_moves = -1: unlimited request under a cap
  s = sched.submit(req);
  ASSERT_EQ(s.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(s.reject.code, RejectCode::kQuotaExceeded);

  req = fast_submit(1);
  req.params.budget_moves = 500;  // within quota — but the netlist is not
  s = sched.submit(req);
  ASSERT_EQ(s.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(s.reject.code, RejectCode::kQuotaExceeded);
  EXPECT_NE(s.reject.detail.find("cell"), std::string::npos);

  req.params.replicas = 0;  // degenerate request
  s = sched.submit(req);
  ASSERT_EQ(s.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(s.reject.code, RejectCode::kBadRequest);

  EXPECT_EQ(sched.in_flight(), 0);
  sched.shutdown();
}

TEST(SchedulerTest, UnparseableNetlistIsRejectedWithDiagnostics) {
  DoneQueue q;
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_parse");
  cfg.threads = 1;
  Scheduler sched(cfg, q.hooks());

  SubmitRequest req;
  req.params = fast_params(1);
  req.netlist_yal = "MODULE broken;\n  TYPE GENERAL;\nthis is not YAL";
  const Submitted s = sched.submit(req);
  ASSERT_EQ(s.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(s.reject.code, RejectCode::kParseError);
  EXPECT_FALSE(s.reject.detail.empty());
  sched.shutdown();
}

TEST(SchedulerTest, OverloadShedsTypedWithARetryHint) {
  DoneQueue q;
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_qfull");
  cfg.threads = 1;
  cfg.limits.max_jobs = 1;
  Scheduler sched(cfg, q.hooks());

  const Submitted first = sched.submit(fast_submit(1));
  ASSERT_EQ(first.kind, Submitted::Kind::kAccepted);
  EXPECT_EQ(sched.in_flight(), 1);

  // A *different* job (other seed => other params digest) is shed with a
  // typed kOverloaded carrying a deterministic retry hint — the client's
  // cue to back off instead of guessing.
  const Submitted second = sched.submit(fast_submit(2));
  ASSERT_EQ(second.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(second.reject.code, RejectCode::kOverloaded);
  EXPECT_GT(second.reject.retry_after_ms, 0u);
  EXPECT_EQ(sched.stats().shed, 1);

  // Once the first finishes, the slot frees up.
  (void)sched.finish(q.wait_pop());
  EXPECT_EQ(sched.in_flight(), 0);
  const Submitted third = sched.submit(fast_submit(2));
  EXPECT_EQ(third.kind, Submitted::Kind::kAccepted);
  (void)sched.finish(q.wait_pop());
  sched.shutdown();
}

TEST(SchedulerTest, AdmissionThresholdsAreGradedByPriority) {
  SchedulerLimits lim;
  lim.max_jobs = 8;
  EXPECT_EQ(lim.shed_threshold(JobPriority::kUrgent), 8);
  EXPECT_EQ(lim.shed_threshold(JobPriority::kNormal), 6);
  EXPECT_EQ(lim.shed_threshold(JobPriority::kBatch), 4);

  const auto prio_submit = [](std::uint64_t seed, JobPriority p) {
    SubmitRequest r = fast_submit(seed);
    r.params.priority = p;
    return r;
  };

  DoneQueue q;
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_graded");
  cfg.threads = 1;
  cfg.limits.max_jobs = 4;  // thresholds: urgent 4, normal 3, batch 2
  Scheduler sched(cfg, q.hooks());

  ASSERT_EQ(sched.submit(prio_submit(1, JobPriority::kNormal)).kind,
            Submitted::Kind::kAccepted);
  ASSERT_EQ(sched.submit(prio_submit(2, JobPriority::kNormal)).kind,
            Submitted::Kind::kAccepted);

  // 2 in flight: batch is at its threshold (shed first), normal is not.
  const Submitted b = sched.submit(prio_submit(3, JobPriority::kBatch));
  ASSERT_EQ(b.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(b.reject.code, RejectCode::kOverloaded);
  EXPECT_EQ(b.reject.retry_after_ms, 250u);  // at the threshold: one step
  ASSERT_EQ(sched.submit(prio_submit(3, JobPriority::kNormal)).kind,
            Submitted::Kind::kAccepted);

  // 3 in flight: normal sheds now, urgent still has headroom.
  ASSERT_EQ(sched.submit(prio_submit(4, JobPriority::kNormal)).kind,
            Submitted::Kind::kRejected);
  ASSERT_EQ(sched.submit(prio_submit(4, JobPriority::kUrgent)).kind,
            Submitted::Kind::kAccepted);

  // 4 in flight = max_jobs: even urgent is shed.
  const Submitted u = sched.submit(prio_submit(5, JobPriority::kUrgent));
  ASSERT_EQ(u.kind, Submitted::Kind::kRejected);
  EXPECT_EQ(u.reject.code, RejectCode::kOverloaded);
  EXPECT_EQ(sched.stats().shed, 3);

  for (int i = 0; i < 4; ++i) (void)sched.finish(q.wait_pop());
  sched.shutdown();
}

TEST(SchedulerTest, JournalWriteFailureShedsTypedAndFlagsDegraded) {
  DoneQueue q;
  recover::DiskFaultPlan plan;
  plan.fail_at(recover::DiskSite::kJournalWrite, 0,
               recover::DiskFault::kEnospc);
  plan.fail_at(recover::DiskSite::kJournalWrite, 1,
               recover::DiskFault::kShortWrite);
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_jdeg");
  cfg.threads = 1;
  cfg.disk_faults = &plan;
  Scheduler sched(cfg, q.hooks());

  // The WAL cannot take the record, so the daemon cannot promise the job
  // survives a crash — it must shed (typed, retryable), never accept.
  // Neither a full disk nor a short write leaves a job directory behind.
  for (int fault = 0; fault < 2; ++fault) {
    const Submitted s = sched.submit(fast_submit(1));
    ASSERT_EQ(s.kind, Submitted::Kind::kRejected);
    EXPECT_EQ(s.reject.code, RejectCode::kOverloaded);
    EXPECT_EQ(s.reject.retry_after_ms, 1000u);
  }
  EXPECT_TRUE(sched.journal_degraded());
  EXPECT_TRUE(sched.stats().journal_degraded);
  EXPECT_TRUE(std::filesystem::is_empty(cfg.state_dir + "/jobs"));

  // The faults were one-shot (disk freed up): the retry is admitted and
  // completes normally, and its record lives exactly as long as the job.
  const Submitted retry = sched.submit(fast_submit(1));
  ASSERT_EQ(retry.kind, Submitted::Kind::kAccepted);
  EXPECT_EQ(sched.stats().journal_records, 1);
  EXPECT_GT(sched.stats().journal_bytes, 0u);
  EXPECT_EQ(sched.finish(q.wait_pop()).status, JobStatus::kCompleted);
  EXPECT_EQ(sched.stats().journal_records, 0);
  EXPECT_EQ(sched.stats().journal_bytes, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(cfg.state_dir + "/jobs"));
  sched.shutdown();
}

TEST(SchedulerTest, CacheWriteFailureEngagesCacheOffModeResultsStillFlow) {
  DoneQueue q;
  recover::DiskFaultPlan plan;
  plan.fail_from(recover::DiskSite::kCacheWrite, 0,
                 recover::DiskFault::kEnospc);
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_coff");
  cfg.threads = 1;
  cfg.disk_faults = &plan;
  Scheduler sched(cfg, q.hooks());

  ASSERT_EQ(sched.submit(fast_submit(3)).kind, Submitted::Kind::kAccepted);
  const ResultEvent first = sched.finish(q.wait_pop());
  EXPECT_EQ(first.status, JobStatus::kCompleted);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(sched.cache_off());
  EXPECT_TRUE(sched.stats().cache_off);

  // Cross-restart dedup is lost in cache-off mode — but resubmissions
  // still run and still reproduce the same bytes.
  ASSERT_EQ(sched.submit(fast_submit(3)).kind, Submitted::Kind::kAccepted);
  const ResultEvent second = sched.finish(q.wait_pop());
  EXPECT_FALSE(second.cached);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  sched.shutdown();
}

TEST(SchedulerTest, CheckpointQuotaDegradesToCheckpointOffTyped) {
  DoneQueue q;
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_ckq");
  cfg.threads = 1;
  cfg.checkpoint_quota_bytes = 1;  // nothing fits: every save bursts it
  Scheduler sched(cfg, q.hooks());

  SubmitRequest req = fast_submit(4);
  req.params.checkpoint_every = 1;
  req.params.max_attempts = 2;  // attempt 1 hits the quota; 2 runs cold
  ASSERT_EQ(sched.submit(req).kind, Submitted::Kind::kAccepted);
  const ResultEvent done = sched.finish(q.wait_pop());
  EXPECT_EQ(done.status, JobStatus::kCompleted)
      << "a checkpoint-dir quota must degrade checkpointing, not the job";
  EXPECT_GE(sched.stats().checkpoint_off_jobs, 1);
  sched.shutdown();
}

// The preemption acceptance test at the policy layer: an urgent arrival
// parks the running batch job at a checkpoint boundary; the batch job
// later resumes from that checkpoint and its finished result fingerprints
// identically to a never-preempted run — preemption must be invisible in
// the bytes, exactly like crash recovery.
TEST(SchedulerTest, PreemptedJobResumesToTheIdenticalFingerprint) {
  // Slow the batch job down (~5x the fast parameterization) so it is
  // still annealing when the urgent job lands; checkpoint every step so a
  // preempt point is always near.
  SubmitRequest batch = fast_submit(11);
  batch.params.priority = JobPriority::kBatch;
  batch.params.checkpoint_every = 1;
  batch.params.s1_attempts_per_cell = 60;
  batch.params.s2_attempts_per_cell = 40;

  // Ground truth: the same job in an idle scheduler.
  std::uint64_t clean_fp = 0;
  {
    DoneQueue q;
    SchedulerConfig cfg;
    cfg.state_dir = fresh_dir("tw_srv_preempt_ref");
    cfg.threads = 1;
    Scheduler sched(cfg, q.hooks());
    ASSERT_EQ(sched.submit(batch).kind, Submitted::Kind::kAccepted);
    clean_fp = sched.finish(q.wait_pop()).fingerprint;
    ASSERT_NE(clean_fp, 0u);
    sched.shutdown();
  }

  DoneQueue q;
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_preempt");
  cfg.threads = 1;  // one worker: the urgent job MUST displace the batch
  Scheduler sched(cfg, q.hooks());
  const Submitted sb = sched.submit(batch);
  ASSERT_EQ(sb.kind, Submitted::Kind::kAccepted);

  // Only a *running* job can be parked; wait until the batch job holds
  // the worker before applying pressure.
  bool saw_running = false;
  for (int i = 0; i < 5000 && !saw_running; ++i) {
    saw_running = sched.stats().running[0] >= 1;
    if (!saw_running) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(saw_running) << "batch job never occupied the worker";

  SubmitRequest urgent = fast_submit(12);
  urgent.params.priority = JobPriority::kUrgent;
  const Submitted su = sched.submit(urgent);
  ASSERT_EQ(su.kind, Submitted::Kind::kAccepted);

  ResultEvent batch_done, urgent_done;
  for (int i = 0; i < 2; ++i) {
    ResultEvent ev = sched.finish(q.wait_pop());
    (ev.job == sb.job ? batch_done : urgent_done) = ev;
  }
  EXPECT_EQ(urgent_done.status, JobStatus::kCompleted);
  EXPECT_EQ(batch_done.status, JobStatus::kCompleted);
  EXPECT_EQ(batch_done.fingerprint, clean_fp)
      << "preempted-then-resumed run diverged from the uninterrupted one";

  const StatsReply st = sched.stats();
  EXPECT_GE(st.preempted, 1) << "the urgent job never displaced the batch";
  EXPECT_GE(st.resumed, 1) << "the parked job was never claimed again";
  sched.shutdown();
}

TEST(SchedulerTest, IdenticalRunningSubmissionAttachesNotRequeues) {
  DoneQueue q;
  SchedulerConfig cfg;
  cfg.state_dir = fresh_dir("tw_srv_attach");
  cfg.threads = 1;
  Scheduler sched(cfg, q.hooks());

  const Submitted a = sched.submit(fast_submit(5));
  ASSERT_EQ(a.kind, Submitted::Kind::kAccepted);
  EXPECT_EQ(a.disposition, Disposition::kFresh);

  const Submitted b = sched.submit(fast_submit(5));
  ASSERT_EQ(b.kind, Submitted::Kind::kAccepted);
  EXPECT_EQ(b.disposition, Disposition::kDuplicateRunning);
  EXPECT_EQ(b.job, a.job);
  EXPECT_EQ(sched.in_flight(), 1) << "the duplicate must not enqueue work";

  (void)sched.finish(q.wait_pop());
  sched.shutdown();
}

TEST(SchedulerTest, FinishedResultsServeDuplicatesFromCacheAcrossRestart) {
  const std::string state = fresh_dir("tw_srv_dedup");
  std::uint64_t fresh_fp = 0;
  {
    DoneQueue q;
    SchedulerConfig cfg;
    cfg.state_dir = state;
    cfg.threads = 1;
    Scheduler sched(cfg, q.hooks());
    ASSERT_EQ(sched.submit(fast_submit(5)).kind, Submitted::Kind::kAccepted);
    const ResultEvent done = sched.finish(q.wait_pop());
    EXPECT_EQ(done.status, JobStatus::kCompleted);
    EXPECT_FALSE(done.cached);
    fresh_fp = done.fingerprint;
    ASSERT_NE(fresh_fp, 0u);

    // Same process: the duplicate is served from cache, nothing enqueued.
    const Submitted dup = sched.submit(fast_submit(5));
    ASSERT_EQ(dup.kind, Submitted::Kind::kCached);
    EXPECT_TRUE(dup.cached.cached);
    EXPECT_EQ(dup.cached.fingerprint, fresh_fp);
    EXPECT_EQ(sched.in_flight(), 0);
    sched.shutdown();
  }

  // Fresh daemon, same state dir: nothing to recover (finish() removed the
  // job's directory), and the duplicate still comes from the on-disk cache.
  DoneQueue q2;
  SchedulerConfig cfg2;
  cfg2.state_dir = state;
  cfg2.threads = 1;
  Scheduler sched2(cfg2, q2.hooks());
  EXPECT_TRUE(sched2.recovered().empty());
  const Submitted dup = sched2.submit(fast_submit(5));
  ASSERT_EQ(dup.kind, Submitted::Kind::kCached);
  EXPECT_EQ(dup.cached.fingerprint, fresh_fp);
  sched2.shutdown();
}

// The crash-recovery acceptance test at the policy layer: a scheduler dies
// (destroyed without finish()) with a journaled job in flight; its
// successor on the same state dir re-adopts the job from the journal and
// the surviving checkpoints, and the finished result fingerprints
// identically to a never-interrupted scheduler's run of the same job.
TEST(SchedulerTest, RecoveryReadoptsJournaledJobsAndReproducesBytes) {
  // Ground truth: an uninterrupted scheduler in its own state dir.
  std::uint64_t clean_fp = 0;
  {
    DoneQueue q;
    SchedulerConfig cfg;
    cfg.state_dir = fresh_dir("tw_srv_clean");
    cfg.threads = 1;
    Scheduler sched(cfg, q.hooks());
    ASSERT_EQ(sched.submit(fast_submit(9)).kind, Submitted::Kind::kAccepted);
    clean_fp = sched.finish(q.wait_pop()).fingerprint;
    ASSERT_NE(clean_fp, 0u);
    sched.shutdown();
  }

  const std::string state = fresh_dir("tw_srv_recover");
  {
    DoneQueue q;
    SchedulerConfig cfg;
    cfg.state_dir = state;
    cfg.threads = 1;
    Scheduler sched(cfg, q.hooks());
    ASSERT_EQ(sched.submit(fast_submit(9)).kind, Submitted::Kind::kAccepted);
    // Die without ever calling finish(): the journal holds a submitted
    // record with no terminal record, exactly like a SIGKILL.
  }

  DoneQueue q2;
  SchedulerConfig cfg2;
  cfg2.state_dir = state;
  cfg2.threads = 1;
  Scheduler sched2(cfg2, q2.hooks());
  ASSERT_EQ(sched2.recovered().size(), 1u);
  const ResultEvent done = sched2.finish(q2.wait_pop());
  EXPECT_EQ(done.job, sched2.recovered()[0]);
  EXPECT_EQ(done.status, JobStatus::kCompleted);
  EXPECT_EQ(done.fingerprint, clean_fp)
      << "re-adopted run diverged from the uninterrupted one";

  // Third restart: the journal was settled by finish(); nothing recovers,
  // and the result is now a cache hit.
  sched2.shutdown();
  DoneQueue q3;
  Scheduler sched3(cfg2, q3.hooks());
  EXPECT_TRUE(sched3.recovered().empty());
  const Submitted dup = sched3.submit(fast_submit(9));
  ASSERT_EQ(dup.kind, Submitted::Kind::kCached);
  EXPECT_EQ(dup.cached.fingerprint, clean_fp);
  sched3.shutdown();
}

TEST(SchedulerTest, RecoveryLeavesNoDeadJobTree) {
  // The crash windows around finish()'s removal of a job's directory:
  // (a) a kill after the cache put leaves the record, the cached result
  // and the checkpoint tree; (b) a kill part way through the removal
  // leaves a checkpoint tree without a record. Startup removes both
  // directories and re-runs nothing.
  const std::string state = fresh_dir("tw_srv_dead_tree");
  const SubmitRequest req = fast_submit(13);
  {
    ParseReport report;
    const std::optional<Netlist> nl = parse_submission(req.netlist_yal, report);
    ASSERT_TRUE(nl.has_value());
    ResultCache cache(state + "/cache", 1u << 20);
    cache.put(CacheKey{recover::netlist_digest(*nl), params_digest(req.params)},
              sample_result(0x5eed));
    JobJournal journal(state + "/jobs");
    journal.write(LiveJob{4, req.params, req.netlist_yal});
  }
  for (const char* job : {"/jobs/job-4", "/jobs/job-7"}) {
    std::filesystem::create_directories(state + job + "/replica-0");
    write_bytes(state + job + "/replica-0/ckpt-000001.twcp", {1, 2, 3});
  }

  DoneQueue q;
  SchedulerConfig cfg;
  cfg.state_dir = state;
  cfg.threads = 1;
  Scheduler sched(cfg, q.hooks());
  EXPECT_TRUE(sched.recovered().empty());
  EXPECT_EQ(sched.in_flight(), 0);
  EXPECT_FALSE(std::filesystem::exists(state + "/jobs/job-4"));
  EXPECT_FALSE(std::filesystem::exists(state + "/jobs/job-7"));
  EXPECT_FALSE(sched.stats().journal_degraded);

  // The duplicate comes from the cache, under an id above every
  // directory startup found.
  const Submitted dup = sched.submit(req);
  ASSERT_EQ(dup.kind, Submitted::Kind::kCached);
  EXPECT_EQ(dup.cached.fingerprint, 0x5eedu);
  EXPECT_EQ(dup.job, 8u);
  sched.shutdown();
  const std::lock_guard<std::mutex> lock(q.mu);
  EXPECT_TRUE(q.results.empty()) << "a finished job was re-run";
}

TEST(SchedulerTest, CancelSurvivesARestart) {
  // A cancel rewrites the job's record. A scheduler that dies before the
  // job finishes hands the cancel to its successor, which winds the job
  // down instead of running it at full length.
  SubmitRequest req = fast_submit(14);
  req.params.s1_attempts_per_cell = 5000;  // seconds of work uncancelled
  const std::string state = fresh_dir("tw_srv_cancel_restart");
  SchedulerConfig cfg;
  cfg.state_dir = state;
  cfg.threads = 1;
  std::uint64_t id = 0;
  {
    DoneQueue q;
    Scheduler sched(cfg, q.hooks());
    const Submitted s = sched.submit(req);
    ASSERT_EQ(s.kind, Submitted::Kind::kAccepted);
    id = s.job;
    EXPECT_TRUE(sched.cancel(id));
    // Die without finish(), as a SIGKILL would.
  }

  DoneQueue q;
  Scheduler sched(cfg, q.hooks());
  ASSERT_EQ(sched.recovered(), std::vector<std::uint64_t>{id});
  const ResultEvent done = sched.finish(q.wait_pop());
  EXPECT_EQ(done.job, id);
  EXPECT_EQ(done.status, JobStatus::kCancelled);
  EXPECT_TRUE(std::filesystem::is_empty(state + "/jobs"));
  sched.shutdown();
}

TEST(SchedulerTest, ParseSubmissionSpeaksBothFormats) {
  ParseReport report;
  EXPECT_TRUE(parse_submission(test_yal(), report).has_value());
  EXPECT_TRUE(report.diagnostics.empty());

  const Netlist nl = generate_circuit(tiny_circuit(7));
  ParseReport native_report;
  const auto native = parse_submission(write_netlist(nl), native_report);
  ASSERT_TRUE(native.has_value());
  EXPECT_EQ(native->num_cells(), nl.num_cells());

  ParseReport bad_report;
  EXPECT_FALSE(parse_submission("neither format", bad_report).has_value());
  EXPECT_GT(bad_report.total(), 0);
}

// ---------------------------------------------------------------------------
// Daemon end-to-end over a real Unix socket

struct DaemonFixture {
  std::string socket_path;
  std::string state_dir;
  Daemon daemon;
  std::thread thread;

  explicit DaemonFixture(const std::string& leaf,
                         SchedulerLimits limits = {})
      : socket_path(::testing::TempDir() + "/" + leaf + ".sock"),
        state_dir(fresh_dir(leaf)),
        daemon([&] {
          std::filesystem::remove(socket_path);
          DaemonConfig cfg;
          cfg.socket_path = socket_path;
          cfg.scheduler.state_dir = state_dir;
          cfg.scheduler.threads = 2;
          cfg.scheduler.limits = limits;
          return cfg;
        }()) {
    thread = std::thread([this] { daemon.run(); });
  }

  ~DaemonFixture() {
    daemon.request_stop();
    if (thread.joinable()) thread.join();
  }
};

TEST(DaemonTest, PingSubmitProgressAndCachedDuplicate) {
  DaemonFixture fx("tw_srv_daemon1");
  Client client(fx.socket_path);
  EXPECT_TRUE(client.ping());

  SubmitRequest req = fast_submit(3);
  req.want_progress = true;
  int progress_events = 0;
  const Client::SubmitOutcome first = client.submit_and_wait(
      req, [&](const ProgressEvent& pg) {
        ++progress_events;
        EXPECT_GE(pg.replica, 0);
      });
  ASSERT_FALSE(first.rejected.has_value());
  EXPECT_EQ(first.ack.disposition, Disposition::kFresh);
  ASSERT_TRUE(first.result.has_value());
  EXPECT_EQ(first.result->status, JobStatus::kCompleted);
  EXPECT_FALSE(first.result->cached);
  EXPECT_GT(progress_events, 0);
  const std::uint64_t fp = first.result->fingerprint;
  ASSERT_NE(fp, 0u);

  // Identical resubmission: served from cache, bit-identical, instant.
  Client dup_client(fx.socket_path);
  const Client::SubmitOutcome dup = dup_client.submit_and_wait(req);
  ASSERT_FALSE(dup.rejected.has_value());
  EXPECT_EQ(dup.ack.disposition, Disposition::kCached);
  ASSERT_TRUE(dup.result.has_value());
  EXPECT_TRUE(dup.result->cached);
  EXPECT_EQ(dup.result->fingerprint, fp);
}

TEST(DaemonTest, QueryAndTypedUnknownJob) {
  DaemonFixture fx("tw_srv_daemon2");
  Client client(fx.socket_path);

  client.send(QueryRequest{424242});
  const Message m = client.recv();
  const auto* rej = std::get_if<RejectReply>(&m);
  ASSERT_NE(rej, nullptr);
  EXPECT_EQ(rej->code, RejectCode::kUnknownJob);
}

TEST(DaemonTest, ExplicitCancelWindsDownToAUsableResult) {
  DaemonFixture fx("tw_srv_daemon3");
  Client client(fx.socket_path);

  // An oversized stage-1 schedule: a run long enough (seconds) that the
  // cancel frame beats its completion by a wide margin.
  SubmitRequest req;
  req.params.master_seed = 11;
  req.params.checkpoint_every = 1;
  req.params.s1_attempts_per_cell = 5000;
  req.netlist_yal = test_yal();
  client.send(req);
  Message m = client.recv();
  const auto* ack = std::get_if<SubmitReply>(&m);
  ASSERT_NE(ack, nullptr);
  // Keep the id: `ack` points into `m`, which the loop below reuses.
  const std::uint64_t job = ack->job;

  client.send(CancelRequest{job});
  // Skip frames until the job's terminal event.
  for (;;) {
    m = client.recv();
    if (const auto* r = std::get_if<ResultEvent>(&m)) {
      EXPECT_EQ(r->job, job);
      EXPECT_EQ(r->status, JobStatus::kCancelled);
      EXPECT_FALSE(r->cached);
      break;
    }
  }
}

TEST(DaemonTest, QuotaRejectionReachesTheClientTyped) {
  SchedulerLimits limits;
  limits.max_replicas = 1;
  DaemonFixture fx("tw_srv_daemon4", limits);
  Client client(fx.socket_path);

  SubmitRequest req = fast_submit(1);
  req.params.replicas = 4;
  const Client::SubmitOutcome out = client.submit_and_wait(req);
  ASSERT_TRUE(out.rejected.has_value());
  EXPECT_EQ(out.rejected->code, RejectCode::kQuotaExceeded);
}

TEST(DaemonTest, StatsReportHealthOverTheSocket) {
  DaemonFixture fx("tw_srv_daemon6");
  Client client(fx.socket_path);

  const StatsReply before = client.stats();
  EXPECT_EQ(before.jobs_in_flight, 0);
  EXPECT_EQ(before.shed, 0);
  EXPECT_FALSE(before.cache_off);
  EXPECT_FALSE(before.journal_degraded);

  const Client::SubmitOutcome out = client.submit_and_wait(fast_submit(7));
  ASSERT_TRUE(out.result.has_value());
  ASSERT_EQ(out.result->status, JobStatus::kCompleted);

  // The snapshot reflects the finished job: nothing in flight, no job
  // record left, its cached result on disk and measured in bytes.
  const StatsReply after = client.stats();
  EXPECT_EQ(after.jobs_in_flight, 0);
  EXPECT_EQ(after.journal_bytes, 0u);
  EXPECT_EQ(after.journal_records, 0);
  EXPECT_GT(after.cache_bytes, 0u);
  EXPECT_GT(after.cache_budget_bytes, 0u);
  EXPECT_LE(after.cache_bytes, after.cache_budget_bytes);
}

TEST(DaemonTest, ShutdownFrameDrainsAndStops) {
  const std::string leaf = "tw_srv_daemon5";
  const std::string socket_path = ::testing::TempDir() + "/" + leaf + ".sock";
  std::filesystem::remove(socket_path);
  DaemonConfig cfg;
  cfg.socket_path = socket_path;
  cfg.scheduler.state_dir = fresh_dir(leaf);
  cfg.scheduler.threads = 1;
  auto daemon = std::make_unique<Daemon>(cfg);
  int rc = -1;
  std::thread t([&] { rc = daemon->run(); });

  {
    Client client(socket_path);
    client.shutdown_server();
  }
  t.join();
  EXPECT_EQ(rc, 0);

  // Once the drained daemon is gone, so is its socket — a late client
  // gets a typed connection error, not a hang.
  daemon.reset();
  EXPECT_THROW(Client{socket_path}, ServeError);
}

// The socket path appears only once the daemon listens: right after
// construction (run() not yet called) a client connects — the kernel
// queues it until the loop accepts — a stale file on the path has been
// replaced, and no temporary name is left beside it. A path whose
// temporary name would not fit a socket address is refused up front, and
// one the socket cannot be renamed onto leaves no temporary name behind.
TEST(DaemonTest, SocketPathAppearsOnlyOnceListening) {
  const std::string dir = fresh_dir("tw_srv_daemon7");
  const std::string socket_path = dir + "/tw.sock";
  std::ofstream(socket_path) << "stale file of a killed predecessor";
  DaemonConfig cfg;
  cfg.socket_path = socket_path;
  cfg.scheduler.state_dir = dir + "/state";
  cfg.scheduler.threads = 1;
  {
    Daemon daemon(cfg);
    EXPECT_TRUE(std::filesystem::is_socket(socket_path));
    EXPECT_NO_THROW(Client{socket_path});
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"state", "tw.sock"}));
  }
  EXPECT_FALSE(std::filesystem::exists(socket_path));

  // 103 bytes fit a socket address (108 with the NUL); the temporary
  // name, "<path>.tmp.<pid>", is at least 109 and does not.
  const std::string base = dir + "/";
  ASSERT_LT(base.size(), 103u);
  cfg.socket_path = base + std::string(103 - base.size(), 's');
  EXPECT_THROW(Daemon{cfg}, ServeError);
  EXPECT_FALSE(std::filesystem::exists(cfg.socket_path));

  // A path the listening socket cannot be renamed onto (a non-empty
  // directory) is refused too, and its temporary name is removed again.
  cfg.socket_path = dir + "/blocked";
  std::filesystem::create_directories(cfg.socket_path + "/inside");
  EXPECT_THROW(Daemon{cfg}, ServeError);
  EXPECT_TRUE(std::filesystem::is_directory(cfg.socket_path + "/inside"));
  for (const auto& e : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
        << e.path();
}

}  // namespace
}  // namespace tw
