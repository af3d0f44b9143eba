// The recover subsystem in isolation: bounds-checked serialization,
// checkpoint framing (magic/version/size/CRC, atomic temp+rename writes),
// the shared durable-file primitives (numbered names, frame checks, the
// one atomic write), corruption and truncation handling — a damaged file
// must always yield a typed CheckpointError, never UB — plus RunBudget /
// FaultPlan semantics and the graceful wind-down of a budget-limited flow.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "check/validate.hpp"
#include "fingerprint.hpp"
#include "flow/timberwolf.hpp"
#include "recover/budget.hpp"
#include "recover/checkpoint.hpp"
#include "recover/durable.hpp"
#include "recover/fault.hpp"
#include "recover/serialize.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

using recover::ByteReader;
using recover::ByteWriter;
using recover::CheckpointErrc;
using recover::CheckpointError;
using recover::DiskFault;
using recover::DiskFaultPlan;
using recover::DiskSite;
using recover::FaultPlan;
using recover::FaultSite;
using recover::FlowCheckpoint;
using recover::RunBudget;
using recover::RunOutcome;
using testing::fast_flow;

std::string temp_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------- serialize

TEST(Serialize, RoundTripsEveryType) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-(1ll << 40));
  w.f64(-0.1);
  w.vec_i32({1, -2, 3});
  const std::vector<std::uint8_t> bytes = w.bytes();

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -(1ll << 40));
  EXPECT_EQ(r.f64(), -0.1);  // bit-exact via bit_cast
  EXPECT_EQ(r.vec_i32(), (std::vector<std::int32_t>{1, -2, 3}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Serialize, ShortReadsThrowTruncated) {
  ByteWriter w;
  w.u32(7);
  const std::vector<std::uint8_t> bytes = w.bytes();
  ByteReader r(bytes);
  EXPECT_THROW(r.u64(), CheckpointError);
  try {
    ByteReader r2(bytes);
    r2.u64();
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kTruncated);
  }
}

TEST(Serialize, GiantLengthPrefixIsRejectedBeforeAllocating) {
  // A corrupted length prefix larger than the remaining bytes must fail
  // the validation, not attempt a multi-gigabyte allocation.
  ByteWriter w;
  w.u32(0x7FFFFFFFu);
  const std::vector<std::uint8_t> bytes = w.bytes();
  ByteReader r(bytes);
  EXPECT_THROW(r.vec_i32(), CheckpointError);
}

TEST(Serialize, TrailingBytesAreCorrupt) {
  ByteWriter w;
  w.u32(1);
  w.u8(0);
  const std::vector<std::uint8_t> bytes = w.bytes();
  ByteReader r(bytes);
  (void)r.u32();
  EXPECT_THROW(r.expect_end(), CheckpointError);
}

TEST(Serialize, Crc32MatchesReferenceVector) {
  // The standard check value of CRC-32/IEEE: crc("123456789").
  const std::string s = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  EXPECT_EQ(recover::crc32(bytes), 0xCBF43926u);
}

// ------------------------------------------------------------------ budget

TEST(RunBudget, UnlimitedNeverStops) {
  RunBudget b;
  for (int i = 0; i < 1000; ++i) b.charge_move();
  b.charge_step();
  EXPECT_FALSE(b.stop_requested());
}

TEST(RunBudget, MoveAndStepLimitsTrigger) {
  RunBudget moves(5, RunBudget::kUnlimited);
  for (int i = 0; i < 4; ++i) moves.charge_move();
  EXPECT_FALSE(moves.stop_requested());
  moves.charge_move();
  EXPECT_TRUE(moves.stop_requested());
  EXPECT_EQ(moves.stop_outcome(), RunOutcome::kBudgetExhausted);

  RunBudget steps(RunBudget::kUnlimited, 2);
  steps.charge_step();
  EXPECT_FALSE(steps.stop_requested());
  steps.charge_step();
  EXPECT_TRUE(steps.stop_requested());
}

TEST(RunBudget, CancellationWinsOverExhaustion) {
  RunBudget b(1, RunBudget::kUnlimited);
  b.charge_move();
  b.request_cancel();
  EXPECT_TRUE(b.stop_requested());
  EXPECT_EQ(b.stop_outcome(), RunOutcome::kCancelled);
}

// ------------------------------------------------------------------- fault

TEST(FaultPlan, FiresAtTheArmedPollExactlyOnce) {
  FaultPlan plan;
  plan.kill_at(FaultSite::kStage1Step, 2);
  EXPECT_NO_THROW(plan.poll(FaultSite::kStage1Step));  // poll 0
  EXPECT_NO_THROW(plan.poll(FaultSite::kStage1Step));  // poll 1
  EXPECT_NO_THROW(plan.poll(FaultSite::kStage2Step));  // other site
  try {
    plan.poll(FaultSite::kStage1Step);  // poll 2 — armed
    FAIL() << "expected InjectedFault";
  } catch (const recover::InjectedFault& e) {
    EXPECT_EQ(e.site(), FaultSite::kStage1Step);
    EXPECT_EQ(e.count(), 2);
  }
  // Each arm fires at most once; later polls pass.
  EXPECT_NO_THROW(plan.poll(FaultSite::kStage1Step));
  EXPECT_EQ(plan.count(FaultSite::kStage1Step), 4);
}

// -------------------------------------------------------------- checkpoint

/// Runs a short checkpointed flow and returns the latest checkpoint path.
std::string make_checkpoint(const std::string& dir) {
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Placement p(nl);
  FlowParams params = fast_flow(77);
  params.recover.checkpoint_dir = dir;
  params.recover.checkpoint_every = 1;
  (void)TimberWolfMC(nl, params).run(p);
  const auto latest = recover::find_latest_checkpoint(dir);
  EXPECT_TRUE(latest.has_value());
  return *latest;
}

TEST(Checkpoint, EncodeDecodeIsAFixedPoint) {
  const std::string path = make_checkpoint(temp_dir("tw_ckpt_roundtrip"));
  const FlowCheckpoint cp = recover::load_checkpoint(path);
  const std::vector<std::uint8_t> once = recover::encode_checkpoint(cp);
  const FlowCheckpoint back = recover::decode_checkpoint(once);
  EXPECT_EQ(recover::encode_checkpoint(back), once);
}

TEST(Checkpoint, AtomicWriteLeavesNoTempFile) {
  const std::string path = make_checkpoint(temp_dir("tw_ckpt_atomic"));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Checkpoint, MissingFileIsIoError) {
  try {
    (void)recover::load_checkpoint("/nonexistent/ckpt-000001.twcp");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kIo);
  }
}

TEST(Checkpoint, BitFlipsAreDetected) {
  const std::string path = make_checkpoint(temp_dir("tw_ckpt_flip"));
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  // Flip one bit at a spread of offsets covering magic, version, size,
  // CRC, and payload; every damaged file must fail with a typed error.
  for (std::size_t off = 0; off < bytes.size();
       off += 1 + bytes.size() / 97) {
    std::vector<char> damaged = bytes;
    damaged[off] ^= 0x10;
    const std::string bad = path + ".flip";
    std::ofstream(bad, std::ios::binary | std::ios::trunc)
        .write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    try {
      (void)recover::load_checkpoint(bad);
      FAIL() << "flip at offset " << off << " went undetected";
    } catch (const CheckpointError&) {
      // Expected: kBadMagic / kBadVersion / kTruncated / kBadCrc,
      // depending on which field the flip landed in.
    }
  }
}

TEST(Checkpoint, TruncationsAreDetectedAtEveryLength) {
  const std::string path = make_checkpoint(temp_dir("tw_ckpt_trunc"));
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  for (std::size_t len = 0; len < bytes.size();
       len += 1 + bytes.size() / 61) {
    const std::string bad = path + ".trunc";
    std::ofstream(bad, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(len));
    try {
      (void)recover::load_checkpoint(bad);
      FAIL() << "truncation to " << len << " bytes went undetected";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), CheckpointErrc::kTruncated) << "len " << len;
    }
  }
}

TEST(Checkpoint, CorruptPayloadUnderValidCrcIsStillTyped) {
  // Damage the payload, then re-stamp the CRC so the frame checks pass:
  // the decoder's own validation must catch the bad content.
  const std::string path = make_checkpoint(temp_dir("tw_ckpt_payload"));
  const FlowCheckpoint cp = recover::load_checkpoint(path);
  std::vector<std::uint8_t> payload = recover::encode_checkpoint(cp);
  int detected = 0;
  for (std::size_t off = 0; off < payload.size(); ++off) {
    std::vector<std::uint8_t> damaged = payload;
    damaged[off] ^= 0xFF;
    try {
      const FlowCheckpoint dec = recover::decode_checkpoint(damaged);
      // Some flips produce a different-but-well-formed checkpoint (e.g.
      // in a metric double); those decode fine. What must never happen
      // is a crash, which the sanitizer jobs would catch here.
      (void)dec;
    } catch (const CheckpointError&) {
      ++detected;
    }
  }
  // Flips landing in validated fields (phase, enums, orients, length
  // prefixes) must be caught.
  EXPECT_GT(detected, 0) << "of " << payload.size();
}

TEST(Checkpoint, RetiredPhaseByteThreeIsCorrupt) {
  // Phase byte 3 tagged the parallel stage-1 engine in format version 4;
  // version 5 retired it, so today's decoder must reject the byte as
  // corrupt instead of resuming a stage-1 cursor under it.
  const std::string dir = temp_dir("tw_ckpt_phase3");
  (void)make_checkpoint(dir);
  std::string first;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (first.empty() || entry.path().string() < first)
      first = entry.path().string();
  const FlowCheckpoint cp = recover::load_checkpoint(first);
  ASSERT_EQ(cp.phase, recover::FlowPhase::kStage1);
  std::vector<std::uint8_t> payload = recover::encode_checkpoint(cp);
  constexpr std::size_t kPhaseOffset = 16;  // u64 seed, u64 digest, u8 phase
  ASSERT_EQ(payload[kPhaseOffset], 0);
  EXPECT_NO_THROW((void)recover::decode_checkpoint(payload));
  payload[kPhaseOffset] = 3;
  try {
    (void)recover::decode_checkpoint(payload);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kCorrupt);
  }
}

// apply_placement reloads every cell with the net-bound cache suspended
// and rebuilds it once at the end. A corrupt cell in mid-list aborts the
// reload with kCorrupt and must still leave the cache consistent with the
// cells as they are.
TEST(Checkpoint, ApplyPlacementRebuildsNetBoundsEvenWhenCorrupt) {
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Placement src(nl);
  Rng rng(3);
  src.randomize(rng, Rect{0, 0, 400, 400});
  const recover::PackedPlacement packed = recover::pack_placement(src);

  Placement clean(nl);
  recover::apply_placement(clean, packed);
  EXPECT_EQ(clean.net_bounds_drift(), "");
  EXPECT_EQ(clean.teil(), src.teil());

  // A site on a fixed pin: restore_cell throws after it has already moved
  // and turned the cell.
  const auto n = static_cast<CellId>(nl.num_cells());
  CellId victim = n;
  std::size_t fixed_pin = 0;
  for (CellId c = n / 2; c < n && victim == n; ++c) {
    const auto& pins = nl.cell(c).pins;
    for (std::size_t k = 0; k < pins.size(); ++k) {
      if (nl.pin(pins[k]).committed()) {
        victim = c;
        fixed_pin = k;
        break;
      }
    }
  }
  ASSERT_LT(victim, n - 1) << "no fixed pin in mid-list";
  recover::PackedPlacement bad = packed;
  bad.cells[static_cast<std::size_t>(victim)].pin_site[fixed_pin] = 0;

  Placement p(nl);
  try {
    recover::apply_placement(p, bad);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kCorrupt);
  }
  EXPECT_EQ(p.net_bounds_drift(), "");
  for (CellId c = 0; c <= victim; ++c)
    EXPECT_EQ(p.state(c).center, src.state(c).center) << "cell " << c;
  EXPECT_NE(p.state(victim + 1).center, src.state(victim + 1).center);
}

TEST(Checkpoint, SinkNumbersFilesAndFindsLatest) {
  const std::string dir = temp_dir("tw_ckpt_sink");
  const std::string path = make_checkpoint(dir);
  EXPECT_EQ(std::filesystem::path(path).filename().string().rfind("ckpt-", 0),
            0u);
  // The latest file must be the numerically largest.
  int max_seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    int n = 0;
    if (std::sscanf(name.c_str(), "ckpt-%d.twcp", &n) == 1)
      max_seen = std::max(max_seen, n);
  }
  int latest_n = 0;
  ASSERT_EQ(std::sscanf(std::filesystem::path(path).filename().c_str(),
                        "ckpt-%d.twcp", &latest_n),
            1);
  EXPECT_EQ(latest_n, max_seen);
  EXPECT_GT(max_seen, 1);
}

TEST(Checkpoint, FindLatestOnMissingOrEmptyDirIsNull) {
  EXPECT_FALSE(recover::find_latest_checkpoint("/nonexistent/dir").has_value());
  const std::string dir = temp_dir("tw_ckpt_empty");
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(recover::find_latest_checkpoint(dir).has_value());
}

TEST(Checkpoint, SinkSurfacesIoErrorsAsTyped) {
  // Target directory path occupied by a regular file: the sink cannot
  // create it and must say so — a checkpoint is never silently dropped.
  const std::string dir = temp_dir("tw_ckpt_io");
  std::filesystem::create_directories(dir);
  const std::string blocker = dir + "/not-a-dir";
  { std::ofstream(blocker) << "occupied"; }
  try {
    recover::FileCheckpointSink sink(blocker + "/sub");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kIo);
  }

  // Unwritable directory: the write (not the construction) fails, again
  // typed. Root bypasses permission bits, so this half only runs
  // unprivileged (CI does; the container may not).
  if (::geteuid() != 0) {
    const std::string ro = dir + "/readonly";
    std::filesystem::create_directories(ro);
    std::filesystem::permissions(ro, std::filesystem::perms::owner_read |
                                         std::filesystem::perms::owner_exec);
    recover::FileCheckpointSink sink(ro);
    try {
      (void)sink.save(FlowCheckpoint{});
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), CheckpointErrc::kIo);
    }
    std::filesystem::permissions(ro, std::filesystem::perms::owner_all);
  }
}

TEST(Checkpoint, SinkRetentionKeepsNewestK) {
  const std::string dir = temp_dir("tw_ckpt_keep");
  recover::FileCheckpointSink sink(dir, /*keep=*/3);
  std::string last;
  for (int i = 0; i < 10; ++i) last = sink.save(FlowCheckpoint{});
  EXPECT_EQ(sink.saved(), 10);

  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{
                       "ckpt-000008.twcp", "ckpt-000009.twcp",
                       "ckpt-000010.twcp"}));
  EXPECT_EQ(recover::find_latest_checkpoint(dir), last);
}

TEST(Checkpoint, SinkResumesNumberingAfterExistingFiles) {
  // A retried attempt's sink must never number below an earlier attempt's
  // files, or find_latest_checkpoint would keep returning the stale one.
  const std::string dir = temp_dir("tw_ckpt_renumber");
  {
    recover::FileCheckpointSink first(dir);
    for (int i = 0; i < 3; ++i) (void)first.save(FlowCheckpoint{});
  }
  recover::FileCheckpointSink second(dir);
  const std::string next = second.save(FlowCheckpoint{});
  EXPECT_EQ(std::filesystem::path(next).filename().string(),
            "ckpt-000004.twcp");
  EXPECT_EQ(recover::find_latest_checkpoint(dir), next);
}

TEST(Checkpoint, SinkQuotaPrunesForRoomThenRefusesTyped) {
  // Size one empty-checkpoint frame via an unbounded probe sink (frames
  // are identical for identical checkpoints).
  std::uint64_t frame = 0;
  {
    recover::FileCheckpointSink probe(temp_dir("tw_ckpt_quota_probe"));
    (void)probe.save(FlowCheckpoint{});
    frame = probe.bytes();
    ASSERT_GT(frame, 0u);
  }

  // With retention to prune, the quota makes room instead of refusing:
  // every save lands, and the directory never exceeds the budget.
  const std::string dir = temp_dir("tw_ckpt_quota");
  recover::FileCheckpointSink sink(dir, /*keep=*/2,
                                   /*quota_bytes=*/2 * frame + frame / 2);
  for (int i = 0; i < 5; ++i) (void)sink.save(FlowCheckpoint{});
  EXPECT_EQ(sink.saved(), 5);
  EXPECT_LE(sink.bytes(), sink.quota_bytes());
  EXPECT_EQ(sink.prune_failures(), 0);

  // With nothing prunable (keep=0 retains everything), the save that
  // would burst the quota is refused *before* writing: typed, and the
  // directory is exactly as it was.
  const std::string tight_dir = temp_dir("tw_ckpt_quota_tight");
  recover::FileCheckpointSink tight(tight_dir, /*keep=*/0,
                                    /*quota_bytes=*/2 * frame);
  (void)tight.save(FlowCheckpoint{});
  const std::string last = tight.save(FlowCheckpoint{});
  try {
    (void)tight.save(FlowCheckpoint{});
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kQuotaExceeded);
  }
  EXPECT_EQ(tight.saved(), 2);
  EXPECT_EQ(tight.bytes(), 2 * frame);
  int files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(tight_dir))
    ++files;
  EXPECT_EQ(files, 2) << "a refused save must not leave partial files";
  EXPECT_EQ(recover::find_latest_checkpoint(tight_dir), last);
}

TEST(Checkpoint, SinkHonorsInjectedDiskFaults) {
  const std::string dir = temp_dir("tw_ckpt_fault");
  DiskFaultPlan plan;
  plan.fail_at(DiskSite::kCheckpointWrite, 1, DiskFault::kEnospc);
  plan.fail_at(DiskSite::kCheckpointWrite, 2, DiskFault::kShortWrite);
  recover::FileCheckpointSink sink(dir, /*keep=*/0, /*quota_bytes=*/0,
                                   &plan);
  const std::string first = sink.save(FlowCheckpoint{});  // write 0: clean
  for (int i = 0; i < 2; ++i) {  // write 1: ENOSPC, write 2: short write
    try {
      (void)sink.save(FlowCheckpoint{});
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), CheckpointErrc::kIo);
    }
  }
  EXPECT_EQ(sink.saved(), 1);
  // Neither failure reached the durable name: the newest *valid*
  // checkpoint is still the clean first save (the short write left only
  // a truncated .tmp, which adoption never reads).
  EXPECT_EQ(recover::find_latest_checkpoint(dir), first);
  // The disk "recovers"; the sink keeps working.
  const std::string next = sink.save(FlowCheckpoint{});
  EXPECT_EQ(recover::find_latest_checkpoint(dir), next);
  EXPECT_EQ(plan.count(DiskSite::kCheckpointWrite), 4);
}

TEST(Checkpoint, FindLatestSkipsCorruptNewest) {
  const std::string dir = temp_dir("tw_ckpt_corrupt_latest");
  recover::FileCheckpointSink sink(dir);
  const std::string good = sink.save(FlowCheckpoint{});
  const std::string bad = sink.save(FlowCheckpoint{});

  // Flip a payload bit of the newest file: its CRC check now fails, so
  // the previous (valid) checkpoint must be selected instead.
  {
    std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\xFF');
  }
  EXPECT_EQ(recover::find_latest_checkpoint(dir), good);

  // With every file damaged there is nothing valid left to resume from.
  {
    std::fstream f(good, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\xFF');
  }
  EXPECT_FALSE(recover::find_latest_checkpoint(dir).has_value());
}

// ------------------------------------------------------------ durable files

TEST(RecoverDurable, NumberedFilesListOnlyTheirOwnNamesAscending) {
  const std::string dir = temp_dir("tw_durable_names");
  std::filesystem::create_directories(dir + "/ckpt-000004.twcp");  // a dir
  for (const char* name :
       {"ckpt-000010.twcp", "ckpt-000002.twcp", "ckpt-000002.twcp.tmp",
        "ckpt-00003.twcp", "ckpt-0000005.twcp", "ckpt-00000x.twcp",
        "res-000001.twr", "xckpt-000001.twcp"})
    std::ofstream(dir + "/" + name) << "x";
  const recover::NumberedFiles files{"ckpt-", ".twcp"};
  EXPECT_EQ(files.list(dir), (std::vector<int>{2, 10}));
  EXPECT_EQ(files.bytes(dir, 10), 1u);
  EXPECT_EQ(files.bytes(dir, 11), 0u);
  EXPECT_EQ(files.path(dir, 7), dir + "/ckpt-000007.twcp");
  EXPECT_TRUE(files.list(dir + "/missing").empty());
  EXPECT_FALSE(recover::read_file(dir + "/ckpt-000004.twcp").has_value());
  EXPECT_FALSE(recover::read_file(dir + "/missing").has_value());
  EXPECT_EQ(recover::read_file(dir + "/ckpt-000010.twcp"),
            (std::vector<std::uint8_t>{'x'}));
}

TEST(RecoverDurable, UnframeChecksInOrderWithTypedCodes) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> good = recover::frame("ABCD", 7, payload);
  ASSERT_EQ(good.size(), 16 + payload.size());
  const auto span = recover::unframe(good, "ABCD", 7, "good");
  EXPECT_EQ(std::vector<std::uint8_t>(span.begin(), span.end()), payload);

  const auto code_of = [](const std::vector<std::uint8_t>& bytes,
                          std::string_view magic, std::uint32_t version) {
    try {
      (void)recover::unframe(bytes, magic, version, "bad");
    } catch (const CheckpointError& e) {
      return e.code();
    }
    ADD_FAILURE() << "unframe accepted a damaged frame";
    return CheckpointErrc::kIo;
  };
  EXPECT_EQ(code_of({good.begin(), good.begin() + 15}, "ABCD", 7),
            CheckpointErrc::kTruncated);
  EXPECT_EQ(code_of(good, "ABCE", 7), CheckpointErrc::kBadMagic);
  EXPECT_EQ(code_of(good, "ABCD", 8), CheckpointErrc::kBadVersion);
  std::vector<std::uint8_t> longer = good;
  longer.push_back(0);
  EXPECT_EQ(code_of(longer, "ABCD", 7), CheckpointErrc::kTruncated);
  EXPECT_EQ(code_of({good.begin(), good.end() - 1}, "ABCD", 7),
            CheckpointErrc::kTruncated);
  std::vector<std::uint8_t> flipped = good;
  flipped.back() ^= 0x01;
  EXPECT_EQ(code_of(flipped, "ABCD", 7), CheckpointErrc::kBadCrc);
}

TEST(RecoverDurable, WriteAtomicNeverRenamesAFailedWrite) {
  const std::string dir = temp_dir("tw_durable_write");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/file";
  const std::vector<std::uint8_t> first = {1, 2, 3, 4};
  const std::vector<std::uint8_t> second = {5, 6, 7, 8, 9, 10};
  const DiskSite site = DiskSite::kJournalRotate;

  DiskFaultPlan plan;
  plan.fail_at(site, 1, DiskFault::kShortWrite);
  plan.fail_at(site, 2, DiskFault::kEnospc);
  EXPECT_EQ(recover::write_atomic(path, first, &plan, site), "");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // A short write leaves a genuinely truncated temp; ENOSPC writes
  // nothing. Neither touches the committed file.
  EXPECT_NE(recover::write_atomic(path, second, &plan, site), "");
  EXPECT_EQ(std::filesystem::file_size(path + ".tmp"), second.size() / 2);
  EXPECT_NE(recover::write_atomic(path, second, &plan, site), "");
  EXPECT_EQ(recover::read_file(path), first);
  EXPECT_EQ(plan.count(site), 3);
  // A real failure (no directory to write into) is reported, not thrown.
  EXPECT_NE(recover::write_atomic(dir + "/missing/file", second, nullptr, site),
            "");
  EXPECT_EQ(recover::write_atomic(path, second, nullptr, site), "");
  EXPECT_EQ(recover::read_file(path), second);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ----------------------------------------------------- budgeted flow runs

TEST(Budget, ExhaustedFlowDegradesGracefully) {
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Placement p(nl);
  FlowParams params = fast_flow(77);
  RunBudget budget(2000, RunBudget::kUnlimited);
  params.recover.budget = &budget;
  const FlowResult r = TimberWolfMC(nl, params).run(p);
  EXPECT_EQ(r.outcome, RunOutcome::kBudgetExhausted);
  // Graceful degradation: the returned placement is a valid, feasible
  // configuration, not a torn mid-move state.
  const ValidationReport vr = validate_placement(p);
  EXPECT_TRUE(vr.ok()) << vr.str();
  EXPECT_GE(budget.moves_charged(), 2000);
}

TEST(Budget, CancelledFlowReportsCancelled) {
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Placement p(nl);
  FlowParams params = fast_flow(77);
  RunBudget budget;
  budget.request_cancel();
  params.recover.budget = &budget;
  const FlowResult r = TimberWolfMC(nl, params).run(p);
  EXPECT_EQ(r.outcome, RunOutcome::kCancelled);
  const ValidationReport vr = validate_placement(p);
  EXPECT_TRUE(vr.ok()) << vr.str();
}

TEST(Budget, UnlimitedBudgetMatchesUninstrumentedRun) {
  const Netlist nl = generate_circuit(tiny_circuit(21));
  Placement p1(nl), p2(nl);
  const FlowResult r1 = TimberWolfMC(nl, fast_flow(77)).run(p1);
  FlowParams params = fast_flow(77);
  RunBudget budget;
  params.recover.budget = &budget;
  const FlowResult r2 = TimberWolfMC(nl, params).run(p2);
  EXPECT_EQ(r2.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(testing::fingerprint(p1, r1), testing::fingerprint(p2, r2));
}

}  // namespace
}  // namespace tw
