#include "recover/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "netlist/parser.hpp"
#include "place/placement.hpp"
#include "recover/durable.hpp"
#include "util/log.hpp"

namespace tw::recover {
namespace {

constexpr std::string_view kMagic = "TWCP";

// --- field-group encoders (kept strictly in sync with the decoders; any
// --- incompatible change must bump kCheckpointVersion) ----------------------

void put_rect(ByteWriter& w, const Rect& r) {
  w.i64(r.xlo);
  w.i64(r.ylo);
  w.i64(r.xhi);
  w.i64(r.yhi);
}

Rect get_rect(ByteReader& r) {
  Rect out;
  out.xlo = r.i64();
  out.ylo = r.i64();
  out.xhi = r.i64();
  out.yhi = r.i64();
  return out;
}

void put_rng(ByteWriter& w, const std::array<std::uint64_t, 4>& s) {
  for (const std::uint64_t word : s) w.u64(word);
}

std::array<std::uint64_t, 4> get_rng(ByteReader& r) {
  std::array<std::uint64_t, 4> s{};
  for (auto& word : s) word = r.u64();
  return s;
}

void put_outcome(ByteWriter& w, RunOutcome o) {
  w.u8(static_cast<std::uint8_t>(o));
}

RunOutcome get_outcome(ByteReader& r) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(RunOutcome::kResumed))
    throw CheckpointError(CheckpointErrc::kCorrupt,
                          "bad run outcome " + std::to_string(v));
  return static_cast<RunOutcome>(v);
}

void put_stage1_result(ByteWriter& w, const Stage1Result& s) {
  w.f64(s.final_teic);
  w.f64(s.final_teil);
  w.i64(s.residual_overlap);
  w.i32(s.overloaded_sites);
  put_rect(w, s.core);
  w.f64(s.t_infinity);
  w.f64(s.temperature_scale);
  w.f64(s.p2);
  w.i32(s.temperature_steps);
  w.i64(s.attempts);
  w.i64(s.accepts);
  w.u32(static_cast<std::uint32_t>(s.trace.size()));
  for (const TemperaturePoint& p : s.trace) {
    w.f64(p.t);
    w.f64(p.avg_cost);
    w.f64(p.acceptance_rate);
    w.i64(p.window_x);
  }
  put_outcome(w, s.outcome);
}

Stage1Result get_stage1_result(ByteReader& r) {
  Stage1Result s;
  s.final_teic = r.f64();
  s.final_teil = r.f64();
  s.residual_overlap = r.i64();
  s.overloaded_sites = r.i32();
  s.core = get_rect(r);
  s.t_infinity = r.f64();
  s.temperature_scale = r.f64();
  s.p2 = r.f64();
  s.temperature_steps = r.i32();
  s.attempts = r.i64();
  s.accepts = r.i64();
  const std::size_t n = r.length_prefix(4 * 8);
  s.trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TemperaturePoint p;
    p.t = r.f64();
    p.avg_cost = r.f64();
    p.acceptance_rate = r.f64();
    p.window_x = r.i64();
    s.trace.push_back(p);
  }
  s.outcome = get_outcome(r);
  return s;
}

void put_stage1_cursor(ByteWriter& w, const Stage1Cursor& c) {
  w.i32(c.next_step);
  w.f64(c.t);
  w.f64(c.p2_base);
  put_stage1_result(w, c.partial);
  put_rng(w, c.rng);
}

Stage1Cursor get_stage1_cursor(ByteReader& r) {
  Stage1Cursor c;
  c.next_step = r.i32();
  c.t = r.f64();
  c.p2_base = r.f64();
  c.partial = get_stage1_result(r);
  c.rng = get_rng(r);
  return c;
}

void put_pass(ByteWriter& w, const RefinementPass& p) {
  w.f64(p.teic);
  w.f64(p.teil);
  w.i64(p.chip_area);
  w.f64(p.route_length);
  w.i32(p.route_overflow);
  w.i32(p.unrouted_nets);
  w.u64(static_cast<std::uint64_t>(p.regions));
  w.i32(p.temperature_steps);
  w.i32(p.width_rule_violations);
  w.i64(p.router_counters.dijkstra_runs);
  w.i64(p.router_counters.nodes_popped);
  w.i64(p.router_counters.heap_pushes);
  w.i64(p.router_counters.interchange_trials);
}

RefinementPass get_pass(ByteReader& r) {
  RefinementPass p;
  p.teic = r.f64();
  p.teil = r.f64();
  p.chip_area = r.i64();
  p.route_length = r.f64();
  p.route_overflow = r.i32();
  p.unrouted_nets = r.i32();
  p.regions = static_cast<std::size_t>(r.u64());
  p.temperature_steps = r.i32();
  p.width_rule_violations = r.i32();
  p.router_counters.dijkstra_runs = r.i64();
  p.router_counters.nodes_popped = r.i64();
  p.router_counters.heap_pushes = r.i64();
  p.router_counters.interchange_trials = r.i64();
  return p;
}

void put_stage2_cursor(ByteWriter& w, const Stage2Cursor& c) {
  w.i32(c.pass);
  w.f64(c.anneal.t);
  w.i32(c.anneal.steps);
  w.i32(c.anneal.stall);
  w.f64(c.anneal.last_cost);
  w.f64(c.p2);
  put_rect(w, c.working_core);
  w.u32(static_cast<std::uint32_t>(c.expansions.size()));
  for (const auto& e : c.expansions)
    for (const Coord v : e) w.i64(v);
  put_pass(w, c.rp);
  w.u32(static_cast<std::uint32_t>(c.done.size()));
  for (const RefinementPass& p : c.done) put_pass(w, p);
  put_rng(w, c.rng);
}

Stage2Cursor get_stage2_cursor(ByteReader& r) {
  Stage2Cursor c;
  c.pass = r.i32();
  c.anneal.t = r.f64();
  c.anneal.steps = r.i32();
  c.anneal.stall = r.i32();
  c.anneal.last_cost = r.f64();
  c.p2 = r.f64();
  c.working_core = get_rect(r);
  const std::size_t ne = r.length_prefix(4 * 8);
  c.expansions.reserve(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    std::array<Coord, 4> e{};
    for (auto& v : e) v = r.i64();
    c.expansions.push_back(e);
  }
  c.rp = get_pass(r);
  const std::size_t np = r.length_prefix(8);
  c.done.reserve(np);
  for (std::size_t i = 0; i < np; ++i) c.done.push_back(get_pass(r));
  c.rng = get_rng(r);
  return c;
}

void put_placement(ByteWriter& w, const PackedPlacement& p) {
  w.u32(static_cast<std::uint32_t>(p.cells.size()));
  for (const PackedCell& c : p.cells) {
    w.i64(c.center.x);
    w.i64(c.center.y);
    w.u8(static_cast<std::uint8_t>(c.orient));
    w.i32(c.instance);
    w.f64(c.aspect);
    std::vector<std::int32_t> sites(c.pin_site.begin(), c.pin_site.end());
    w.vec_i32(sites);
  }
}

PackedPlacement get_placement(ByteReader& r) {
  PackedPlacement p;
  const std::size_t n = r.length_prefix(2 * 8 + 1 + 4 + 8 + 4);
  p.cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PackedCell c;
    c.center.x = r.i64();
    c.center.y = r.i64();
    const std::uint8_t o = r.u8();
    if (o >= kAllOrients.size())
      throw CheckpointError(CheckpointErrc::kCorrupt,
                            "bad orient " + std::to_string(o) + " for cell " +
                                std::to_string(i));
    c.orient = static_cast<Orient>(o);
    c.instance = r.i32();
    c.aspect = r.f64();
    const std::vector<std::int32_t> sites = r.vec_i32();
    c.pin_site.assign(sites.begin(), sites.end());
    p.cells.push_back(std::move(c));
  }
  return p;
}

}  // namespace

const char* to_string(FlowPhase p) {
  switch (p) {
    case FlowPhase::kStage1: return "stage1";
    case FlowPhase::kStage2: return "stage2";
    case FlowPhase::kMultilevelRefine: return "multilevel-refine";
  }
  return "unknown";
}

PackedPlacement pack_placement(const Placement& p) {
  PackedPlacement out;
  const auto n = static_cast<CellId>(p.netlist().num_cells());
  out.cells.reserve(static_cast<std::size_t>(n));
  for (CellId i = 0; i < n; ++i) {
    const CellState& st = p.state(i);
    PackedCell c;
    c.center = st.center;
    c.orient = st.orient;
    c.instance = st.instance;
    c.aspect = st.aspect;
    c.pin_site = st.pin_site;
    out.cells.push_back(std::move(c));
  }
  return out;
}

void apply_placement(Placement& p, const PackedPlacement& packed) {
  if (packed.cells.size() != p.netlist().num_cells())
    throw CheckpointError(
        CheckpointErrc::kCorrupt,
        "placement has " + std::to_string(packed.cells.size()) +
            " cells, netlist has " + std::to_string(p.netlist().num_cells()));
  for (std::size_t i = 0; i < packed.cells.size(); ++i) {
    const PackedCell& c = packed.cells[i];
    try {
      // Bulk checkpoint restore, not a per-move transaction: callers
      // rebuild the overlap/cost engines from scratch after applying.
      p.restore_cell(static_cast<CellId>(i), c.center, c.orient,  // lint: allow(txn-reach)
                     c.instance, c.aspect, c.pin_site);
    } catch (const std::invalid_argument& e) {
      throw CheckpointError(CheckpointErrc::kCorrupt,
                            "cell " + std::to_string(i) + ": " + e.what());
    }
  }
}

std::uint64_t netlist_digest(const Netlist& nl) {
  const std::string text = write_netlist(nl);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::vector<std::uint8_t> encode_checkpoint(const FlowCheckpoint& cp) {
  ByteWriter w;
  w.u64(cp.master_seed);
  w.u64(cp.digest);
  w.u8(static_cast<std::uint8_t>(cp.phase));
  if (cp.phase == FlowPhase::kStage1) {
    put_stage1_cursor(w, cp.s1);
  } else if (cp.phase == FlowPhase::kMultilevelRefine) {
    put_stage1_result(w, cp.ml_coarse);
    w.f64(cp.ml_warm_teil);
    w.i32(cp.ml_clusters);
    w.i32(cp.ml_dropped_nets);
    put_stage1_cursor(w, cp.s1);
  } else {
    put_stage1_result(w, cp.s1_done);
    w.f64(cp.stage1_teil);
    w.i64(cp.stage1_chip_area);
    put_stage2_cursor(w, cp.s2);
  }
  put_placement(w, cp.placement);
  return w.take();
}

FlowCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  FlowCheckpoint cp;
  cp.master_seed = r.u64();
  cp.digest = r.u64();
  const std::uint8_t phase = r.u8();
  if (phase > static_cast<std::uint8_t>(FlowPhase::kMultilevelRefine))
    throw CheckpointError(CheckpointErrc::kCorrupt,
                          "bad phase " + std::to_string(phase));
  cp.phase = static_cast<FlowPhase>(phase);
  if (cp.phase == FlowPhase::kStage1) {
    cp.s1 = get_stage1_cursor(r);
  } else if (cp.phase == FlowPhase::kMultilevelRefine) {
    cp.ml_coarse = get_stage1_result(r);
    cp.ml_warm_teil = r.f64();
    cp.ml_clusters = r.i32();
    cp.ml_dropped_nets = r.i32();
    cp.s1 = get_stage1_cursor(r);
  } else {
    cp.s1_done = get_stage1_result(r);
    cp.stage1_teil = r.f64();
    cp.stage1_chip_area = r.i64();
    cp.s2 = get_stage2_cursor(r);
  }
  cp.placement = get_placement(r);
  r.expect_end();
  return cp;
}

namespace {

constexpr NumberedFiles kCheckpointFiles{"ckpt-", ".twcp"};

/// The newest checkpoint in `dir` that loads and that `wanted` takes,
/// with its path. Torn, bit-rotted or foreign files under a checkpoint
/// name are skipped: an older candidate beats poisoning the resume.
template <typename Wanted>
std::optional<std::pair<std::string, FlowCheckpoint>> newest_loadable(
    const std::string& dir, Wanted wanted) {
  const std::vector<int> numbers = kCheckpointFiles.list(dir);
  for (auto it = numbers.rbegin(); it != numbers.rend(); ++it) {
    std::string path = kCheckpointFiles.path(dir, *it);
    try {
      FlowCheckpoint cp = load_checkpoint(path);
      if (wanted(cp)) return std::pair{std::move(path), std::move(cp)};
    } catch (const CheckpointError&) {
      // not loadable: try the next older file
    }
  }
  return std::nullopt;
}

}  // namespace

void write_checkpoint_file(const std::string& path, const FlowCheckpoint& cp) {
  const std::string err = write_atomic(
      path, frame(kMagic, kCheckpointVersion, encode_checkpoint(cp)), nullptr,
      DiskSite::kCheckpointWrite);
  if (!err.empty()) throw CheckpointError(CheckpointErrc::kIo, err);
}

FlowCheckpoint load_checkpoint(const std::string& path) {
  const auto bytes = read_file(path);
  if (!bytes) throw CheckpointError(CheckpointErrc::kIo, "cannot read " + path);
  return decode_checkpoint(unframe(*bytes, kMagic, kCheckpointVersion, path));
}

FileCheckpointSink::FileCheckpointSink(std::string dir, int keep,
                                       std::uint64_t quota_bytes,
                                       DiskFaultInjector* disk_faults)
    : dir_(std::move(dir)),
      keep_(keep),
      quota_bytes_(quota_bytes),
      disk_faults_(disk_faults) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw CheckpointError(CheckpointErrc::kIo,
                          "cannot create " + dir_ + ": " + ec.message());
  // Continue numbering after whatever an earlier attempt left behind, and
  // start the byte ledger from what is already on disk so the quota
  // covers a predecessor's files too.
  for (const int n : kCheckpointFiles.list(dir_)) {
    counter_ = n;
    bytes_ += kCheckpointFiles.bytes(dir_, n);
  }
}

void FileCheckpointSink::prune_upto(int upto) {
  for (const int n : kCheckpointFiles.list(dir_)) {
    if (n > upto) break;
    const std::uint64_t size = kCheckpointFiles.bytes(dir_, n);
    if (remove_file(kCheckpointFiles.path(dir_, n)))
      bytes_ -= std::min(bytes_, size);
    else
      ++prune_failures_;
  }
}

std::string FileCheckpointSink::save(const FlowCheckpoint& cp) {
  const std::string path = kCheckpointFiles.path(dir_, counter_ + 1);
  const std::vector<std::uint8_t> framed =
      frame(kMagic, kCheckpointVersion, encode_checkpoint(cp));
  const std::uint64_t size = framed.size();

  if (quota_bytes_ > 0 && bytes_ + size > quota_bytes_) {
    // Make room the retention policy allows before giving up: the save
    // that would exceed the quota may only do so because older files it
    // would prune anyway are still on disk.
    if (keep_ > 0) prune_upto(counter_ - keep_ + 1);
    if (bytes_ + size > quota_bytes_)
      throw CheckpointError(
          CheckpointErrc::kQuotaExceeded,
          dir_ + " holds " + std::to_string(bytes_) + " byte(s), frame of " +
              std::to_string(size) + " would exceed the quota of " +
              std::to_string(quota_bytes_));
  }

  const std::string err =
      write_atomic(path, framed, disk_faults_, DiskSite::kCheckpointWrite);
  if (!err.empty()) throw CheckpointError(CheckpointErrc::kIo, err);
  ++counter_;
  ++saved_;
  bytes_ += size;
  if (keep_ > 0) {
    // Prune only after the new file is durably in place, so the newest
    // `keep_` files always exist on disk. Each removal is an atomic
    // unlink; a failure to remove is not a lost checkpoint, so it only
    // degrades retention, never the save — but it is an early sign of a
    // disk going bad (read-only remount, permission rot), so every
    // failure is surfaced through the log before it escalates into a
    // kIo write failure on the next save.
    prune_upto(counter_ - keep_);
  }
  return path;
}

std::optional<std::string> find_latest_checkpoint(const std::string& dir) {
  auto hit = newest_loadable(dir, [](const FlowCheckpoint&) { return true; });
  return hit ? std::optional(std::move(hit->first)) : std::nullopt;
}

std::optional<FlowCheckpoint> adopt_checkpoint(
    const std::string& dir, std::uint64_t digest,
    std::optional<std::uint64_t> seed) {
  // Skip a stale directory's files and, when asked, other seeds' files.
  auto hit = newest_loadable(dir, [&](const FlowCheckpoint& cp) {
    return cp.digest == digest && (!seed || cp.master_seed == *seed);
  });
  return hit ? std::optional(std::move(hit->second)) : std::nullopt;
}

}  // namespace tw::recover
