#include "recover/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "netlist/parser.hpp"
#include "place/placement.hpp"
#include "recover/durable.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace tw::recover {
namespace {

constexpr std::string_view kMagic = "TWCP";

// --- The payload's field lists. Each one runs over a ByteWriter to encode
// --- and over a ByteReader to decode, so it is the one definition of its
// --- record's layout: any incompatible change bumps kCheckpointVersion.

template <class Io, MaybeConst<Rect> R>
void fields(Io& io, R& r) {
  io.i64(r.xlo);
  io.i64(r.ylo);
  io.i64(r.xhi);
  io.i64(r.yhi);
}

template <class Io, MaybeConst<Stage1Result> R>
void fields(Io& io, R& s) {
  io.f64(s.final_teic);
  io.f64(s.final_teil);
  io.i64(s.residual_overlap);
  io.i32(s.overloaded_sites);
  fields(io, s.core);
  io.f64(s.t_infinity);
  io.f64(s.temperature_scale);
  io.f64(s.p2);
  io.i32(s.temperature_steps);
  io.i64(s.attempts);
  io.i64(s.accepts);
  io.vec(s.trace, 4 * 8, [](auto& io, auto& p) {
    io.f64(p.t);
    io.f64(p.avg_cost);
    io.f64(p.acceptance_rate);
    io.i64(p.window_x);
  });
  io.u8(s.outcome, RunOutcome::kResumed, "run outcome");
}

template <class Io, MaybeConst<Stage1Cursor> R>
void fields(Io& io, R& c) {
  io.i32(c.next_step);
  io.f64(c.t);
  io.f64(c.p2_base);
  fields(io, c.partial);
  for (auto& word : c.rng) io.u64(word);
}

template <class Io, MaybeConst<RefinementPass> R>
void fields(Io& io, R& p) {
  io.f64(p.teic);
  io.f64(p.teil);
  io.i64(p.chip_area);
  io.f64(p.route_length);
  io.i32(p.route_overflow);
  io.i32(p.unrouted_nets);
  io.u64(p.regions);
  io.i32(p.temperature_steps);
  io.i32(p.width_rule_violations);
  io.i64(p.router_counters.dijkstra_runs);
  io.i64(p.router_counters.nodes_popped);
  io.i64(p.router_counters.heap_pushes);
  io.i64(p.router_counters.interchange_trials);
}

template <class Io, MaybeConst<Stage2Cursor> R>
void fields(Io& io, R& c) {
  io.i32(c.pass);
  io.f64(c.anneal.t);
  io.i32(c.anneal.steps);
  io.i32(c.anneal.stall);
  io.f64(c.anneal.last_cost);
  io.f64(c.p2);
  fields(io, c.working_core);
  io.vec(c.expansions, 4 * 8, [](auto& io, auto& e) {
    for (auto& v : e) io.i64(v);
  });
  fields(io, c.rp);
  io.vec(c.done, 8, [](auto& io, auto& p) { fields(io, p); });
  for (auto& word : c.rng) io.u64(word);
}

template <class Io, MaybeConst<PackedPlacement> R>
void fields(Io& io, R& p) {
  io.vec(p.cells, 2 * 8 + 1 + 4 + 8 + 4, [](auto& io, auto& c) {
    io.i64(c.center.x);
    io.i64(c.center.y);
    io.u8(c.orient, kAllOrients.back(), "orient");
    io.i32(c.instance);
    io.f64(c.aspect);
    io.vec(c.pin_site, 4, [](auto& io, auto& site) { io.i32(site); });
  });
}

/// The whole payload: identity, the phase, that phase's cursor and
/// results, then the placement essentials.
template <class Io, MaybeConst<FlowCheckpoint> R>
void fields(Io& io, R& cp) {
  io.u64(cp.master_seed);
  io.u64(cp.digest);
  io.u8(cp.phase, FlowPhase::kMultilevelRefine, "phase");
  switch (cp.phase) {
    case FlowPhase::kStage1:
      fields(io, cp.s1);
      break;
    case FlowPhase::kMultilevelRefine:
      fields(io, cp.ml_coarse);
      io.f64(cp.ml_warm_teil);
      io.i32(cp.ml_clusters);
      io.i32(cp.ml_dropped_nets);
      fields(io, cp.s1);
      break;
    case FlowPhase::kStage2:
      fields(io, cp.s1_done);
      io.f64(cp.stage1_teil);
      io.i64(cp.stage1_chip_area);
      fields(io, cp.s2);
      break;
  }
  fields(io, cp.placement);
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
  // Bulk checkpoint restore, not a per-move transaction: callers rebuild
  // the overlap/cost engines from scratch after applying. Every cell is
  // rewritten, so the net bounds are rebuilt once at the end instead of
  // staged per cell — also when a corrupt cell aborts the reload.
  p.suspend_net_bounds();  // lint: allow(txn-reach)
  for (std::size_t i = 0; i < packed.cells.size(); ++i) {
    const PackedCell& c = packed.cells[i];
    try {
      p.restore_cell(static_cast<CellId>(i), c.center, c.orient,  // lint: allow(txn-reach)
                     c.instance, c.aspect, c.pin_site);
    } catch (const std::invalid_argument& e) {
      p.resync_net_bounds();
      throw CheckpointError(CheckpointErrc::kCorrupt,
                            "cell " + std::to_string(i) + ": " + e.what());
    }
  }
  p.resync_net_bounds();
}

std::uint64_t netlist_digest(const Netlist& nl) {
  return fnv1a(write_netlist(nl));
}

std::vector<std::uint8_t> encode_checkpoint(const FlowCheckpoint& cp) {
  ByteWriter w;
  fields(w, cp);
  return w.take();
}

FlowCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  FlowCheckpoint cp;
  fields(r, cp);
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
