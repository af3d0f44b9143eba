#include "serve/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "recover/durable.hpp"
#include "util/log.hpp"

namespace tw::serve {
namespace {

using recover::ByteReader;
using recover::ByteWriter;

enum class JournalOp : std::uint8_t {
  kSubmitted = 0,
  kFinished = 1,
  kCancelled = 2,
};

constexpr recover::NumberedFiles kSegments{"seg-", ".twj"};

/// One journal record: its op, the job id and, for kSubmitted, the job's
/// parameters and netlist.
struct Record {
  std::uint8_t op = 0;  ///< a JournalOp; replay skips ops it does not know
  LiveJob job;
};

template <class Io, recover::MaybeConst<Record> R>
void fields(Io& io, R& rec) {
  io.u8(rec.op);
  io.u64(rec.job.job);
  if (rec.op != static_cast<std::uint8_t>(JournalOp::kSubmitted)) return;
  fields(io, rec.job.params);
  io.str(rec.job.netlist_yal);
}

/// A job known by its id alone: the body of a finished or cancelled
/// marker, whose record stops after the id.
LiveJob id_only(std::uint64_t job) {
  LiveJob j;
  j.job = job;
  return j;
}

std::vector<std::uint8_t> encode(JournalOp op, LiveJob job) {
  const Record rec{static_cast<std::uint8_t>(op), std::move(job)};
  ByteWriter w;
  fields(w, rec);
  return w.take();
}

/// The 8 bytes in front of every record's payload.
struct RecordHeader {
  std::uint32_t size = 0;  ///< payload bytes
  std::uint32_t crc = 0;   ///< CRC-32 of the payload
};

template <class Io, recover::MaybeConst<RecordHeader> R>
void fields(Io& io, R& h) {
  io.u32(h.size);
  io.u32(h.crc);
}

/// Appends one framed record (header, then payload) to `out`.
void append_record(std::vector<std::uint8_t>& out,
                   const std::vector<std::uint8_t>& p) {
  const RecordHeader h{static_cast<std::uint32_t>(p.size()),
                       recover::crc32(p)};
  ByteWriter w;
  fields(w, h);
  out.insert(out.end(), w.bytes().begin(), w.bytes().end());
  out.insert(out.end(), p.begin(), p.end());
}

/// Decodes one segment's records into the shared replay state. Returns
/// true when the whole segment parsed cleanly, false when it ended on a
/// torn or corrupt record (everything before it was kept).
bool replay_segment(const std::string& path, JournalReplay& out,
                    std::vector<LiveJob>& jobs,
                    std::vector<std::uint64_t>& finished) {
  const auto file = recover::read_file(path);
  if (!file) return true;  // vanished between listing and open: nothing lost
  const std::vector<std::uint8_t>& bytes = *file;

  const auto find = [&jobs](std::uint64_t id) -> LiveJob* {
    for (LiveJob& j : jobs)
      if (j.job == id) return &j;
    return nullptr;
  };
  const auto is_finished = [&finished](std::uint64_t id) {
    for (const std::uint64_t f : finished)
      if (f == id) return true;
    return false;
  };

  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) return false;
    RecordHeader h;
    ByteReader hr(std::span<const std::uint8_t>(bytes.data() + pos, 8));
    fields(hr, h);
    if (h.size > kMaxPayload || bytes.size() - pos - 8 < h.size) return false;
    const std::span<const std::uint8_t> payload(bytes.data() + pos + 8, h.size);
    if (recover::crc32(payload) != h.crc) return false;
    pos += 8 + h.size;

    // The reader fills the record in field order, so one that fails part
    // way still names its job once the id was read: the id stays taken.
    Record rec;
    try {
      ByteReader r(payload);
      fields(r, rec);
      if (rec.op == static_cast<std::uint8_t>(JournalOp::kSubmitted))
        r.expect_end();
    } catch (const recover::CheckpointError& e) {
      // CRC passed but the payload decodes short/corrupt: stop at this
      // record — later ones may depend on it.
      out.max_job = std::max(out.max_job, rec.job.job);
      log_warn("journal ", path, ": corrupt record (", e.what(),
               "); dropping it and the segment tail");
      return false;
    }
    const std::uint64_t id = rec.job.job;
    out.max_job = std::max(out.max_job, id);
    switch (static_cast<JournalOp>(rec.op)) {
      case JournalOp::kSubmitted:
        // A re-submit of an id already seen or already finished is
        // ignored — this is what makes an interrupted compaction (old
        // segments + compacted segment coexisting) converge.
        if (find(id) == nullptr && !is_finished(id))
          jobs.push_back(std::move(rec.job));
        break;
      case JournalOp::kFinished:
        finished.push_back(id);
        for (std::size_t i = 0; i < jobs.size(); ++i)
          if (jobs[i].job == id) {
            jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(i));
            ++out.dropped;
            break;
          }
        break;
      case JournalOp::kCancelled:
        if (LiveJob* j = find(id)) j->cancelled = true;
        break;
      default:
        // Unknown op in an otherwise CRC-valid record: a newer format.
        // Skip the record, keep replaying — better a partial history
        // than none.
        log_warn("journal ", path, ": skipping record with unknown op");
    }
    ++out.records;
  }
  return true;
}

}  // namespace

JobJournal::JobJournal(std::string dir, std::uint64_t max_segment_bytes,
                       recover::DiskFaultInjector* disk_faults)
    : dir_(std::move(dir)),
      max_segment_bytes_(std::max<std::uint64_t>(1, max_segment_bytes)),
      disk_faults_(disk_faults) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw ServeError(ServeErrc::kIo, "cannot create journal dir " + dir_ +
                                         ": " + ec.message());
  const std::vector<int> numbers = kSegments.list(dir_);
  for (const int n : numbers) {
    seg_bytes_ = kSegments.bytes(dir_, n);
    total_bytes_ += seg_bytes_;
  }
  // Append to the newest existing segment; start segment 1 fresh.
  segments_ = std::max<int>(1, static_cast<int>(numbers.size()));
  open_segment(numbers.empty() ? 1 : numbers.back());
}

void JobJournal::open_segment(int number) {
  seg_ = number;
  out_.close();
  out_.clear();
  out_.open(kSegments.path(dir_, seg_), std::ios::binary | std::ios::app);
  if (!out_)
    throw ServeError(ServeErrc::kIo, "cannot open journal segment " +
                                         kSegments.path(dir_, seg_));
}

void JobJournal::append(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  append_record(frame, payload);

  const auto poll = [this](recover::DiskSite site) {
    return disk_faults_ == nullptr ? recover::DiskFault::kNone
                                   : disk_faults_->write_fault(site);
  };

  // Rotate before the append that would burst the segment cap (never
  // split a record; an oversized record gets a segment of its own).
  if (seg_bytes_ > 0 && seg_bytes_ + frame.size() > max_segment_bytes_) {
    if (const recover::DiskFault f = poll(recover::DiskSite::kJournalRotate);
        f != recover::DiskFault::kNone)
      throw ServeError(ServeErrc::kIo,
                       std::string("injected ") + recover::to_string(f) +
                           " rotating to " + kSegments.path(dir_, seg_ + 1));
    open_segment(seg_ + 1);
    ++segments_;
    seg_bytes_ = 0;
  }

  const recover::DiskFault f = poll(recover::DiskSite::kJournalAppend);
  // An injected short write leaves the torn tail a real one leaves: part
  // of the frame reaches the segment, then the write fails. Replay must
  // drop it. Any other injected fault writes nothing.
  std::size_t n = frame.size();
  if (f == recover::DiskFault::kShortWrite)
    n = std::min<std::size_t>(n, 5);
  else if (f != recover::DiskFault::kNone)
    n = 0;
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(n));
  out_.flush();
  if (out_) {
    seg_bytes_ += n;
    total_bytes_ += n;
  }
  if (f != recover::DiskFault::kNone)
    throw ServeError(ServeErrc::kIo,
                     std::string("injected ") + recover::to_string(f) +
                         " appending to " + kSegments.path(dir_, seg_));
  if (!out_)
    throw ServeError(ServeErrc::kIo,
                     "journal append failed: " + kSegments.path(dir_, seg_));
  ++appended_;
}

void JobJournal::record_submitted(std::uint64_t job, const JobParams& params,
                                  const std::string& netlist_yal) {
  append(encode(JournalOp::kSubmitted, LiveJob{job, params, netlist_yal}));
}

void JobJournal::record_finished(std::uint64_t job) {
  append(encode(JournalOp::kFinished, id_only(job)));
}

void JobJournal::record_cancelled(std::uint64_t job) {
  append(encode(JournalOp::kCancelled, id_only(job)));
}

void JobJournal::compact(const std::vector<LiveJob>& live) {
  // The compacted history goes into a segment numbered above every
  // existing one, so replay order puts it last and its re-submits win
  // nothing / lose nothing against the old records (see replay_segment).
  const int target = seg_ + 1;
  std::vector<std::uint8_t> bytes;
  for (const LiveJob& j : live) {
    append_record(bytes, encode(JournalOp::kSubmitted, j));
    // A replayed cancel marker is not terminal (the job is still owed a
    // result); kCancelled only finalizes a job *not* in `live`.
    if (j.cancelled)
      append_record(bytes, encode(JournalOp::kCancelled, id_only(j.job)));
  }
  const std::string err =
      recover::write_atomic(kSegments.path(dir_, target), bytes, disk_faults_,
                            recover::DiskSite::kJournalRotate);
  if (!err.empty())
    throw ServeError(ServeErrc::kIo, "journal compaction: " + err);

  // The compacted segment is durable; everything older is now redundant.
  // Unlink failures leave extra-but-consistent history, so they only warn.
  out_.close();
  segments_ = 1;
  seg_bytes_ = total_bytes_ = bytes.size();
  for (const int n : kSegments.list(dir_)) {
    if (n >= target) break;
    if (!recover::remove_file(kSegments.path(dir_, n))) {
      ++segments_;
      total_bytes_ += kSegments.bytes(dir_, n);
    }
  }
  open_segment(target);
  log_info("journal compacted: ", dir_, " now holds ", live.size(),
           " live job(s) in ", segments_, " segment(s), ", total_bytes_,
           " byte(s)");
}

JournalReplay JobJournal::replay(const std::string& dir) {
  JournalReplay out;
  std::vector<LiveJob> jobs;
  std::vector<std::uint64_t> finished;
  const std::vector<int> numbers = kSegments.list(dir);
  out.segments = static_cast<int>(numbers.size());
  for (const int n : numbers) {
    const std::string path = kSegments.path(dir, n);
    const bool clean = replay_segment(path, out, jobs, finished);
    if (!clean) {
      // A torn tail is the expected signature of a crash mid-append, but
      // only the newest segment was ever mid-append; damage anywhere else
      // is on-disk corruption and gets its own flag.
      const bool newest = n == numbers.back();
      (newest ? out.torn_tail : out.torn_interior) = true;
      log_warn("journal ", path, ": torn/corrupt record dropped (",
               newest ? "newest segment: crash tail"
                      : "interior segment: disk damage",
               ")");
    }
  }
  out.live = std::move(jobs);
  return out;
}

}  // namespace tw::serve
