#include "serve/journal.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string_view>
#include <utility>

#include "recover/durable.hpp"
#include "util/log.hpp"

namespace tw::serve {
namespace {

namespace fs = std::filesystem;

using recover::ByteReader;
using recover::ByteWriter;

constexpr std::string_view kMagic = "TWJR";
constexpr std::uint32_t kRecordVersion = 1;
constexpr std::string_view kJobPrefix = "job-";

/// The record file inside job directory `job_dir`.
std::string record_in(const std::string& job_dir) {
  return job_dir + "/record.twj";
}

/// A job record's payload.
template <class Io, recover::MaybeConst<LiveJob> J>
void fields(Io& io, J& job) {
  io.u64(job.job);
  fields(io, job.params);
  io.str(job.netlist_yal);
  io.u8(job.cancelled);
}

/// The id a job directory is named after; nullopt for any other name
/// (only the spelling job_dir() writes counts, so "job-007" is foreign).
std::optional<std::uint64_t> job_id(std::string_view name) {
  if (!name.starts_with(kJobPrefix)) return std::nullopt;
  const std::string_view digits = name.substr(kJobPrefix.size());
  std::uint64_t id = 0;
  const std::from_chars_result r =
      std::from_chars(digits.data(), digits.data() + digits.size(), id);
  if (r.ec != std::errc{} || digits != std::to_string(id)) return std::nullopt;
  return id;
}

}  // namespace

JobJournal::JobJournal(std::string dir,
                       recover::DiskFaultInjector* disk_faults)
    : dir_(std::move(dir)), disk_faults_(disk_faults) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    throw ServeError(ServeErrc::kIo,
                     "cannot create job dir " + dir_ + ": " + ec.message());
}

std::string JobJournal::job_dir(std::uint64_t id) const {
  return dir_ + "/" + std::string(kJobPrefix) + std::to_string(id);
}

std::vector<LiveJob> JobJournal::recover() {
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec))
    if (entry.is_directory(ec))
      if (const auto id = job_id(entry.path().filename().string()))
        ids.push_back(*id);
  std::sort(ids.begin(), ids.end());

  std::vector<LiveJob> live;
  for (const std::uint64_t id : ids) {
    max_job_ = std::max(max_job_, id);
    const std::string path = record_in(job_dir(id));
    const auto bytes = recover::read_file(path);
    if (!bytes) {
      // A submission killed before its record reached the disk (it was
      // never acked), or a finished job whose removal was cut short.
      log_warn("recovery: ", job_dir(id), " holds no record; removing it");
      remove(id);
      continue;
    }
    LiveJob job;
    try {
      ByteReader r(recover::unframe(*bytes, kMagic, kRecordVersion, path));
      fields(r, job);
      r.expect_end();
    } catch (const recover::CheckpointError& e) {
      log_warn("recovery: job ", id, "'s record does not read (", e.what(),
               "); retiring it");
      remove(id);
      continue;
    }
    if (job.job != id) {
      log_warn("recovery: ", path, " names job ", job.job, "; retiring it");
      remove(id);
      continue;
    }
    record_bytes_[id] = bytes->size();
    live.push_back(std::move(job));
  }
  return live;
}

void JobJournal::write(const LiveJob& job) {
  ByteWriter w;
  fields(w, job);
  const std::vector<std::uint8_t> framed =
      recover::frame(kMagic, kRecordVersion, w.bytes());
  const std::string dir = job_dir(job.job);
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string err =
      ec ? "cannot create " + dir + ": " + ec.message()
         : recover::write_atomic(record_in(dir), framed, disk_faults_,
                                 recover::DiskSite::kJournalWrite);
  if (!err.empty()) {
    // A torn first write must not leave a directory startup would sweep
    // only later; a rewrite keeps the record it failed to replace.
    if (record_bytes_.count(job.job) == 0) remove(job.job);
    throw ServeError(ServeErrc::kIo, "job record: " + err);
  }
  record_bytes_[job.job] = framed.size();
}

bool JobJournal::remove(std::uint64_t id) {
  record_bytes_.erase(id);
  const std::string dir = job_dir(id);
  if (!recover::remove_file(record_in(dir))) return false;
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) log_warn("cannot remove job dir ", dir, ": ", ec.message());
  return !ec;
}

std::uint64_t JobJournal::bytes() const {
  return std::accumulate(
      record_bytes_.begin(), record_bytes_.end(), std::uint64_t{0},
      [](std::uint64_t sum, const auto& kv) { return sum + kv.second; });
}

}  // namespace tw::serve
