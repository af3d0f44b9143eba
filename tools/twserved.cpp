// twserved: the crash-safe placement service daemon.
//
//   twserved --socket /tmp/tw.sock --state /var/lib/twserved
//
// Accepts placement jobs (YAL or native netlist text) over a Unix domain
// socket, writes every accepted job's record before acking, anneals them
// on a shared replica-pool executor under per-job work quotas, streams
// progress, dedups identical submissions against a bounded on-disk result
// cache, and survives kill -9 at any point: on restart the job records
// are read back and in-flight jobs continue from their newest valid
// checkpoints. See docs/ROBUSTNESS.md "Placement service".
//
// --kill-at site:count arms the deterministic crash switch (the soak
// harness's instrument); see serve/daemon.hpp for the site names.
// --fail-disk site:nth[:kind] arms the disk-fault seam the same way: the
// nth write at a durability site (checkpoint, journal-write, cache-write)
// pretends the disk failed (enospc, or a short-write that leaves a
// genuinely torn temp file). The soak harness's disk-full scenario
// drives the degraded modes through this.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "recover/fault.hpp"
#include "serve/daemon.hpp"
#include "util/log.hpp"

namespace {

void usage() {
  std::cerr <<
      "usage: twserved --socket PATH --state DIR [options]\n"
      "  --socket PATH        Unix socket to listen on (required)\n"
      "  --state DIR          job-record/cache/checkpoint root (required)\n"
      "  --threads N          executor worker threads (default 2)\n"
      "  --max-jobs N         urgent-job admission bound; normal and batch\n"
      "                       jobs shed earlier (default 8)\n"
      "  --max-replicas N     per-job replica quota (default 8)\n"
      "  --max-cells N        netlist-size quota, 0=unlimited (default 0)\n"
      "  --max-budget-moves N per-job move-quota cap, -1=unlimited\n"
      "  --max-budget-steps N per-job step-quota cap, -1=unlimited\n"
      "  --cache-budget-bytes N    result-cache byte budget (default 8MiB)\n"
      "  --checkpoint-quota N      per-replica checkpoint-dir byte quota,\n"
      "                            0=unlimited (default 0)\n"
      "  --tick-ms N          poll tick length, the daemon's clock unit\n"
      "                       (default 500)\n"
      "  --idle-ticks N       reap a client after N idle ticks, 0=never\n"
      "                       (default 0; reaped clients keep their jobs)\n"
      "  --max-out-bytes N    per-client outgoing buffer bound past which\n"
      "                       progress events drop (default 1MiB)\n"
      "  --kill-at SITE:N     die hard at the N-th SITE event (testing;\n"
      "                       sites: post-journal post-ack progress\n"
      "                       pre-finish post-finish; repeatable)\n"
      "  --fail-disk SITE:N[:KIND]  fail the N-th (0-based) write at a\n"
      "                       disk site (testing; sites: checkpoint\n"
      "                       journal-write cache-write; kinds: enospc\n"
      "                       short; suffix N with + to fail every write\n"
      "                       from the N-th on; repeatable)\n";
}

bool parse_kill(const std::string& arg, tw::serve::KillSpec& out) {
  const std::size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  out.site = arg.substr(0, colon);
  try {
    out.count = std::stoi(arg.substr(colon + 1));
  } catch (...) {
    return false;
  }
  return out.count >= 1;
}

/// Parses "site:nth[:kind]" (nth may end in '+' for a persistent fault)
/// and arms it on `plan`.
bool parse_fail_disk(const std::string& arg, tw::recover::DiskFaultPlan& plan) {
  const std::size_t c1 = arg.find(':');
  if (c1 == std::string::npos || c1 == 0) return false;
  const std::string site_s = arg.substr(0, c1);
  const std::size_t c2 = arg.find(':', c1 + 1);
  std::string nth_s = c2 == std::string::npos
                          ? arg.substr(c1 + 1)
                          : arg.substr(c1 + 1, c2 - c1 - 1);
  const std::string kind_s =
      c2 == std::string::npos ? "enospc" : arg.substr(c2 + 1);

  tw::recover::DiskSite site;
  if (site_s == "checkpoint") site = tw::recover::DiskSite::kCheckpointWrite;
  else if (site_s == "journal-write")
    site = tw::recover::DiskSite::kJournalWrite;
  else if (site_s == "cache-write") site = tw::recover::DiskSite::kCacheWrite;
  else return false;

  tw::recover::DiskFault kind;
  if (kind_s == "enospc") kind = tw::recover::DiskFault::kEnospc;
  else if (kind_s == "short") kind = tw::recover::DiskFault::kShortWrite;
  else return false;

  bool persistent = false;
  if (!nth_s.empty() && nth_s.back() == '+') {
    persistent = true;
    nth_s.pop_back();
  }
  std::int64_t nth = 0;
  try {
    nth = std::stoll(nth_s);
  } catch (...) {
    return false;
  }
  if (nth < 0) return false;
  if (persistent) plan.fail_from(site, nth, kind);
  else plan.fail_at(site, nth, kind);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  tw::serve::DaemonConfig cfg;
  tw::serve::SchedulerConfig& sc = cfg.scheduler;
  // Static: the scheduler holds a raw pointer to it for the daemon's life.
  static tw::recover::DiskFaultPlan disk_plan;
  bool any_disk_fault = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << "twserved: " << a << " needs a value\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (a == "--socket") cfg.socket_path = value();
    else if (a == "--state") sc.state_dir = value();
    else if (a == "--threads") sc.threads = std::stoi(value());
    else if (a == "--max-jobs") sc.limits.max_jobs = std::stoi(value());
    else if (a == "--max-replicas")
      sc.limits.max_replicas = std::stoi(value());
    else if (a == "--max-cells") sc.limits.max_cells = std::stoi(value());
    else if (a == "--max-budget-moves")
      sc.limits.max_budget_moves = std::stoll(value());
    else if (a == "--max-budget-steps")
      sc.limits.max_budget_steps = std::stoll(value());
    else if (a == "--cache-budget-bytes")
      sc.cache_budget_bytes = std::stoull(value());
    else if (a == "--checkpoint-quota")
      sc.checkpoint_quota_bytes = std::stoull(value());
    else if (a == "--tick-ms") cfg.poll_tick_ms = std::stoi(value());
    else if (a == "--idle-ticks") cfg.idle_ticks = std::stoi(value());
    else if (a == "--max-out-bytes")
      cfg.max_out_bytes = static_cast<std::size_t>(std::stoull(value()));
    else if (a == "--kill-at") {
      tw::serve::KillSpec k;
      if (!parse_kill(value(), k)) {
        std::cerr << "twserved: bad --kill-at (want site:count)\n";
        return 2;
      }
      cfg.kill_at.push_back(std::move(k));
    } else if (a == "--fail-disk") {
      if (!parse_fail_disk(value(), disk_plan)) {
        std::cerr << "twserved: bad --fail-disk (want site:nth[:kind])\n";
        return 2;
      }
      any_disk_fault = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "twserved: unknown option " << a << "\n";
      usage();
      return 2;
    }
  }
  if (cfg.socket_path.empty() || sc.state_dir.empty()) {
    usage();
    return 2;
  }
  if (any_disk_fault) sc.disk_faults = &disk_plan;

  try {
    tw::serve::Daemon daemon(std::move(cfg));
    return daemon.run();
  } catch (const std::exception& e) {
    std::cerr << "twserved: fatal: " << e.what() << "\n";
    return 1;
  }
}
