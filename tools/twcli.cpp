// twcli: command-line client of the placement service.
//
//   twcli --socket /tmp/tw.sock submit design.yal --replicas 2 --progress
//   twcli --socket /tmp/tw.sock submit design.yal --priority urgent
//   twcli --socket /tmp/tw.sock query 7
//   twcli --socket /tmp/tw.sock cancel 7
//   twcli --socket /tmp/tw.sock stats
//   twcli --socket /tmp/tw.sock ping
//   twcli --socket /tmp/tw.sock shutdown
//
// Output is line-oriented and machine-parseable (the soak harness greps
// it): the terminal line of a submission is
//   result job=N status=S cached=0|1 fingerprint=HEX teil=T area=A
// Exit codes: 0 result delivered (any status but failed), 1 job failed,
// 2 usage error, 3 rejected by the daemon, 4 transport error.
//
// Transient failures retry by default: a refused connection (daemon still
// booting) and a kOverloaded rejection (load shed) are retried with a
// bounded, deterministic exponential backoff — the kOverloaded reply's
// retry_after_ms hint is honored when it is larger. --no-retry turns the
// client into a single-shot probe (the soak harness's overload scenario
// uses it to observe the shed itself).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"

namespace {

using namespace tw::serve;

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void usage() {
  std::cerr <<
      "usage: twcli --socket PATH [--no-retry] [--retries N] COMMAND [args]\n"
      "commands:\n"
      "  submit FILE [--seed N] [--replicas N] [--max-attempts N]\n"
      "              [--budget-moves N] [--budget-steps N]\n"
      "              [--watchdog-moves N] [--checkpoint-every N]\n"
      "              [--checkpoint-keep N] [--priority batch|normal|urgent]\n"
      "              [--fast] [--progress]\n"
      "  query JOB\n"
      "  cancel JOB\n"
      "  stats\n"
      "  ping\n"
      "  shutdown\n"
      "retry: refused connections and overloaded rejections back off\n"
      "deterministically (200ms doubling, or the server's retry_after_ms\n"
      "hint when larger) up to --retries attempts (default 5);\n"
      "--no-retry fails fast instead.\n";
}

/// Deterministic backoff for retry round `attempt` (zero-based): 200ms
/// doubling, capped at 3200ms, stretched by the server's hint when the
/// hint is larger. No jitter — two identical runs wait identically.
std::uint32_t backoff_ms(int attempt, std::uint32_t hint_ms) {
  const std::uint32_t base =
      200u << static_cast<std::uint32_t>(std::min(attempt, 4));
  return std::max(base, hint_ms);
}

void sleep_ms(std::uint32_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

int run_submit(const std::string& socket_path,
               const std::vector<std::string>& args, int max_retries) {
  SubmitRequest req;
  std::string file;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << "twcli: " << a << " needs a value\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (a == "--seed") req.params.master_seed = std::stoull(value());
    else if (a == "--replicas") req.params.replicas = std::stoi(value());
    else if (a == "--max-attempts")
      req.params.max_attempts = std::stoi(value());
    else if (a == "--budget-moves")
      req.params.budget_moves = std::stoll(value());
    else if (a == "--budget-steps")
      req.params.budget_steps = std::stoll(value());
    else if (a == "--watchdog-moves")
      req.params.watchdog_moves = std::stoll(value());
    else if (a == "--checkpoint-every")
      req.params.checkpoint_every = std::stoi(value());
    else if (a == "--checkpoint-keep")
      req.params.checkpoint_keep = std::stoi(value());
    else if (a == "--priority") {
      const std::string p = value();
      if (p == "batch") req.params.priority = JobPriority::kBatch;
      else if (p == "normal") req.params.priority = JobPriority::kNormal;
      else if (p == "urgent") req.params.priority = JobPriority::kUrgent;
      else {
        std::cerr << "twcli: bad --priority " << p
                  << " (want batch|normal|urgent)\n";
        return 2;
      }
    }
    else if (a == "--fast") {
      // The compact parameterization the repo's determinism tests run
      // under: finishes in milliseconds on the sample benchmarks.
      req.params.s1_attempts_per_cell = 12;
      req.params.s1_p2_samples = 6;
      req.params.s2_attempts_per_cell = 8;
      req.params.steiner_m = 4;
    } else if (a == "--progress") {
      req.want_progress = true;
    } else if (!a.empty() && a[0] != '-' && file.empty()) {
      file = a;
    } else {
      std::cerr << "twcli: unknown submit option " << a << "\n";
      return 2;
    }
  }
  if (file.empty()) {
    std::cerr << "twcli: submit needs a netlist file\n";
    return 2;
  }
  try {
    req.netlist_yal = read_text_file(file);
  } catch (const std::exception& e) {
    std::cerr << "twcli: " << e.what() << "\n";
    return 2;
  }

  for (int attempt = 0;; ++attempt) {
    Client::SubmitOutcome out;
    try {
      Client client(socket_path);
      out = client.submit_and_wait(req, [](const ProgressEvent& pg) {
        std::cout << "progress job=" << pg.job << " replica=" << pg.replica
                  << " phase=" << static_cast<int>(pg.phase)
                  << " step=" << pg.step << " pass=" << pg.pass
                  << " t=" << pg.t << " cost=" << pg.cost << "\n";
      });
    } catch (const ServeError& e) {
      // A refused connection is the classic daemon-still-booting race;
      // retry it. Anything else on an open connection is not retried —
      // the job may already be running under our id.
      if (e.code() == ServeErrc::kIo && attempt < max_retries) {
        const std::uint32_t wait = backoff_ms(attempt, 0);
        std::cerr << "twcli: " << e.what() << "; retrying in " << wait
                  << "ms (" << (max_retries - attempt) << " left)\n";
        sleep_ms(wait);
        continue;
      }
      throw;
    }
    if (out.rejected) {
      if (out.rejected->code == RejectCode::kOverloaded &&
          attempt < max_retries) {
        const std::uint32_t wait =
            backoff_ms(attempt, out.rejected->retry_after_ms);
        std::cerr << "twcli: overloaded (" << out.rejected->detail
                  << "); retrying in " << wait << "ms ("
                  << (max_retries - attempt) << " left)\n";
        sleep_ms(wait);
        continue;
      }
      std::cerr << "rejected code=" << to_string(out.rejected->code)
                << " detail=" << out.rejected->detail << "\n";
      return 3;
    }
    std::cout << "accepted job=" << out.ack.job
              << " disposition=" << to_string(out.ack.disposition) << "\n";
    if (!out.result) {
      std::cerr << "twcli: connection ended without a result\n";
      return 4;
    }
    const ResultEvent& r = *out.result;
    std::cout << "result job=" << r.job << " status=" << to_string(r.status)
              << " cached=" << (r.cached ? 1 : 0)
              << " fingerprint=" << hex64(r.fingerprint)
              << " teil=" << r.final_teil << " area=" << r.final_chip_area
              << " replicas=" << r.replicas_succeeded << "/"
              << r.replicas_total << " attempts=" << r.attempts << "\n";
    if (r.status == JobStatus::kFailed) {
      std::cerr << "failed: " << r.detail << "\n";
      return 1;
    }
    return 0;
  }
}

/// Connects, retrying refused connections with the same deterministic
/// backoff the submit path uses.
Client connect_with_retry(const std::string& socket_path, int max_retries) {
  for (int attempt = 0;; ++attempt) {
    try {
      return Client(socket_path);
    } catch (const ServeError& e) {
      if (e.code() != ServeErrc::kIo || attempt >= max_retries) throw;
      const std::uint32_t wait = backoff_ms(attempt, 0);
      std::cerr << "twcli: " << e.what() << "; retrying in " << wait
                << "ms (" << (max_retries - attempt) << " left)\n";
      sleep_ms(wait);
    }
  }
}

int run_stats(Client& client) {
  const StatsReply s = client.stats();
  std::cout << "stats in_flight=" << s.jobs_in_flight
            << " queued=" << s.queued[0] << "/" << s.queued[1] << "/"
            << s.queued[2]
            << " running=" << s.running[0] << "/" << s.running[1] << "/"
            << s.running[2]
            << " shed=" << s.shed << " preempted=" << s.preempted
            << " resumed=" << s.resumed << " recovered=" << s.recovered
            << " cache_evictions=" << s.cache_evictions
            << " progress_dropped=" << s.progress_dropped
            << " reaped=" << s.reaped
            << " journal_bytes=" << s.journal_bytes
            << " journal_records=" << s.journal_records
            << " cache_bytes=" << s.cache_bytes
            << " cache_budget=" << s.cache_budget_bytes
            << " cache_off=" << (s.cache_off ? 1 : 0)
            << " journal_degraded=" << (s.journal_degraded ? 1 : 0)
            << " checkpoint_off_jobs=" << s.checkpoint_off_jobs << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string command;
  std::vector<std::string> rest;
  int max_retries = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (a == "--no-retry" && command.empty()) {
      max_retries = 0;
    } else if (a == "--retries" && command.empty() && i + 1 < argc) {
      max_retries = std::stoi(argv[++i]);
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (command.empty()) {
      command = a;
    } else {
      rest.push_back(a);
    }
  }
  if (socket_path.empty() || command.empty()) {
    usage();
    return 2;
  }

  try {
    if (command == "submit") return run_submit(socket_path, rest, max_retries);
    Client client = connect_with_retry(socket_path, max_retries);
    if (command == "stats") return run_stats(client);
    if (command == "ping") {
      if (!client.ping()) return 4;
      std::cout << "pong\n";
      return 0;
    }
    if (command == "shutdown") {
      client.shutdown_server();
      std::cout << "shutdown acknowledged\n";
      return 0;
    }
    if (command == "query" || command == "cancel") {
      if (rest.empty()) {
        std::cerr << "twcli: " << command << " needs a job id\n";
        return 2;
      }
      const std::uint64_t job = std::stoull(rest[0]);
      client.send(command == "query" ? Message(QueryRequest{job})
                                     : Message(CancelRequest{job}));
      const Message m = client.recv();
      if (const auto* st = std::get_if<StatusReply>(&m)) {
        std::cout << "status job=" << st->job
                  << " state=" << to_string(st->state) << "\n";
        return 0;
      }
      if (const auto* rej = std::get_if<RejectReply>(&m)) {
        std::cerr << "rejected code=" << to_string(rej->code)
                  << " detail=" << rej->detail << "\n";
        return 3;
      }
      std::cerr << "twcli: unexpected reply\n";
      return 4;
    }
    std::cerr << "twcli: unknown command " << command << "\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "twcli: " << e.what() << "\n";
    return 4;
  }
}
