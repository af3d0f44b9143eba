// twbench: runs one benchmark workload in this process and prints its
// report as one JSON line. run.py builds it, runs each workload in its own
// process (so peak_rss_mb is that workload's own) and turns the report
// into the benchmark's result line.
//
//   twbench --workload paper_flow --seed 1 --seconds 10 --trace 0
//           --run-dir .bench_run/x [--trace-file trace.json]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "twbench: %s\nusage: twbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --run-dir DIR [--trace-file F]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--run-dir") opt.run_dir = v;
    else if (a == "--trace-file") opt.trace_file = v;
    else usage(("unknown option " + a).c_str());
  }
  const std::map<std::string, void (*)(const Options&, Tracer&, Report&)>
      workloads = {{"paper_flow", run_paper_flow},
                   {"soc_multilevel", run_soc_multilevel},
                   {"serve_mixed", run_serve_mixed},
                   {"multistart", run_multistart}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) usage("unknown workload");
  if (opt.run_dir.empty()) usage("--run-dir is required");
  std::filesystem::create_directories(opt.run_dir);
  tw::set_log_level(tw::LogLevel::kError);

  Report rep;
  rep.workload = opt.workload;
  rep.seed = opt.seed;
  Tracer tr(opt.trace);
  try {
    it->second(opt, tr, rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
  }
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  tr.write_chrome(opt.trace_file, opt.workload);
  print_report(rep);
  return rep.failures.empty() ? 0 : 1;
}
