// The four benchmark workloads (README.md beside the benchmark says why
// each was chosen). Each fills `rep` with every end-to-end metric, and in
// a traced run (opt.trace) also with the per-layer metrics it exercises.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_paper_flow(const Options& opt, Tracer& tr, Report& rep);
void run_soc_multilevel(const Options& opt, Tracer& tr, Report& rep);
void run_serve_mixed(const Options& opt, Tracer& tr, Report& rep);
void run_multistart(const Options& opt, Tracer& tr, Report& rep);

}  // namespace perfbench
