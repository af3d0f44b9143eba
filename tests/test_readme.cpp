// Documentation-rot protection: the README's quickstart snippet, compiled
// and executed verbatim (modulo the trailing comment), plus API spot
// checks for every identifier the README mentions.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "fingerprint.hpp"
#include "pool/report.hpp"
#include "flow/multilevel.hpp"
#include "flow/timberwolf.hpp"
#include "workload/generator.hpp"
#include "netlist/parser.hpp"
#include "netlist/yal.hpp"
#include "pool/pool.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "workload/paper_circuits.hpp"

namespace {

TEST(Readme, QuickstartSnippetCompilesAndRuns) {
  tw::Netlist nl;                                   // or parse_netlist_file()
  tw::NetId n   = nl.add_net("clk");
  tw::CellId a  = nl.add_macro("ram", {tw::Rect{0, 0, 80, 60}});
  nl.add_fixed_pin(a, "ck", n, tw::Point{40, 0});
  tw::CellId b  = nl.add_custom("ctl", /*area=*/2000, /*aspect*/ 0.5, 2.0);
  nl.add_edge_pin(b, "ck", n);                      // uncommitted pin
  nl.validate();

  tw::TimberWolfMC flow(nl, {});                    // default parameters
  tw::Placement placement(nl);
  tw::FlowResult r = flow.run(placement);

  EXPECT_GT(r.final_teil, 0.0);
  EXPECT_GT(r.final_chip_area, 0);
  EXPECT_NE(placement.state(a).center, placement.state(b).center);
}

TEST(Readme, MultilevelSnippetCompilesAndRuns) {
  // The README's SoC-scale example, verbatim except the budget and the
  // anneal length, tightened so the test stays inside unit-test time.
  tw::Netlist nl = tw::generate_circuit(tw::soc_circuit(tw::SocTier::k1k));

  tw::recover::RunBudget budget(60'000, tw::recover::RunBudget::kUnlimited);
  tw::Stage1Params fast;
  fast.attempts_per_cell = 6;
  fast.p2_samples = 6;
  tw::ClusterWarmStart warm({}, fast);   // cluster -> coarse anneal -> project
  tw::MultilevelParams mp;
  mp.refine = fast;
  mp.seed = 42;
  mp.recover.budget = &budget;           // shared: coarse anneal + refinement

  tw::MultilevelFlow flow(nl, warm, mp);
  tw::Placement placement(nl);
  tw::MultilevelResult r = flow.run(placement);

  EXPECT_EQ(r.warm_source, "cluster");
  EXPECT_GT(r.warm.clusters, 0);
  EXPECT_GT(r.final_teil, 0.0);
  EXPECT_EQ(r.outcome, tw::recover::RunOutcome::kBudgetExhausted);
}

TEST(Readme, PoolSnippetEntryPointsExist) {
  // The README's multi-start example names paper_circuit("i3") — keep the
  // identifiers honest, but run the pool itself on a circuit sized for a
  // unit test.
  const tw::Netlist i3 = tw::generate_circuit(tw::paper_circuit("i3").spec);
  EXPECT_GT(i3.num_cells(), 0u);

  const tw::Netlist nl = tw::generate_circuit(tw::tiny_circuit(7));
  tw::pool::PoolParams pp;
  pp.replicas = 2;
  pp.master_seed = 42;
  pp.base = tw::testing::fast_flow(0);
  pp.watchdog.initial_moves = 50'000'000;

  tw::Placement best(nl);
  tw::pool::PoolResult pr = tw::pool::ReplicaPool(nl, pp).run(best);
  EXPECT_EQ(pr.stats.succeeded, 2);
  EXPECT_NE(tw::pool_report(pr).find("Replica pool report"),
            std::string::npos);
}

TEST(Readme, PlacementServiceQuickStartFlowWorks) {
  // The README's twserved/twcli walkthrough, in-process: a daemon on a
  // Unix socket, a YAL submission with the --fast knobs, a duplicate
  // served from cache, then shutdown. (The binaries are thin flag
  // parsers over exactly these entry points.)
  namespace serve = tw::serve;
  const std::string socket_path = ::testing::TempDir() + "/tw_readme.sock";
  const std::string state_dir = ::testing::TempDir() + "/tw_readme_state";
  std::filesystem::remove(socket_path);
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);

  serve::DaemonConfig cfg;
  cfg.socket_path = socket_path;
  cfg.scheduler.state_dir = state_dir;
  cfg.scheduler.threads = 2;
  serve::Daemon daemon(std::move(cfg));
  std::thread server([&daemon] { daemon.run(); });

  {
    serve::Client client(socket_path);
    EXPECT_TRUE(client.ping());

    serve::SubmitRequest req;
    req.netlist_yal = tw::write_yal(tw::generate_circuit(tw::tiny_circuit(9)));
    req.params.replicas = 2;
    req.params.s1_attempts_per_cell = 12;   // twcli --fast
    req.params.s1_p2_samples = 6;
    req.params.s2_attempts_per_cell = 8;
    req.params.steiner_m = 4;

    const serve::Client::SubmitOutcome first =
        client.submit_and_wait(req, nullptr);
    ASSERT_FALSE(first.rejected.has_value());
    EXPECT_EQ(first.ack.disposition, serve::Disposition::kFresh);
    ASSERT_TRUE(first.result.has_value());
    EXPECT_EQ(first.result->status, serve::JobStatus::kCompleted);
    EXPECT_FALSE(first.result->cached);

    // "dedups identical submissions against an on-disk result cache"
    const serve::Client::SubmitOutcome dup =
        client.submit_and_wait(req, nullptr);
    ASSERT_TRUE(dup.result.has_value());
    EXPECT_TRUE(dup.result->cached);
    EXPECT_EQ(dup.result->fingerprint, first.result->fingerprint);

    // "A `stats` request snapshots the daemon's health" — the fields the
    // README's example output names must exist and be plausible here.
    const serve::StatsReply stats = client.stats();
    EXPECT_EQ(stats.jobs_in_flight, 0);
    EXPECT_EQ(stats.journal_bytes, 0u);  // an idle daemon holds no record
    EXPECT_EQ(stats.journal_records, 0);
    EXPECT_GT(stats.cache_bytes, 0u);
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.preempted, 0);

    // "--priority batch|normal|urgent" and the typed overloaded shed the
    // README describes are wire-level identifiers; keep them honest.
    static_assert(serve::kNumPriorityClasses == 3);
    EXPECT_STREQ(serve::to_string(serve::JobPriority::kUrgent), "urgent");
    EXPECT_STREQ(serve::to_string(serve::RejectCode::kOverloaded),
                 "overloaded");

    client.shutdown_server();
  }
  server.join();
}

TEST(Readme, MentionedEntryPointsExist) {
  // parse_netlist_file / parse_yal_file exist and reject missing files.
  EXPECT_THROW(tw::parse_netlist_file("/nonexistent.nl"), std::runtime_error);
  EXPECT_THROW(tw::parse_yal_file("/nonexistent.yal"), std::runtime_error);
}

}  // namespace
