// Section 4.2.2 — Net-ordering independence of the interchange router.
//
// The classical sequential router's result depends on the order nets are
// routed in; TimberWolfMC's two-phase router (enumerate M alternatives,
// then random interchange under the capacity constraints) avoids the
// problem. This bench routes a placed circuit's nets sequentially under
// many shuffled orders and compares the spread (and the best/worst) with
// the interchange router's single, order-free result.
#include "channel/channel_graph.hpp"
#include "place/legalize.hpp"
#include "place/stage1.hpp"
#include "route/interchange.hpp"
#include "route/sequential.hpp"
#include "bench_common.hpp"

#include <numeric>

int main(int argc, char** argv) {
  using namespace tw;
  using namespace tw::bench;
  const Config cfg = parse_args(argc, argv);
  const int orders = cfg.trials > 0 ? cfg.trials : 12;

  std::printf(
      "Section 4.2.2: routing-order dependence — sequential router under "
      "shuffled net orders vs the interchange router\n\n");

  // A placed medium circuit provides the routing instance.
  const Netlist nl = generate_circuit(medium_circuit(41));
  Stage1Params params;
  params.attempts_per_cell = cfg.ac;
  Stage1Placer placer(nl, params, cfg.seed + 41);
  Placement placement(nl);
  const Stage1Result s1 = placer.run(placement);
  legalize_spread(placement, s1.core, 2 * nl.tech().track_separation);
  const ChannelGraph cg = build_channel_graph(placement, s1.core);
  const auto targets = build_net_targets(nl, cg);

  RunningStats seq_len, seq_overflow;
  Rng rng(cfg.seed + 4242);
  std::vector<int> order(targets.size());
  std::iota(order.begin(), order.end(), 0);
  Table table({"Order #", "Sequential length", "Sequential overflow"});
  for (int o = 0; o < orders; ++o) {
    if (o > 0) rng.shuffle(order);
    const SequentialResult r = route_sequential(cg.graph, targets, order);
    seq_len.add(r.total_length);
    seq_overflow.add(r.total_overflow);
    table.add_row({Table::integer(o + 1), Table::num(r.total_length, 0),
                   Table::integer(r.total_overflow)});
  }
  table.print();

  GlobalRouter router(cg.graph, {{cfg.m}, cfg.seed + 777});
  const GlobalRouteResult inter = router.route(targets);

  std::printf(
      "\nSequential over %d orders: length %0.0f .. %0.0f (mean %0.0f, "
      "stddev %0.0f), overflow %0.0f .. %0.0f (mean %0.1f)\n",
      orders, seq_len.min(), seq_len.max(), seq_len.mean(), seq_len.stddev(),
      seq_overflow.min(), seq_overflow.max(), seq_overflow.mean());
  std::printf(
      "Interchange router (order-free): length %0.0f, overflow %d, "
      "%lld interchange attempts\n",
      inter.total_length, inter.total_overflow,
      static_cast<long long>(inter.interchange_attempts));
  std::printf(
      "\nShape check: sequential results scatter with the order; the "
      "interchange router needs no order and its overflow should match or "
      "beat the best sequential order.\n");
  return 0;
}
