// Tests for the left-edge channel router and the Eqn 22 validation
// (t <= d + 1 track need per channel).
#include <gtest/gtest.h>

#include "channel/channel_graph.hpp"
#include "place/legalize.hpp"
#include "place/stage1.hpp"
#include "route/channel_router.hpp"
#include "route/interchange.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

std::vector<ChannelSegment> segs(
    std::initializer_list<std::pair<int, Span>> list) {
  std::vector<ChannelSegment> out;
  for (const auto& [net, span] : list) out.push_back({net, span});
  return out;
}

TEST(ChannelDensity, BasicCases) {
  EXPECT_EQ(channel_density({}), 0);
  EXPECT_EQ(channel_density(segs({{0, {0, 10}}})), 1);
  // Two disjoint nets: density 1.
  EXPECT_EQ(channel_density(segs({{0, {0, 5}}, {1, {6, 10}}})), 1);
  // Two overlapping nets: density 2.
  EXPECT_EQ(channel_density(segs({{0, {0, 6}}, {1, {4, 10}}})), 2);
  // Touching nets do not stack (the via sits between them).
  EXPECT_EQ(channel_density(segs({{0, {0, 5}}, {1, {5, 10}}})), 1);
}

TEST(ChannelDensity, SameNetCountsOnce) {
  EXPECT_EQ(channel_density(segs({{0, {0, 6}}, {0, {4, 10}}})), 1);
  EXPECT_EQ(channel_density(segs({{0, {0, 6}}, {0, {4, 10}}, {1, {2, 8}}})), 2);
}

TEST(ChannelDensity, ClassicStack) {
  // Three mutually overlapping nets.
  EXPECT_EQ(
      channel_density(segs({{0, {0, 10}}, {1, {2, 8}}, {2, {4, 6}}})), 3);
}

TEST(LeftEdge, UsesExactlyDensityTracks) {
  const auto cases = {
      segs({{0, {0, 10}}, {1, {2, 8}}, {2, {4, 6}}}),
      segs({{0, {0, 5}}, {1, {5, 10}}, {2, {0, 10}}}),
      segs({{0, {0, 3}}, {1, {2, 5}}, {2, {4, 7}}, {3, {6, 9}}}),
      segs({{0, {0, 2}}, {1, {3, 5}}, {2, {6, 8}}}),
  };
  for (const auto& c : cases) {
    const ChannelRouteResult r = route_channel(c);
    EXPECT_EQ(r.tracks_used, r.density);
  }
}

TEST(LeftEdge, AssignmentIsConflictFree) {
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<ChannelSegment> s;
    const int n = static_cast<int>(rng.uniform_int(2, 24));
    for (int i = 0; i < n; ++i) {
      const Coord lo = rng.uniform_int(0, 80);
      const Coord hi = lo + rng.uniform_int(1, 30);
      s.push_back({static_cast<std::int32_t>(rng.uniform_int(0, 9)), {lo, hi}});
    }
    const ChannelRouteResult r = route_channel(s);
    // No two distinct nets on one track with overlapping interiors.
    for (std::size_t a = 0; a < s.size(); ++a)
      for (std::size_t b = a + 1; b < s.size(); ++b) {
        if (r.track[a] != r.track[b]) continue;
        if (s[a].net == s[b].net) continue;
        EXPECT_EQ(s[a].extent.overlap(s[b].extent), 0)
            << "trial " << trial << ": nets " << s[a].net << "/" << s[b].net;
      }
    // Left-edge without vertical constraints is optimal.
    EXPECT_EQ(r.tracks_used, r.density) << "trial " << trial;
  }
}

TEST(LeftEdge, SameNetSharesTrack) {
  const auto s = segs({{0, {0, 6}}, {0, {4, 10}}});
  const ChannelRouteResult r = route_channel(s);
  EXPECT_EQ(r.track[0], r.track[1]);
  EXPECT_EQ(r.tracks_used, 1);
}

TEST(LeftEdge, EmptyChannel) {
  const ChannelRouteResult r = route_channel({});
  EXPECT_EQ(r.tracks_used, 0);
  EXPECT_EQ(r.density, 0);
  EXPECT_TRUE(r.track.empty());
}

TEST(Eqn22, RoutedChannelsFitWithinDPlusOneTracks) {
  // End to end: place, route, and verify every channel's track need is
  // within the d + 1 bound the Eqn 22 width rule assumes.
  const Netlist nl = generate_circuit(tiny_circuit(6));
  Stage1Params params;
  params.attempts_per_cell = 15;
  params.p2_samples = 8;
  Stage1Placer placer(nl, params, 21);
  Placement placement(nl);
  const Stage1Result s1 = placer.run(placement);
  legalize_spread(placement, s1.core, 2 * nl.tech().track_separation);
  const ChannelGraph cg = build_channel_graph(placement, s1.core);
  GlobalRouter router(cg.graph, {{4}, 3});
  const auto routed = router.route(build_net_targets(nl, cg));
  std::vector<std::vector<EdgeId>> route_edges(nl.num_nets());
  for (std::size_t n = 0; n < route_edges.size(); ++n)
    if (const Route* r = routed.route_of(n)) route_edges[n] = r->edges;
  EXPECT_EQ(validate_channel_widths(cg, route_edges), 0);
}

}  // namespace
}  // namespace tw
