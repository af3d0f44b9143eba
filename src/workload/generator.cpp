#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "util/rng.hpp"

namespace tw {
namespace {

struct CellPlan {
  CellId id = kInvalidCell;
  bool custom = false;
  bool multi_instance = false;  ///< has a transposed second instance
  double cluster_x = 0.0;  ///< latent position driving net locality
  double cluster_y = 0.0;
  std::vector<GroupId> groups;     ///< open pin groups (custom cells)
  int pins_added = 0;
};

Coord draw_dim(Rng& rng, const CircuitSpec& spec) {
  const double mu = std::log(spec.mean_cell_dim);
  const double d = rng.lognormal(mu, spec.dim_sigma);
  return std::max<Coord>(6, static_cast<Coord>(std::llround(d)));
}

/// An L-shaped outline inside a w x h bounding box (a quadrant removed).
std::vector<Point> l_shape(Rng& rng, Coord w, Coord h) {
  const Coord cw = std::max<Coord>(2, w * static_cast<Coord>(rng.uniform_int(30, 60)) / 100);
  const Coord ch = std::max<Coord>(2, h * static_cast<Coord>(rng.uniform_int(30, 60)) / 100);
  // Remove the upper-right quadrant of size cw x ch.
  return {{0, 0}, {w, 0}, {w, h - ch}, {w - cw, h - ch}, {w - cw, h}, {0, h}};
}

/// Random point on a random exposed edge of the tiles, weighted by length.
Point random_boundary_point(Rng& rng, const std::vector<Rect>& tiles) {
  const auto edges = exposed_edges(tiles);
  Coord total = 0;
  for (const auto& e : edges) total += e.length();
  Coord pick = rng.uniform_int(0, std::max<Coord>(0, total - 1));
  for (const auto& e : edges) {
    if (pick >= e.length()) {
      pick -= e.length();
      continue;
    }
    const Coord along = e.span.lo + pick;
    return is_vertical(e.side) ? Point{e.pos, along} : Point{along, e.pos};
  }
  const auto& e = edges.back();
  return is_vertical(e.side) ? Point{e.pos, e.span.lo} : Point{e.span.lo, e.pos};
}

}  // namespace

Netlist generate_circuit(const CircuitSpec& spec) {
  if (spec.num_cells < 2)
    throw std::invalid_argument("generate_circuit: need >= 2 cells");
  const int equiv_extra = static_cast<int>(
      std::lround(spec.equiv_fraction * spec.num_pins));
  const int net_pins = spec.num_pins - equiv_extra;
  if (net_pins < 2 * spec.num_nets)
    throw std::invalid_argument(
        "generate_circuit: pin budget below 2 pins per net");

  Rng rng(spec.seed);
  Netlist nl;
  nl.tech().track_separation = 1;

  // --- cells -----------------------------------------------------------------
  std::vector<CellPlan> plans(static_cast<std::size_t>(spec.num_cells));
  for (int c = 0; c < spec.num_cells; ++c) {
    CellPlan& plan = plans[static_cast<std::size_t>(c)];
    plan.custom = rng.bernoulli(spec.custom_fraction);
    plan.cluster_x = rng.uniform01();
    plan.cluster_y = rng.uniform01();
    const std::string name = spec.name + "_c" + std::to_string(c);
    const Coord w = draw_dim(rng, spec);
    const Coord h = draw_dim(rng, spec);
    if (plan.custom) {
      const double lo = rng.uniform_real(0.4, 0.9);
      const double hi = rng.uniform_real(1.1, 2.5);
      plan.id = nl.add_custom(name, w * h, lo, hi, 8);
    } else if (rng.bernoulli(spec.rectilinear_fraction) && w >= 8 && h >= 8) {
      plan.id = nl.add_macro_polygon(name, l_shape(rng, w, h));
    } else {
      plan.id = nl.add_macro(name, {Rect{0, 0, w, h}});
      if (rng.bernoulli(spec.multi_instance_fraction)) {
        // Alternative transposed layout, pins mapped as they are added.
        nl.add_instance(plan.id, {Rect{0, 0, h, w}}, {});
        plan.multi_instance = true;
      }
    }
  }

  // --- net degrees: everyone gets 2, the remainder goes long-tail -------------
  std::vector<int> degree(static_cast<std::size_t>(spec.num_nets), 2);
  {
    int remaining = net_pins - 2 * spec.num_nets;
    // Hub nets first: each takes its fanout off the top of the extra-pin
    // pool (so the requested total pin count still holds exactly), the
    // long tail below shares what is left.
    const int hubs = std::min(spec.hub_nets, spec.num_nets);
    for (int h = 0; h < hubs && remaining > 0; ++h) {
      const int want = std::max(
          0, static_cast<int>(spec.hub_fanout *
                              static_cast<double>(spec.num_cells)) - 2);
      const int take = std::min(want, remaining);
      degree[static_cast<std::size_t>(h)] += take;
      remaining -= take;
    }
    // 10 percent of nets are "fat" and soak up most of the extra pins, so
    // the majority of nets keep the realistic 2-3 pin degrees.
    const int fat = std::max(1, spec.num_nets / 10);
    while (remaining > 0) {
      const bool to_fat = rng.bernoulli(0.7);
      const int idx = static_cast<int>(
          to_fat ? rng.uniform_int(0, fat - 1)
                 : rng.uniform_int(0, spec.num_nets - 1));
      ++degree[static_cast<std::size_t>(idx)];
      --remaining;
    }
  }

  // --- nets & pins with cluster locality --------------------------------------
  auto add_pin_to_cell = [&](CellPlan& plan, NetId net) -> PinId {
    const Cell& cell = nl.cell(plan.id);
    std::string pname = "p";
    pname += std::to_string(plan.pins_added++);
    if (!plan.custom) {
      const Point at =
          random_boundary_point(rng, cell.instances.front().tiles);
      if (plan.multi_instance) {
        // Transposed instance gets the transposed offset (still on the
        // boundary of the swapped rectangle).
        return nl.add_fixed_pin(plan.id, pname, net,
                                std::vector<Point>{at, Point{at.y, at.x}});
      }
      return nl.add_fixed_pin(plan.id, pname, net, at);
    }
    // Custom cell: grouped or loose uncommitted pin.
    if (rng.bernoulli(spec.group_fraction)) {
      if (plan.groups.size() < 2 && rng.bernoulli(0.5)) {
        static const std::uint8_t masks[] = {
            kSideLeft | kSideRight, kSideBottom | kSideTop, kSideAny};
        const std::uint8_t mask =
            masks[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        std::string gname = "g";
        gname += std::to_string(plan.groups.size());
        plan.groups.push_back(
            nl.add_group(plan.id, gname, mask, rng.bernoulli(0.5)));
      }
      if (!plan.groups.empty()) {
        const GroupId g = plan.groups[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(plan.groups.size()) - 1))];
        return nl.add_group_pin(plan.id, g, pname, net);
      }
    }
    static const std::uint8_t pin_masks[] = {kSideLeft, kSideRight,
                                             kSideBottom, kSideTop, kSideAny};
    const std::uint8_t mask =
        pin_masks[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    return nl.add_edge_pin(plan.id, pname, net, mask);
  };

  // For equivalence partners we remember one (cell, pin) per net.
  std::vector<std::pair<CellId, PinId>> net_anchor(
      static_cast<std::size_t>(spec.num_nets), {kInvalidCell, -1});

  for (int n = 0; n < spec.num_nets; ++n) {
    const NetId net = nl.add_net(spec.name + "_n" + std::to_string(n));
    // Seed cell, then degree-1 partners biased toward the seed's cluster
    // neighborhood.
    const auto seed_idx = static_cast<std::size_t>(
        rng.uniform_int(0, spec.num_cells - 1));
    CellPlan& seed_plan = plans[seed_idx];
    net_anchor[static_cast<std::size_t>(n)] = {
        seed_plan.id, add_pin_to_cell(seed_plan, net)};

    std::vector<char> used(plans.size(), 0);
    used[seed_idx] = 1;
    int placed = 1;
    int guard = 0;
    while (placed < degree[static_cast<std::size_t>(n)]) {
      const auto cand = static_cast<std::size_t>(
          rng.uniform_int(0, spec.num_cells - 1));
      // Locality: accept with probability falling off with cluster distance.
      const double dx = plans[cand].cluster_x - seed_plan.cluster_x;
      const double dy = plans[cand].cluster_y - seed_plan.cluster_y;
      const double dist = std::sqrt(dx * dx + dy * dy);
      const bool accept = rng.bernoulli(std::exp(-dist / spec.locality));
      // Nets wider than the cell count must reuse cells; otherwise prefer
      // distinct cells for the first pass.
      const bool reuse_ok =
          degree[static_cast<std::size_t>(n)] > spec.num_cells || guard > 200;
      if ((accept || guard > 400) && (reuse_ok || !used[cand])) {
        used[cand] = 1;
        add_pin_to_cell(plans[cand], net);
        ++placed;
      }
      ++guard;
    }
  }

  // --- electrically-equivalent partners ---------------------------------------
  // Twin pins are added on macro-cell net anchors (feed-through style). If
  // the circuit happens to have no macro anchors, the budget is spent on
  // ordinary extra pins so the total pin count still matches the spec.
  std::vector<std::size_t> macro_anchors;
  for (std::size_t n = 0; n < net_anchor.size(); ++n)
    if (net_anchor[n].first != kInvalidCell &&
        !nl.cell(net_anchor[n].first).is_custom())
      macro_anchors.push_back(n);
  for (int e = 0; e < equiv_extra; ++e) {
    if (!macro_anchors.empty()) {
      const std::size_t n = macro_anchors[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(macro_anchors.size()) - 1))];
      const auto [cell, pin] = net_anchor[n];
      CellPlan& plan = plans[static_cast<std::size_t>(cell)];
      const PinId twin =
          add_pin_to_cell(plan, static_cast<NetId>(nl.pin(pin).net));
      nl.set_equivalent(pin, twin);
    } else {
      const auto n = static_cast<std::size_t>(
          rng.uniform_int(0, spec.num_nets - 1));
      const auto cand = static_cast<std::size_t>(
          rng.uniform_int(0, spec.num_cells - 1));
      add_pin_to_cell(plans[cand], static_cast<NetId>(n));
    }
  }

  nl.validate();
  return nl;
}

CircuitSpec soc_circuit(SocTier tier, std::uint64_t seed) {
  int cells = 0;
  const char* name = "";
  switch (tier) {
    case SocTier::k1k: cells = 1000; name = "soc-1k"; break;
    case SocTier::k4k: cells = 4000; name = "soc-4k"; break;
    case SocTier::k10k: cells = 10000; name = "soc-10k"; break;
  }
  CircuitSpec spec;
  spec.name = name;
  spec.num_cells = cells;
  spec.num_nets = cells * 7 / 2;
  spec.num_pins = cells * 14;
  // Soft custom cells carry pin sites and per-move site bookkeeping the
  // macro-level SoC abstraction doesn't need; keep the tiers macro-only so
  // the 10k tier stays placeable in CI time.
  spec.custom_fraction = 0.0;
  spec.group_fraction = 0.0;
  // Two chip-spanning hub nets (a clock and a reset): every real SoC has
  // them, and they are the reason the clustering layer caps aggregated
  // coarse-net degree (uncapped, each would become one coarse net touching
  // most clusters and turn every coarse move into a full-net rescan).
  spec.hub_nets = 2;
  spec.seed = seed;
  return spec;
}

}  // namespace tw
