#include "workload/known_optimum.hpp"

#include <string>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "util/rng.hpp"

namespace tw {

KnownOptimumCircuit known_optimum_circuit(const KnownOptimumSpec& spec) {
  TW_REQUIRE(spec.grid >= 2, "known-optimum grid must be >= 2, got ",
             spec.grid);
  TW_REQUIRE(spec.cell_size >= 2, "known-optimum cell size must be >= 2, got ",
             spec.cell_size);
  const int k = spec.grid;
  const Coord s = spec.cell_size;
  Rng rng(derive_seed(spec.seed, "known-optimum"));

  // Seeded Fisher-Yates over grid sites: creation order (= cell id order)
  // is a random permutation of the grid, so ids encode nothing about the
  // optimal layout.
  std::vector<int> order(static_cast<std::size_t>(k) *
                         static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

  KnownOptimumCircuit out;
  out.grid = k;
  out.cell_size = s;
  Netlist& nl = out.netlist;

  std::vector<CellId> cell_at(order.size());
  for (const int site : order) {
    const int gx = site % k;
    const int gy = site / k;
    const CellId c = nl.add_macro(
        "ko_" + std::to_string(gx) + "_" + std::to_string(gy),
        {Rect{0, 0, s, s}});
    cell_at[static_cast<std::size_t>(site)] = c;
  }

  // One 2-pin net per grid adjacency, pins at the cell centers. Net
  // creation order is randomized the same way.
  std::vector<std::pair<int, int>> adj;
  adj.reserve(2 * static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  for (int gy = 0; gy < k; ++gy)
    for (int gx = 0; gx < k; ++gx) {
      const int site = gy * k + gx;
      if (gx + 1 < k) adj.emplace_back(site, site + 1);
      if (gy + 1 < k) adj.emplace_back(site, site + k);
    }
  for (std::size_t i = adj.size(); i > 1; --i)
    std::swap(adj[i - 1],
              adj[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

  const Point center{s / 2, s / 2};
  for (const auto& [a, b] : adj) {
    std::string name = "n";
    name += std::to_string(a);
    name += '_';
    name += std::to_string(b);
    const NetId n = nl.add_net(name);
    nl.add_fixed_pin(cell_at[static_cast<std::size_t>(a)], "p", n, center);
    nl.add_fixed_pin(cell_at[static_cast<std::size_t>(b)], "p", n, center);
  }

  out.optimal_teil =
      static_cast<double>(adj.size()) * static_cast<double>(s);
  out.optimal_area = static_cast<Coord>(k) * s * static_cast<Coord>(k) * s;
  nl.validate();
  return out;
}

}  // namespace tw
