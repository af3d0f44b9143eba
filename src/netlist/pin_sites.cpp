#include "netlist/pin_sites.hpp"

#include <algorithm>
#include <stdexcept>

namespace tw {

std::vector<PinSite> make_pin_sites(const CellInstance& inst,
                                    int sites_per_edge, Coord pitch) {
  if (sites_per_edge < 1)
    throw std::invalid_argument("make_pin_sites: sites_per_edge < 1");
  if (pitch < 1) throw std::invalid_argument("make_pin_sites: pitch < 1");

  const Coord w = inst.width;
  const Coord h = inst.height;
  std::vector<PinSite> sites;
  sites.reserve(static_cast<std::size_t>(sites_per_edge) * 4);

  auto emit_edge = [&](Side side, Coord edge_len) {
    const int cap = std::max<int>(
        1, static_cast<int>(edge_len / sites_per_edge / pitch));
    for (int k = 0; k < sites_per_edge; ++k) {
      // Center of the k-th of sites_per_edge equal subdivisions.
      const Coord along = edge_len * (2 * k + 1) / (2 * sites_per_edge);
      Point p;
      switch (side) {
        case Side::kLeft: p = {0, along}; break;
        case Side::kRight: p = {w, along}; break;
        case Side::kBottom: p = {along, 0}; break;
        case Side::kTop: p = {along, h}; break;
      }
      sites.push_back({side, p, cap});
    }
  };

  emit_edge(Side::kLeft, h);
  emit_edge(Side::kRight, h);
  emit_edge(Side::kBottom, w);
  emit_edge(Side::kTop, w);
  return sites;
}

int site_index_of(Side side, int k, int sites_per_edge) {
  return side_index(side) * sites_per_edge + k;
}

std::vector<int> sites_in_mask(std::uint8_t mask, int sites_per_edge) {
  std::vector<int> out;
  for (Side s : sides_in_mask(mask))
    for (int k = 0; k < sites_per_edge; ++k)
      out.push_back(site_index_of(s, k, sites_per_edge));
  return out;
}

int num_sites_in_mask(std::uint8_t mask, int sites_per_edge) {
  int sides = 0;
  for (Side s : {Side::kLeft, Side::kRight, Side::kBottom, Side::kTop})
    if (mask & side_to_mask(s)) ++sides;
  return sides * sites_per_edge;
}

int nth_site_in_mask(std::uint8_t mask, int idx, int sites_per_edge) {
  int want = idx / sites_per_edge;
  const int k = idx % sites_per_edge;
  for (Side s : {Side::kLeft, Side::kRight, Side::kBottom, Side::kTop}) {
    if (!(mask & side_to_mask(s))) continue;
    if (want-- == 0) return site_index_of(s, k, sites_per_edge);
  }
  throw std::out_of_range("nth_site_in_mask: idx beyond mask");
}

}  // namespace tw
