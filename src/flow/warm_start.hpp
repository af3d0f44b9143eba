// Warm-start sources for the refinement anneal (DESIGN.md "Multilevel
// placement"). A WarmStart fills a flat placement with an initial
// configuration worth refining; MultilevelFlow then runs a stage-1 anneal
// from it at a reduced starting temperature
// (Stage1Params::warm_start_t_factor).
//
// Two sources share the interface:
//   * ClusterWarmStart   — the multilevel path: cluster the netlist, run
//     stage 1 on the coarse netlist, project cluster placements onto the
//     member cells (the uncluster step), legalize;
//   * QuadraticWarmStart — the resistive-network baseline
//     (src/baseline/quadratic): analytic minimizer + row legalization.
//
// Every source is a deterministic function of (netlist, params, seed);
// MultilevelFlow threads its master seed through derive_seed so a flow
// run stays byte-identical for a given seed.
#pragma once

#include <cstdint>

#include "baseline/quadratic.hpp"
#include "cluster/cluster.hpp"
#include "place/stage1.hpp"

namespace tw {

/// What a warm start produced (reported through MultilevelResult, and
/// carried in multilevel checkpoints so a resumed flow reports the same
/// numbers as an uninterrupted one).
struct WarmStartInfo {
  double teil = 0.0;     ///< TEIL of the prepared flat placement
  int clusters = 0;      ///< coarse cells (cluster source; 0 otherwise)
  int dropped_nets = 0;  ///< intra-cluster nets (cluster source; 0 otherwise)
  Stage1Result coarse;   ///< the coarse-level anneal (cluster source only)
};

class WarmStart {
 public:
  virtual ~WarmStart() = default;

  virtual const char* name() const = 0;

  /// Overwrites `placement` (every cell) with an initial configuration
  /// aimed at `core`. Deterministic in `seed`. `budget`, when non-null,
  /// bounds any annealing work the source performs (the cluster source's
  /// coarse anneal charges moves and steps against it and winds down
  /// gracefully on expiry).
  virtual WarmStartInfo prepare(Placement& placement, const Rect& core,
                                std::uint64_t seed,
                                recover::RunBudget* budget) = 0;
};

/// The quadratic (resistive-network) baseline as a warm start.
class QuadraticWarmStart final : public WarmStart {
 public:
  explicit QuadraticWarmStart(QuadraticParams params = {})
      : params_(params) {}

  const char* name() const override { return "quadratic"; }
  WarmStartInfo prepare(Placement& placement, const Rect& core,
                        std::uint64_t seed,
                        recover::RunBudget* budget) override;

 private:
  QuadraticParams params_;
};

/// Aggregated-degree cap the cluster warm start applies when the caller
/// leaves ClusterParams::max_aggregated_degree at its library default of
/// 0 (see that field's comment for why hub nets need one at SoC scale).
/// Pass a negative value to run genuinely uncapped.
inline constexpr int kDefaultAggregatedDegreeCap = 32;

/// The multilevel path: cluster, anneal the coarse netlist, uncluster.
class ClusterWarmStart final : public WarmStart {
 public:
  /// `coarse_stage1` parameterizes the cluster-level anneal (its
  /// warm_start_t_factor is forced back to the cold-start 1.0: the coarse
  /// placement has no meaningful initial state; a zero
  /// max_aggregated_degree in `cluster` is promoted to
  /// kDefaultAggregatedDegreeCap, negative disables the cap).
  ClusterWarmStart(ClusterParams cluster, Stage1Params coarse_stage1)
      : cluster_(cluster), coarse_stage1_(coarse_stage1) {}

  const char* name() const override { return "cluster"; }
  WarmStartInfo prepare(Placement& placement, const Rect& core,
                        std::uint64_t seed,
                        recover::RunBudget* budget) override;

 private:
  ClusterParams cluster_;
  Stage1Params coarse_stage1_;
};

}  // namespace tw
