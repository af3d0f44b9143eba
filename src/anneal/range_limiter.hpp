// The range limiter (Section 3.2.2).
//
// At low temperatures only short moves have a reasonable acceptance
// probability, so the window from which displacement targets are drawn
// shrinks with log10(T) (Eqns 12-14):
//
//     W_x(T) = W_x_inf * rho^log10(T) / lambda,   lambda = rho^log10(T_inf)
//
// rho = 4 gave both the lowest final TEIL and the lowest residual cell
// overlap in the paper's sweep (1 <= rho <= 10); the sweep itself is
// reproduced by bench_rho. Stage 1 ends when the window has contracted to
// its minimum span, kMinSpan.
#pragma once

#include "geom/rect.hpp"

namespace tw {

class RangeLimiter {
public:
  /// The smallest window span, in grid units: at 6 the D_s point set of
  /// Eqn 16 (s = W/6, multipliers up to 3) steps by one unit.
  static constexpr Coord kMinSpan = 6;

  /// `wx_inf`, `wy_inf`: window spans at T = T_inf (normally the full core
  /// span, so initial moves can cross the whole chip).
  RangeLimiter(Coord wx_inf, Coord wy_inf, double t_inf, double rho = 4.0);

  /// Window span in x at temperature `t`, clamped to [kMinSpan, wx_inf].
  Coord window_x(double t) const;
  Coord window_y(double t) const;

  /// True once both spans have contracted to the minimum — the stage-1
  /// stopping criterion.
  bool at_minimum(double t) const;

  /// The window rectangle centered on `center` at temperature `t`.
  Rect window(Point center, double t) const;

private:
  double raw_span(Coord w_inf, double t) const;

  Coord wx_inf_;
  Coord wy_inf_;
  double rho_;
  double lambda_;  ///< rho^log10(T_inf), Eqn 14
};

}  // namespace tw
