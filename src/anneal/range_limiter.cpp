#include "anneal/range_limiter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tw {

RangeLimiter::RangeLimiter(Coord wx_inf, Coord wy_inf, double t_inf,
                           double rho)
    : wx_inf_(wx_inf), wy_inf_(wy_inf), rho_(rho) {
  if (wx_inf < kMinSpan || wy_inf < kMinSpan)
    throw std::invalid_argument("RangeLimiter: initial window below minimum");
  if (t_inf <= 0.0) throw std::invalid_argument("RangeLimiter: t_inf <= 0");
  if (rho < 1.0 || rho > 10.0)
    throw std::invalid_argument("RangeLimiter: rho out of [1,10]");
  lambda_ = std::pow(rho_, std::log10(t_inf));
}

double RangeLimiter::raw_span(Coord w_inf, double t) const {
  if (t <= 0.0) return 0.0;
  // rho = 1 degenerates to a constant window (lambda = 1 as well).
  const double factor = std::pow(rho_, std::log10(t)) / lambda_;
  return static_cast<double>(w_inf) * factor;
}

Coord RangeLimiter::window_x(double t) const {
  const Coord w = static_cast<Coord>(std::llround(raw_span(wx_inf_, t)));
  return std::clamp(w, kMinSpan, wx_inf_);
}

Coord RangeLimiter::window_y(double t) const {
  const Coord w = static_cast<Coord>(std::llround(raw_span(wy_inf_, t)));
  return std::clamp(w, kMinSpan, wy_inf_);
}

bool RangeLimiter::at_minimum(double t) const {
  // With rho = 1 the window never shrinks; report minimum when the raw
  // span has reached (or numerically crossed) the clamp on both axes.
  return window_x(t) <= kMinSpan && window_y(t) <= kMinSpan;
}

Rect RangeLimiter::window(Point center, double t) const {
  const Coord hx = window_x(t) / 2;
  const Coord hy = window_y(t) / 2;
  return {center.x - hx, center.y - hy, center.x + hx, center.y + hy};
}

}  // namespace tw
