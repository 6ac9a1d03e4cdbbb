#include "service/arrival.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "support/parse.h"

namespace radiomc::service {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(msg);
}

void require_spec(bool ok, const std::string& msg) {
  if (!ok) fail(msg);
}

/// Batch sizes beyond this are astronomically unlikely at the per-phase
/// rates the protocol can absorb (P[X > 64] < 1e-50 for mean <= 8); the cap
/// keeps the inverse-CDF walk bounded without biasing any realistic draw.
constexpr std::uint32_t kPoissonCap = 64;

}  // namespace

const char* to_string(ArrivalKind k) noexcept {
  switch (k) {
    case ArrivalKind::kBernoulli: return "bernoulli";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kMmpp: return "mmpp";
  }
  return "?";
}

void ArrivalSpec::validate() const {
  switch (kind) {
    case ArrivalKind::kBernoulli:
      require_spec(rate > 0.0 && rate < 1.0,
                   "arrival spec: bernoulli rate must be in (0, 1) — it is "
                   "a per-phase arrival probability");
      break;
    case ArrivalKind::kPoisson:
      require_spec(rate > 0.0, "arrival spec: poisson rate must be > 0");
      require_spec(rate <= 8.0,
                   "arrival spec: poisson rate must be <= 8 — the network "
                   "advances at most one message per level per phase (mu < "
                   "0.24), so a larger offered load is pure overload");
      break;
    case ArrivalKind::kMmpp:
      require_spec(rate >= 0.0 && rate <= 8.0,
                   "arrival spec: mmpp off-state rate must be in [0, 8]");
      require_spec(on_rate > 0.0 && on_rate <= 8.0,
                   "arrival spec: mmpp on-state rate must be in (0, 8]");
      require_spec(on_rate >= rate,
                   "arrival spec: mmpp on-state rate must be >= the "
                   "off-state rate (the on state is the burst)");
      require_spec(p_on > 0.0 && p_on <= 1.0,
                   "arrival spec: mmpp p_on (off->on switch probability) "
                   "must be in (0, 1]");
      require_spec(p_off > 0.0 && p_off <= 1.0,
                   "arrival spec: mmpp p_off (on->off switch probability) "
                   "must be in (0, 1]");
      break;
  }
}

double ArrivalSpec::mean_rate() const noexcept {
  switch (kind) {
    case ArrivalKind::kBernoulli:
    case ArrivalKind::kPoisson:
      return rate;
    case ArrivalKind::kMmpp: {
      // Stationary distribution of the two-state chain: pi_on =
      // p_on / (p_on + p_off).
      const double pi_on = p_on / (p_on + p_off);
      return pi_on * on_rate + (1.0 - pi_on) * rate;
    }
  }
  return rate;
}

ArrivalSpec ArrivalSpec::parse(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ':')) parts.push_back(item);
  require_spec(!parts.empty(),
               "arrival spec: empty — expected KIND:RATE[:...], e.g. "
               "bernoulli:0.5");
  const auto num = [&](std::size_t i, const char* what) {
    const std::string& field = parts.at(i);
    const std::optional<double> v = parse_f64(field);
    if (v) return *v;
    // A number was started (a digit after any sign or point) and something
    // after it broke it: junk, or an exponent past the double range.
    const bool started =
        !field.empty() && field.find_first_of("0123456789") ==
                              field.find_first_not_of("-.");
    if (!started)
      fail(std::string("arrival spec: ") + what + " '" + field +
           "' is not a number");
    fail(std::string("arrival spec: trailing junk or out-of-range value in ") +
         what + " '" + field + "'");
  };
  ArrivalSpec s;
  if (parts[0] == "bernoulli" || parts[0] == "poisson") {
    s.kind = parts[0] == "bernoulli" ? ArrivalKind::kBernoulli
                                     : ArrivalKind::kPoisson;
    require_spec(parts.size() == 2,
                 "arrival spec: " + parts[0] +
                     " takes exactly one parameter (" + parts[0] +
                     ":RATE, mean arrivals per phase)");
    s.rate = num(1, "rate");
  } else if (parts[0] == "mmpp") {
    s.kind = ArrivalKind::kMmpp;
    require_spec(parts.size() == 5,
                 "arrival spec: mmpp takes exactly four parameters "
                 "(mmpp:OFF_RATE:ON_RATE:P_ON:P_OFF)");
    s.rate = num(1, "off-state rate");
    s.on_rate = num(2, "on-state rate");
    s.p_on = num(3, "p_on");
    s.p_off = num(4, "p_off");
  } else {
    fail("arrival spec: unknown kind '" + parts[0] +
         "' — expected bernoulli, poisson or mmpp");
  }
  s.validate();
  return s;
}

std::string ArrivalSpec::describe() const {
  char buf[128];
  switch (kind) {
    case ArrivalKind::kBernoulli:
      std::snprintf(buf, sizeof buf, "bernoulli(%.4g)", rate);
      break;
    case ArrivalKind::kPoisson:
      std::snprintf(buf, sizeof buf, "poisson(%.4g)", rate);
      break;
    case ArrivalKind::kMmpp:
      std::snprintf(buf, sizeof buf,
                    "mmpp(off=%.4g on=%.4g p_on=%.4g p_off=%.4g mean=%.4g)",
                    rate, on_rate, p_on, p_off, mean_rate());
      break;
  }
  return buf;
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec, Rng rng)
    : spec_(spec), rng_(rng) {
  spec_.validate();
}

std::uint32_t ArrivalProcess::draw_poisson(double mean) {
  // Inverse-CDF walk on one uniform: k is the smallest value with
  // CDF(k) >= u. One draw per phase, deterministic in the stream.
  const double u = rng_.next_double();
  double p = std::exp(-mean);
  double cdf = p;
  std::uint32_t k = 0;
  while (u > cdf && k < kPoissonCap) {
    ++k;
    p *= mean / k;
    cdf += p;
  }
  return k;
}

std::uint32_t ArrivalProcess::step() {
  switch (spec_.kind) {
    case ArrivalKind::kBernoulli:
      return rng_.bernoulli(spec_.rate) ? 1 : 0;
    case ArrivalKind::kPoisson:
      return draw_poisson(spec_.rate);
    case ArrivalKind::kMmpp: {
      // Step the modulating chain, then draw the batch from the new state
      // — a burst begins in the phase the chain switches on.
      const double switch_p = on_ ? spec_.p_off : spec_.p_on;
      if (rng_.bernoulli(switch_p)) on_ = !on_;
      const double mean = on_ ? spec_.on_rate : spec_.rate;
      return mean > 0.0 ? draw_poisson(mean) : 0;
    }
  }
  return 0;
}

}  // namespace radiomc::service
