// M/G/1 queue via the Pollaczek-Khinchine formula.
//
// The simulator's service times are (mostly) deterministic per class, so
// its queueing sits between M/D/1 and M/M/1. P-K closes that gap exactly:
// with squared coefficient of variation cs2 of the service distribution,
//
//   Wq = (1 + cs2) / 2 * rho / (mu - lambda)
//
// cs2 = 1 recovers M/M/1, cs2 = 0 is M/D/1 (half the waiting).
// `l2sim study latency-validation` uses this to show the simulator agrees
// with theory, not just qualitatively.
#pragma once

namespace l2s::queueing {

struct Mg1Metrics {
  double utilization;
  double mean_waiting;    ///< Wq
  double mean_response;   ///< W = Wq + 1/mu
  double mean_customers;  ///< L = lambda * W
};

/// P-K metrics for arrival rate lambda, service rate mu, and service-time
/// squared coefficient of variation cs2 (variance / mean^2, >= 0).
/// Throws l2s::Error when unstable or ill-formed.
[[nodiscard]] Mg1Metrics mg1_metrics(double lambda, double mu, double cs2);

/// Convenience: M/D/1 (deterministic service).
[[nodiscard]] Mg1Metrics md1_metrics(double lambda, double mu);

}  // namespace l2s::queueing
