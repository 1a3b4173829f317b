// Analytic fast-path bench — the Che-vs-DES validation and speedup gates.
//
// Part A (validation): every cell of the golden 36-cell matrix — the same
// {policy × arrival × persistence × fault} net tests/test_golden_results.cpp
// pins — is run on the DES and on the analytic hierarchical solver
// (run_model with spec.analytic.cache), on a 3x-length realization of the
// golden workload so compulsory (first-touch) misses do not dominate the
// measured pass. The engines must agree on the cluster cache hit rate to
// within 5 percentage points wherever the comparison is physically
// well-posed:
//
//   gated   replay fault-free cells, sub-saturation open-loop variants of
//           the same cells (400 req/s), and a small-memory "stress" net on
//           the oblivious policy where hit rates sit in the 40-90% band —
//           the Che curve itself, not the everything-fits short-circuit;
//   info    the golden 1500 req/s open-loop cells (the cluster saturates
//           and sheds >half the offered load at admission, so the DES
//           measures a cold, admission-biased stream), crash cells (the
//           analytic model has no fault axis), and conscious-policy stress
//           cells (LARD/L2S assignment under memory pressure differs from
//           the idealized replicate+stripe split by design).
//
// Part B (speedup): a 64-cell {nodes × cache} sweep over one realized
// trace, each cell evaluated by the serial DES and by the analytic solver.
// The analytic side must finish the whole sweep >= 100x faster — this is
// the economics behind `l2sim plan`: the planner spends milliseconds
// ranking the grid so the DES only runs the cells worth simulating.
//
// Emits BENCH_analytic.json; exits non-zero if a gate fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "gate_report.hpp"
#include "l2sim/l2sim.hpp"

using namespace l2s;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

trace::Trace golden_trace() {
  trace::SyntheticSpec spec;
  spec.name = "golden";
  spec.files = 250;
  spec.avg_file_kb = 8.0;
  // 3x the pinned golden length: same generator, same geometry, but long
  // enough that first-touch misses stop dominating the measured hit rate
  // (the analytic model predicts the steady state, not the warm-up tax).
  spec.requests = 9000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 2024;
  return trace::generate(spec);
}

struct Cell {
  std::string name;
  core::SimConfig cfg;
  core::PolicyKind kind;
  bool gated = true;  // false: informational row (fault cells)
};

// The golden validation net, mirrored from tests/test_golden_results.cpp.
std::vector<Cell> golden_matrix() {
  struct Policy {
    const char* tag;
    core::PolicyKind kind;
  };
  struct Persist {
    const char* tag;
    double rpc;
    core::PersistentMode mode;
  };
  const std::vector<Policy> policies = {{"trad", core::PolicyKind::kTraditional},
                                        {"lard", core::PolicyKind::kLard},
                                        {"l2s", core::PolicyKind::kL2s}};
  const std::vector<Persist> persists = {
      {"http10", 1.0, core::PersistentMode::kConnectionHandoff},
      {"handoff", 4.0, core::PersistentMode::kConnectionHandoff},
      {"backend", 4.0, core::PersistentMode::kBackendForwarding}};

  std::vector<Cell> cells;
  for (const auto& p : policies) {
    for (const bool open_loop : {false, true}) {
      for (const auto& ps : persists) {
        for (const bool crash : {false, true}) {
          Cell c;
          c.kind = p.kind;
          c.name = std::string(p.tag) + (open_loop ? "|open" : "|replay") + "|" +
                   ps.tag + (crash ? "|crash" : "|nofault");
          c.cfg.nodes = 4;
          c.cfg.node.cache_bytes = 2 * kMiB;
          if (open_loop) c.cfg.arrival.open_loop_rate = 1500.0;
          c.cfg.persistence.mean_requests_per_connection = ps.rpc;
          c.cfg.persistence.mode = ps.mode;
          // Saturated open-loop cells shed >half the offered load at
          // admission: the DES hit rate is then measured over a cold,
          // biased stream, which the steady-state model deliberately does
          // not describe. Crash cells: no fault axis in the model.
          if (crash) c.cfg.fault_plan.crashes.push_back({1, 0.15});
          c.gated = !crash && !open_loop;
          cells.push_back(std::move(c));
        }
      }
    }
  }
  // Sub-saturation open-loop variants of the fault-free cells: arrivals
  // Poisson, nothing rejected, so the comparison is well-posed again.
  for (const auto& p : policies) {
    for (const auto& ps : persists) {
      Cell c;
      c.kind = p.kind;
      c.name = std::string(p.tag) + "|open400|" + ps.tag + "|nofault";
      c.cfg.nodes = 4;
      c.cfg.node.cache_bytes = 2 * kMiB;
      c.cfg.arrival.open_loop_rate = 400.0;
      c.cfg.persistence.mean_requests_per_connection = ps.rpc;
      c.cfg.persistence.mode = ps.mode;
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

// Small-memory cells where the golden working set (250 files, ~2 MB) does
// not fit: this is where the Che curve is doing real work. Gated on the
// oblivious policy (each node's LRU sees the full Zipf stream — exactly
// the Che setting); LARD/L2S rows ride along informationally, since their
// runtime assignment under memory pressure deviates from the idealized
// replicate+stripe split on purpose.
std::vector<Cell> stress_matrix() {
  std::vector<Cell> cells;
  struct Policy {
    const char* tag;
    core::PolicyKind kind;
    bool gated;
  };
  const std::vector<Policy> policies = {{"trad", core::PolicyKind::kTraditional, true},
                                        {"lard", core::PolicyKind::kLard, false},
                                        {"l2s", core::PolicyKind::kL2s, false}};
  for (const auto& p : policies) {
    for (const Bytes cache : {128 * kKiB, 256 * kKiB, 512 * kKiB, 1 * kMiB}) {
      Cell c;
      c.kind = p.kind;
      c.gated = p.gated;
      c.name = std::string("stress|") + p.tag + "|" +
               std::to_string(cache / kKiB) + "KiB";
      c.cfg.nodes = 4;
      c.cfg.node.cache_bytes = cache;
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

struct ValidationRow {
  std::string name;
  bool gated = false;
  double des_hit = 0.0;
  double analytic_hit = 0.0;
  double delta = 0.0;
  double des_throughput = 0.0;
  double analytic_throughput = 0.0;
};

struct SweepTiming {
  int cells = 0;
  double des_seconds = 0.0;
  double analytic_seconds = 0.0;
  double speedup = 0.0;
  double max_abs_hit_delta = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_analytic.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];

  const double scale = bench_scale();
  const trace::Trace tr = golden_trace();

  std::cout << "Analytic fast-path bench (golden 36-cell net + stress net + "
            << "64-cell sweep, L2SIM_SCALE=" << scale << ")\n\n";

  // --- Part A: hit-rate validation, DES vs analytic --------------------
  auto validate = [&](const std::vector<Cell>& cells) {
    std::vector<ValidationRow> rows;
    for (const auto& c : cells) {
      ValidationRow row;
      row.name = c.name;
      row.gated = c.gated;
      const core::SimResult des = core::run_once(tr, c.cfg, c.kind);
      row.des_hit = des.hit_rate;
      row.des_throughput = des.throughput_rps;

      core::ExperimentSpec spec;
      spec.name = c.name;
      spec.sim = c.cfg;
      spec.policy = c.kind;
      spec.analytic.cache = true;
      const core::ModelResult model = core::run_model(spec, tr);
      row.analytic_hit = model.hit_rate;
      row.analytic_throughput = model.throughput_rps;
      row.delta = model.hit_rate - des.hit_rate;
      rows.push_back(std::move(row));
    }
    return rows;
  };

  std::vector<ValidationRow> rows = validate(golden_matrix());
  const std::vector<ValidationRow> stress = validate(stress_matrix());
  rows.insert(rows.end(), stress.begin(), stress.end());

  TextTable t({"Cell", "DES hit %", "Che hit %", "delta pp", "gated"});
  double max_gated_delta = 0.0;
  double max_any_delta = 0.0;
  for (const auto& r : rows) {
    t.cell(r.name)
        .cell(r.des_hit * 100.0, 2)
        .cell(r.analytic_hit * 100.0, 2)
        .cell(r.delta * 100.0, 2)
        .cell(r.gated ? "yes" : "info")
        .end_row();
    max_any_delta = std::max(max_any_delta, std::abs(r.delta));
    if (r.gated) max_gated_delta = std::max(max_gated_delta, std::abs(r.delta));
  }
  t.print(std::cout);

  // --- Part B: 64-cell sweep speedup -----------------------------------
  // One larger realized trace (the planner's target: grids over real
  // workloads, where each DES cell costs hundreds of milliseconds). The
  // geometry never shrinks below the validated 40k requests.
  trace::SyntheticSpec sweep_spec;
  sweep_spec.name = "sweep";
  sweep_spec.files = 250;
  sweep_spec.avg_file_kb = 8.0;
  sweep_spec.requests =
      static_cast<std::uint64_t>(40000.0 * std::max(1.0, scale));
  sweep_spec.avg_request_kb = 6.0;
  sweep_spec.alpha = 0.9;
  sweep_spec.seed = 2024;
  const trace::Trace sweep_tr = trace::generate(sweep_spec);

  const std::vector<int> sweep_nodes = {1, 2, 4, 6, 8, 10, 12, 16};
  const std::vector<Bytes> sweep_caches = {256 * kKiB, 512 * kKiB, 1 * kMiB,
                                           2 * kMiB,   4 * kMiB,   8 * kMiB,
                                           16 * kMiB,  32 * kMiB};

  SweepTiming sweep;
  sweep.cells = static_cast<int>(sweep_nodes.size() * sweep_caches.size());
  std::cout << "\n64-cell sweep (" << sweep_tr.request_count()
            << " requests per DES cell, serial both sides)...\n";

  std::vector<double> des_hits;
  const auto des_start = Clock::now();
  for (const int n : sweep_nodes) {
    for (const Bytes cache : sweep_caches) {
      core::SimConfig cfg;
      cfg.nodes = n;
      cfg.node.cache_bytes = cache;
      des_hits.push_back(core::run_once(sweep_tr, cfg, core::PolicyKind::kL2s).hit_rate);
    }
  }
  sweep.des_seconds = seconds_since(des_start);

  // The analytic side does exactly what `l2sim plan` does: characterize
  // the workload once, then solve every cell from first principles.
  const auto analytic_start = Clock::now();
  const trace::TraceCharacteristics ch = trace::characterize(sweep_tr);
  std::size_t cell_index = 0;
  for (const int n : sweep_nodes) {
    for (const Bytes cache : sweep_caches) {
      analytic::HierarchicalParams hp;
      hp.model.nodes = n;
      hp.model.cache_bytes = cache;
      hp.model.alpha = ch.alpha;
      hp.workload = ch.to_workload_stats();
      hp.conscious = true;
      const analytic::HierarchicalResult hr = analytic::solve_hierarchical(hp);
      sweep.max_abs_hit_delta = std::max(
          sweep.max_abs_hit_delta, std::abs(hr.hit_rate - des_hits[cell_index]));
      ++cell_index;
    }
  }
  sweep.analytic_seconds = seconds_since(analytic_start);
  sweep.speedup = sweep.analytic_seconds > 0.0
                      ? sweep.des_seconds / sweep.analytic_seconds
                      : 0.0;

  std::cout << "  DES:      " << format_double(sweep.des_seconds, 3) << " s\n"
            << "  analytic: " << format_double(sweep.analytic_seconds, 4) << " s\n"
            << "  speedup:  " << format_double(sweep.speedup, 1) << "x\n"
            << "  max |hit delta| across sweep: "
            << format_double(sweep.max_abs_hit_delta * 100.0, 2) << " pp\n";

  // --- acceptance gates -------------------------------------------------
  std::vector<benchgate::Gate> gates;

  gates.push_back({"hit_within_5pp", max_gated_delta <= 0.05,
                   "max |analytic - DES| hit delta " +
                       format_double(max_gated_delta * 100.0, 2) +
                       " pp over gated validation cells (need <= 5 pp)"});
  gates.push_back({"speedup_100x", sweep.speedup >= 100.0,
                   "analytic sweep " + format_double(sweep.speedup, 1) +
                       "x faster than DES over " + std::to_string(sweep.cells) +
                       " cells (need >= 100x)"});

  return benchgate::finish("analytic_bench", out_path, gates, [&](std::ostream& out) {
    out << "{\n"
        << "  \"bench\": \"analytic\",\n"
        << "  \"scale\": " << format_double(scale, 3) << ",\n"
        << "  \"validation_cells\": " << rows.size() << ",\n"
        << "  \"max_gated_hit_delta_pp\": " << format_double(max_gated_delta * 100.0, 3)
        << ",\n"
        << "  \"max_any_hit_delta_pp\": " << format_double(max_any_delta * 100.0, 3)
        << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      out << "    {\"cell\": \"" << r.name << "\", \"gated\": "
          << (r.gated ? "true" : "false")
          << ", \"des_hit\": " << format_double(r.des_hit, 4)
          << ", \"analytic_hit\": " << format_double(r.analytic_hit, 4)
          << ", \"delta_pp\": " << format_double(r.delta * 100.0, 2)
          << ", \"des_throughput_rps\": " << format_double(r.des_throughput, 1)
          << ", \"analytic_throughput_rps\": "
          << format_double(r.analytic_throughput, 1) << "}"
          << (i + 1 == rows.size() ? "\n" : ",\n");
    }
    out << "  ],\n"
        << "  \"sweep\": {\"cells\": " << sweep.cells
        << ", \"requests_per_cell\": " << sweep_tr.request_count()
        << ", \"des_seconds\": " << format_double(sweep.des_seconds, 4)
        << ", \"analytic_seconds\": " << format_double(sweep.analytic_seconds, 5)
        << ", \"speedup\": " << format_double(sweep.speedup, 1)
        << ", \"max_abs_hit_delta_pp\": "
        << format_double(sweep.max_abs_hit_delta * 100.0, 2) << "},\n";
  });
}
