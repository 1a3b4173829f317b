#include "studies.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "l2sim/cache/stack_distance.hpp"
#include "l2sim/l2sim.hpp"

namespace l2s::study {
namespace {

using core::PolicyKind;

/// A cluster of `nodes` nodes with `cache` bytes of memory each (the
/// paper's simulations use 32 MB).
core::SimConfig sim_config(int nodes, Bytes cache = 32 * kMiB) {
  core::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = cache;
  return cfg;
}

/// The replication-decay window for a truncated replay: the paper's 20 s
/// covers the same fraction of a scaled trace as of a full-length one.
double shrink(const Options& o) { return 20.0 * o.scale; }

/// A paper trace at the study's --scale, at most `cap` requests long.
trace::Trace paper_trace(const std::string& name, const Options& o,
                         std::uint64_t cap = UINT64_MAX, double temporal_locality = 0.0) {
  auto spec = trace::paper_trace_spec(name);
  spec.temporal_locality = temporal_locality;
  return trace::generate_scaled(spec, o.scale, cap);
}

core::SimJob job(const trace::Trace& tr, const core::SimConfig& sim, PolicyKind kind,
                 double shrink_seconds = 20.0, const policy::L2sParams& l2s = {}) {
  return {.trace = &tr, .sim = sim, .kind = kind, .set_shrink_seconds = shrink_seconds, .l2s = l2s};
}

/// L2S with replication effectively off: growing a server set needs loads
/// the closed-loop injector never produces, so server sets stay singletons
/// (the strict locality scheme the paper warns about).
policy::L2sParams no_replication() {
  policy::L2sParams p;
  p.overload_threshold = 1000000;
  p.underload_threshold = 999999;
  return p;
}

/// Print a Figure 3-5 surface as a condensed grid (six size columns) and
/// write it whole as CSV.
void print_surface(const char* title, const model::Surface& s, int digits, const Options& o,
                   const char* csv_name, const char* value_column, int csv_digits) {
  std::cout << title << "\n\n";
  TextTable t({"Hlo\\S(KB)", "8", "16", "32", "64", "96", "128"});
  constexpr std::size_t kColumns[] = {1, 3, 7, 15, 23, 31};  // the size grid's indices
  for (std::size_t i = 0; i < s.hit_rates.size(); ++i) {
    t.cell(s.hit_rates[i], 2);
    for (const std::size_t c : kColumns) t.cell(s.at(i, c), digits);
    t.end_row();
  }
  t.print(std::cout);
  CsvWriter csv(o.csv_dir, csv_name, {"hit_rate", "size_kb", value_column});
  for (std::size_t i = 0; i < s.hit_rates.size(); ++i)
    for (std::size_t j = 0; j < s.sizes_kb.size(); ++j)
      csv.add_row({format_double(s.hit_rates[i], 2), format_double(s.sizes_kb[j], 0),
                   format_double(s.at(i, j), csv_digits)});
  csv.close();
}

model::Surface oblivious(const model::ClusterModel& m) {
  return model::oblivious_surface(m, model::default_hit_grid(), model::default_size_grid());
}

model::Surface conscious(const model::ClusterModel& m) {
  return model::conscious_surface(m, model::default_hit_grid(), model::default_size_grid());
}

/// Figure 5's surface: conscious over oblivious throughput.
model::Surface locality_gain(const model::ClusterModel& m) {
  return model::ratio_surface(conscious(m), oblivious(m));
}

// Table 1: model parameters and their default values, plus the derived
// station rates at a few representative file sizes as a sanity check.
int table1(const Options&) {
  const model::ModelParams params;  // paper defaults
  std::cout << "Table 1: Model parameters and their default values\n\n";
  std::cout << params.describe() << '\n';

  std::cout << "Derived service rates (ops/s) at representative sizes:\n";
  TextTable t({"S (KB)", "mu_r", "mu_m", "mu_d", "mu_o"});
  for (const double s : {1.0, 8.0, 32.0, 64.0, 128.0}) {
    t.cell(s, 0)
        .cell(params.router_rate(s), 0)
        .cell(params.reply_rate(s), 0)
        .cell(params.disk_rate(s), 1)
        .cell(params.ni_reply_rate(s), 0)
        .end_row();
  }
  t.print(std::cout);
  return 0;
}

// Figure 3: throughput of a locality-oblivious server over the
// (hit rate x average file size) plane, 16 nodes, default parameters.
//
// Paper shape: throughput only rises significantly for files smaller than
// 64 KB and hit rates above 80%.
int fig3(const Options& o) {
  const auto s = oblivious(model::ClusterModel{model::ModelParams{}});
  print_surface("Figure 3: Throughput of a locality-oblivious server (reqs/sec)", s, 0, o,
                "fig3_oblivious", "rps", 1);
  std::cout << "\npeak throughput: " << format_double(s.max_value(), 0) << " reqs/sec\n";
  return 0;
}

// Figure 4: throughput of a locality-conscious server over the same plane.
//
// Paper shape: the area of significant throughput is much larger than the
// oblivious server's — files smaller than 96 KB and hit rates above ~50% —
// and the peak is sustained over a much larger region.
int fig4(const Options& o) {
  const auto s = conscious(model::ClusterModel{model::ModelParams{}});
  print_surface("Figure 4: Throughput of a locality-conscious server (reqs/sec)", s, 0, o,
                "fig4_conscious", "rps", 1);
  std::cout << "\npeak throughput: " << format_double(s.max_value(), 0) << " reqs/sec\n";
  return 0;
}

// Figure 5: throughput increase due to locality — Figure 4 divided by
// Figure 3, element-wise.
//
// Paper shape: up to a factor of ~7 on 16 nodes; the improvement grows as
// the hit rate rises and the file size falls, collapses after Hlo = 0.8
// (the oblivious server starts performing well), and dips slightly below 1
// for Hlo >= 0.95 with small files because of the forwarding overhead.
int fig5(const Options& o) {
  const auto ratio = locality_gain(model::ClusterModel{model::ModelParams{}});
  print_surface("Figure 5: Throughput increase due to locality (conscious / oblivious)", ratio,
                2, o, "fig5_increase", "ratio", 3);
  std::cout << "\nmax increase: " << format_double(ratio.max_value(), 2)
            << "x   min increase: " << format_double(ratio.min_value(), 2) << "x\n";
  return 0;
}

// Figure 6: side view of Figure 5 — per hit rate, the envelope of the
// throughput-increase surface over all file sizes.
int fig6(const Options& o) {
  const auto side = locality_gain(model::ClusterModel{model::ModelParams{}}).side_view();
  std::cout << "Figure 6: Throughput increase due to locality (side view)\n\n";
  TextTable t({"Hlo", "max over S", "min over S"});
  CsvWriter csv(o.csv_dir, "fig6_sideview", {"hit_rate", "max", "min"});
  for (std::size_t i = 0; i < side.hit_rates.size(); ++i) {
    t.cell(side.hit_rates[i], 2)
        .cell(side.max_over_sizes[i], 2)
        .cell(side.min_over_sizes[i], 2)
        .end_row();
    csv.add_row({format_double(side.hit_rates[i], 2),
                 format_double(side.max_over_sizes[i], 3),
                 format_double(side.min_over_sizes[i], 3)});
  }
  t.print(std::cout);
  csv.close();
  return 0;
}

// Section 3.2 memory-size study: locality gains as per-node memory grows
// from 128 MB to 512 MB.
//
// Paper shape: larger memories reduce the throughput benefit of locality
// just about everywhere in the parameter space, but the gains remain
// significant (peaking around 6.5x at 512 MB vs ~7x at 128 MB). The
// global peak sits where the conscious hit rate saturates at 1 and is
// insensitive to memory; the representative uncapped cells below show the
// monotone decline.
int model_memory(const Options& o) {
  std::cout << "Model study: throughput increase vs per-node memory size (16 nodes)\n\n";
  TextTable t({"Memory (MB)", "peak", "mean over plane", "Hlo=0.6,S=16KB", "Hlo=0.7,S=32KB"});
  CsvWriter csv(o.csv_dir, "model_memory_sweep",
                {"memory_mb", "peak_ratio", "mean_ratio", "mid_ratio", "high_ratio"});
  for (const Bytes mb : {128ULL, 192ULL, 256ULL, 384ULL, 512ULL}) {
    model::ModelParams p;
    p.cache_bytes = mb * kMiB;
    const model::ClusterModel m(p);
    const auto ratio = locality_gain(m);
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& row : ratio.values)
      for (const double v : row) {
        sum += v;
        ++n;
      }
    const double peak = ratio.max_value();
    const double mean = sum / static_cast<double>(n);
    const double mid = m.conscious(0.6, 16.0).throughput / m.oblivious(0.6, 16.0).throughput;
    const double high = m.conscious(0.7, 32.0).throughput / m.oblivious(0.7, 32.0).throughput;
    t.cell(static_cast<long long>(mb)).cell(peak, 2).cell(mean, 3).cell(mid, 3)
        .cell(high, 3).end_row();
    csv.add_row({std::to_string(mb), format_double(peak, 3), format_double(mean, 4),
                 format_double(mid, 4), format_double(high, 4)});
  }
  t.print(std::cout);
  csv.close();
  return 0;
}

// Section 3.2 replication study: how the replication fraction R trades
// cache capacity against forwarding overhead and load imbalance.
//
// Paper finding: a small degree of replication (15%) provides robust
// performance — it barely reduces the conscious hit rate but cuts the
// forwarded-request fraction and tames the imbalance caused by hot files.
int model_replication(const Options& o) {
  // A representative mid-plane point: Hlo = 0.6, S = 16 KB.
  const double hlo = 0.6;
  const double size_kb = 16.0;

  std::cout << "Model study: replication fraction R at Hlo=" << hlo << ", S=" << size_kb
            << " KB (16 nodes)\n\n";
  TextTable t({"R (%)", "Hlc", "h", "Q (%)", "throughput", "imbalance factor"});
  CsvWriter csv(o.csv_dir, "model_replication_sweep",
                {"replication", "hlc", "h", "q", "rps", "imbalance"});
  for (const double r : {0.0, 0.05, 0.10, 0.15, 0.25, 0.50}) {
    model::ModelParams p;
    p.replication = r;
    const model::ClusterModel m(p);
    const auto eval = m.conscious(hlo, size_kb);
    // Imbalance over the virtual population implied by this (Hlo, S) point,
    // with the replicated slice of one node's memory spread over all nodes.
    const double files = m.virtual_population(hlo, size_kb);
    const double replicated_files = r * static_cast<double>(p.cache_bytes) / 1024.0 / size_kb;
    const double imbalance = model::imbalance_factor(files, p.alpha, p.nodes, replicated_files);
    t.cell(r * 100.0, 0)
        .cell(eval.hit_rate, 3)
        .cell(eval.replicated_hit_rate, 3)
        .cell(eval.forwarded_fraction * 100.0, 1)
        .cell(eval.throughput, 0)
        .cell(imbalance, 3)
        .end_row();
    csv.add_row({format_double(r, 2), format_double(eval.hit_rate, 4),
                 format_double(eval.replicated_hit_rate, 4),
                 format_double(eval.forwarded_fraction, 4), format_double(eval.throughput, 1),
                 format_double(imbalance, 4)});
  }
  t.print(std::cout);
  csv.close();
  return 0;
}

// Model latency curves (extension; the paper reports throughput only and
// notes server latency is small next to WAN latency — these curves show
// where that stops being true as the server approaches saturation).
int latency_curves(const Options& o) {
  const model::ClusterModel m{model::ModelParams{}};
  std::cout << "Model mean response time vs offered load (16 nodes, S=16 KB)\n\n";
  CsvWriter csv(o.csv_dir, "latency_curves",
                {"server", "hlo", "load_fraction", "arrival_rps", "response_ms"});
  for (const double hlo : {0.6, 0.9}) {
    TextTable t({"Load (%)", "oblivious req/s", "oblivious ms", "conscious req/s",
                 "conscious ms"});
    const auto lo = model::latency_curve(m, false, hlo, 16.0, 10, 0.95);
    const auto lc = model::latency_curve(m, true, hlo, 16.0, 10, 0.95);
    for (std::size_t i = 0; i < lo.size(); ++i) {
      t.cell(lo[i].utilization * 100.0, 0)
          .cell(lo[i].arrival_rate, 0)
          .cell(lo[i].mean_response_s * 1e3, 2)
          .cell(lc[i].arrival_rate, 0)
          .cell(lc[i].mean_response_s * 1e3, 2)
          .end_row();
      for (const auto* curve : {&lo, &lc})
        csv.add_row({curve == &lo ? "oblivious" : "conscious", format_double(hlo, 2),
                     format_double((*curve)[i].utilization, 3),
                     format_double((*curve)[i].arrival_rate, 1),
                     format_double((*curve)[i].mean_response_s * 1e3, 3)});
    }
    std::cout << "Hlo = " << hlo << ":\n";
    t.print(std::cout);
    const double knee_lo = model::load_fraction_at_latency(m, false, hlo, 16.0, 0.1);
    const double knee_lc = model::load_fraction_at_latency(m, true, hlo, 16.0, 0.1);
    std::cout << "load fraction where mean response crosses 100 ms: oblivious "
              << format_double(knee_lo * 100.0, 0) << "%, conscious "
              << format_double(knee_lc * 100.0, 0) << "%\n\n";
  }
  csv.close();
  return 0;
}

// Table 2: main characteristics of the WWW server traces.
//
// The real logs are synthesized from calibrated specs (see DESIGN.md);
// this study generates each trace and measures its characteristics the
// same way the paper reports them, side by side with the paper's values.
int table2(const Options& o) {
  std::cout << "Table 2: Main characteristics of the WWW server traces\n"
            << "(measured on synthetic traces at --scale " << o.scale << ")\n\n";
  TextTable t({"Logs", "Num files", "Avg file size (KB)", "Num requests",
               "Avg req size (KB)", "alpha", "Working set (MB)"});
  CsvWriter csv(o.csv_dir, "table2_traces",
                {"trace", "files", "avg_file_kb", "requests", "avg_req_kb", "alpha",
                 "working_set_mb"});
  for (const auto& spec : trace::paper_trace_specs()) {
    const auto ch = trace::characterize(trace::generate_scaled(spec, o.scale));
    t.cell(spec.name)
        .cell(static_cast<long long>(ch.files))
        .cell(ch.avg_file_kb, 1)
        .cell(static_cast<long long>(ch.requests))
        .cell(ch.avg_request_kb, 1)
        .cell(ch.alpha, 2)
        .cell(static_cast<double>(ch.working_set_bytes) / static_cast<double>(kMiB), 0)
        .end_row();
    csv.add_row({spec.name, std::to_string(ch.files), format_double(ch.avg_file_kb, 2),
                 std::to_string(ch.requests), format_double(ch.avg_request_kb, 2),
                 format_double(ch.alpha, 3),
                 format_double(static_cast<double>(ch.working_set_bytes) / 1048576.0, 1)});
  }
  t.print(std::cout);
  csv.close();

  std::cout << "\nPaper values for reference:\n";
  TextTable p({"Logs", "Num files", "Avg file size", "Num requests", "Avg req size", "alpha"});
  p.cell("Calgary").cell(8397LL).cell("42.9 KB").cell(567895LL).cell("19.7 KB").cell(1.08, 2).end_row();
  p.cell("Clarknet").cell(35885LL).cell("11.6 KB").cell(3053525LL).cell("11.9 KB").cell(0.78, 2).end_row();
  p.cell("NASA").cell(5500LL).cell("53.7 KB").cell(3147719LL).cell("47.0 KB").cell(0.91, 2).end_row();
  p.cell("Rutgers").cell(24098LL).cell("30.5 KB").cell(535021LL).cell("26.2 KB").cell(0.79, 2).end_row();
  p.print(std::cout);
  return 0;
}

// Miss-ratio curves via one-pass Mattson stack-distance analysis: the LRU
// miss rate of a sequential server at every memory size, for each paper
// trace. This is the analysis behind the paper's sizing decisions — why
// 32 MB memories make the traces' working sets "significant in comparison
// to cache sizes" and what growing to 128 MB changes (Section 5.2).
int miss_curves(const Options& o) {
  std::cout << "Sequential LRU miss-ratio curves (one-pass stack-distance analysis, "
            << "--scale " << o.scale << ")\n\n";
  const std::vector<Bytes> capacities = {8 * kMiB,   16 * kMiB,  32 * kMiB, 64 * kMiB,
                                         128 * kMiB, 256 * kMiB, 512 * kMiB};
  TextTable t({"Trace", "8MB", "16MB", "32MB", "64MB", "128MB", "256MB", "512MB"});
  CsvWriter csv(o.csv_dir, "miss_curve_study", {"trace", "capacity_mb", "miss_rate"});
  for (const auto& spec : trace::paper_trace_specs()) {
    const trace::Trace tr = trace::generate_scaled(spec, o.scale, 400000);
    const auto curve = cache::StackDistanceAnalyzer(tr).miss_curve_bytes(capacities);
    t.cell(spec.name);
    for (std::size_t i = 0; i < capacities.size(); ++i) {
      t.cell(curve[i] * 100.0, 1);
      csv.add_row({spec.name, std::to_string(capacities[i] / kMiB), format_double(curve[i], 4)});
    }
    t.end_row();
  }
  t.print(std::cout);
  csv.close();
  std::cout << "\n(miss %, compulsory misses included; the 32 MB column is the\n"
               "paper's simulated memory size, the 128 MB column its Section 5.2\n"
               "memory-growth scenario)\n";
  return 0;
}

// Temporal-locality calibration study.
//
// The paper's real traces produce miss rates between 9% and 28% on a
// sequential server with 32 MB of memory. IID Zipf sampling reproduces
// each trace's *popularity* profile but not its temporal correlation, so
// its sequential miss rates sit above that band for the larger working
// sets. This study sweeps the generator's temporal_locality knob and
// reports the sequential 32 MB LRU miss rate, showing where each trace
// enters the paper's band — and, for one trace, how the knob shifts the
// policy comparison (every policy's cache benefits, so the relative
// Figure 7-10 results change little until the knob dominates).
int temporal_locality(const Options& o) {
  std::cout << "Sequential 32 MB LRU miss rate (%) vs temporal_locality"
            << " (--scale " << o.scale << ")\n"
            << "Paper band for its real traces: 9-28%\n\n";
  CsvWriter csv(o.csv_dir, "temporal_locality_study", {"trace", "pt", "miss"});
  TextTable t({"Trace", "pt=0", "pt=0.3", "pt=0.5", "pt=0.65", "pt=0.8"});
  for (const auto& base : trace::paper_trace_specs()) {
    t.cell(base.name);
    for (const double pt : {0.0, 0.3, 0.5, 0.65, 0.8}) {
      const trace::Trace tr = paper_trace(base.name, o, 600000, pt);
      cache::LruCache c(32 * kMiB);
      for (const auto& r : tr.requests())
        if (!c.lookup(r.file)) c.insert(r.file, tr.files().size_of(r.file));
      const double miss = c.stats().miss_rate();
      t.cell(miss * 100.0, 1);
      csv.add_row({base.name, format_double(pt, 2), format_double(miss, 4)});
    }
    t.end_row();
  }
  t.print(std::cout);
  csv.close();

  // Policy comparison at 8 nodes under rising temporal locality (Rutgers,
  // the largest working set): hit rates improve for everyone.
  const double pts[] = {0.0, 0.5, 0.8};
  std::vector<trace::Trace> traces;
  for (const double pt : pts) traces.push_back(paper_trace("Rutgers", o, UINT64_MAX, pt));
  std::vector<core::SimJob> jobs;
  for (const auto& tr : traces)
    for (const auto kind : core::all_policies()) jobs.push_back(job(tr, sim_config(8), kind, shrink(o)));
  const auto r = core::run_parallel(jobs, o.threads);

  std::cout << "\nRutgers, 8 nodes: throughput (req/s) and miss (%) vs pt\n";
  TextTable p({"pt", "L2S", "LARD", "trad", "trad miss (%)"});
  for (std::size_t i = 0; i < traces.size(); ++i) {
    p.cell(pts[i], 2)
        .cell(r[3 * i].throughput_rps, 0)
        .cell(r[3 * i + 1].throughput_rps, 0)
        .cell(r[3 * i + 2].throughput_rps, 0)
        .cell(r[3 * i + 2].miss_rate * 100.0, 1)
        .end_row();
  }
  p.print(std::cout);
  return 0;
}

// Section 5.2 memory-size study (simulation).
//
// Paper findings: growing the per-node memory helps the traditional
// server tremendously (its miss rate falls directly) but affects L2S and
// LARD much less (their miss rates are already low); LARD in addition
// stays pinned at its ~5000 req/s front-end barrier, so with 128 MB
// memories and 8+ nodes the traditional server can overtake LARD.
int sim_memory(const Options& o) {
  std::cout << "Throughput (req/s) vs per-node memory (synthetic Clarknet, "
            << "--scale " << o.scale << ")\n\n";
  const trace::Trace tr = paper_trace("Clarknet", o, 600000);
  const int node_counts[] = {8, 16};
  const Bytes memories[] = {32, 64, 128};
  std::vector<core::SimJob> jobs;
  for (const int nodes : node_counts)
    for (const Bytes mb : memories)
      for (const auto kind : core::all_policies())
        jobs.push_back(job(tr, sim_config(nodes, mb * kMiB), kind, shrink(o)));
  const auto r = core::run_parallel(jobs, o.threads);

  CsvWriter csv(o.csv_dir, "sim_memory_sweep", {"memory_mb", "nodes", "l2s", "lard", "trad"});
  std::size_t k = 0;
  for (const int nodes : node_counts) {
    TextTable t({"Memory (MB)", "L2S", "LARD", "trad", "trad miss (%)"});
    for (const Bytes mb : memories) {
      const auto& l2s_r = r[k];
      const auto& lard_r = r[k + 1];
      const auto& trad_r = r[k + 2];
      k += 3;
      t.cell(static_cast<long long>(mb))
          .cell(l2s_r.throughput_rps, 0)
          .cell(lard_r.throughput_rps, 0)
          .cell(trad_r.throughput_rps, 0)
          .cell(trad_r.miss_rate * 100.0, 1)
          .end_row();
      csv.add_row({std::to_string(mb), std::to_string(nodes),
                   format_double(l2s_r.throughput_rps, 1),
                   format_double(lard_r.throughput_rps, 1),
                   format_double(trad_r.throughput_rps, 1)});
    }
    std::cout << nodes << " nodes:\n";
    t.print(std::cout);
    std::cout << '\n';
  }
  csv.close();
  return 0;
}

// Section 5.2 "summary of other simulation results": the performance of
// L2S is only slightly affected by reasonable settings of broadcast
// frequency, messaging overhead, and network latency and bandwidth.
//
// This study perturbs each of those parameters around the defaults on a
// 16-node cluster and reports L2S throughput, which should stay within a
// narrow band of the baseline.
int sensitivity(const Options& o) {
  std::cout << "L2S sensitivity study (synthetic Calgary, 16 nodes, "
            << "--scale " << o.scale << ")\n\n";
  const trace::Trace tr = paper_trace("Calgary", o);
  const core::SimConfig base = sim_config(16);

  struct Knob {
    std::string name;
    std::string value;
    core::SimConfig sim;
    int broadcast_delta = 4;
  };
  std::vector<Knob> knobs = {{"baseline", "", base}};
  // Broadcast frequency: drift threshold 2..16 connections.
  for (const int delta : {2, 8, 16})
    knobs.push_back({"broadcast delta", std::to_string(delta), base, delta});
  // Messaging overhead: half / double the M-VIA per-message CPU+NIC costs.
  for (const double factor : {0.5, 2.0}) {
    Knob k{"msg overhead", format_double(factor, 1) + "x", base};
    k.sim.net.cpu_msg_overhead_s *= factor;
    k.sim.net.nic_msg_overhead_s *= factor;
    knobs.push_back(k);
  }
  // Switch latency: 1 us default -> 5 us, 20 us.
  for (const double lat_us : {5.0, 20.0}) {
    Knob k{"switch latency", format_double(lat_us, 0) + " us", base};
    k.sim.net.switch_latency_s = lat_us * 1e-6;
    knobs.push_back(k);
  }
  // Link bandwidth: 0.5 and 2 Gbit/s.
  for (const double gbps : {0.5, 2.0}) {
    Knob k{"link bandwidth", format_double(gbps, 1) + " Gb/s", base};
    k.sim.net.link_bits_per_s = gbps * 1e9;  // mu_o's slope follows the link
    knobs.push_back(k);
  }

  std::vector<core::SimJob> jobs;
  for (const Knob& k : knobs) {
    policy::L2sParams p;
    p.broadcast_delta = k.broadcast_delta;
    jobs.push_back(job(tr, k.sim, PolicyKind::kL2s, shrink(o), p));
  }
  const auto r = core::run_parallel(jobs, o.threads);
  const double baseline = r[0].throughput_rps;
  std::cout << "baseline throughput: " << format_double(baseline, 0) << " req/s\n\n";

  CsvWriter csv(o.csv_dir, "sensitivity_study", {"knob", "value", "rps", "vs_baseline"});
  TextTable t({"Knob", "Value", "Throughput", "vs baseline"});
  for (std::size_t i = 1; i < knobs.size(); ++i) {
    const double rps = r[i].throughput_rps;
    t.cell(knobs[i].name).cell(knobs[i].value).cell(rps, 0)
        .cell(format_double(rps / baseline, 3) + "x").end_row();
    csv.add_row({knobs[i].name, knobs[i].value, format_double(rps, 1),
                 format_double(rps / baseline, 4)});
  }
  t.print(std::cout);
  csv.close();
  std::cout << "\nPaper finding: L2S is only slightly affected by reasonable\n"
               "broadcast frequencies, messaging overheads, and network latency\n"
               "and bandwidth.\n";
  return 0;
}

// Ablation of the L2S design choices DESIGN.md calls out:
//
//   * thresholds T/t (overload / underload),
//   * local bias (serve-locally preference within the server set),
//   * herd damping (two-choice selection under stale views),
//   * replication on/off (pure partitioning vs the full algorithm).
//
// Run on the synthetic Calgary trace at 16 nodes, where the trade-offs
// between locality, balance and forwarding are all visible.
int ablation(const Options& o) {
  std::cout << "L2S design ablation (synthetic Calgary, 16 nodes, "
            << "--scale " << o.scale << ")\n\n";
  const trace::Trace tr = paper_trace("Calgary", o);

  struct Variant {
    std::string name;
    policy::L2sParams params;
  };
  std::vector<Variant> variants = {{"baseline (T=20,t=10)", {}}};
  {
    Variant v{"tight thresholds (T=10,t=5)", {}};
    v.params.overload_threshold = 10;
    v.params.underload_threshold = 5;
    variants.push_back(v);
  }
  {
    Variant v{"loose thresholds (T=40,t=20)", {}};
    v.params.overload_threshold = 40;
    v.params.underload_threshold = 20;
    variants.push_back(v);
  }
  {
    Variant v{"no local bias", {}};
    v.params.local_bias = 0;
    variants.push_back(v);
  }
  {
    Variant v{"always serve locally if cached", {}};
    v.params.local_bias = 1000000;
    variants.push_back(v);
  }
  {
    Variant v{"herd damping on", {}};
    v.params.herd_damping = true;
    variants.push_back(v);
  }
  variants.push_back({"no replication (pure partition)", no_replication()});

  std::vector<core::SimJob> jobs;
  for (const auto& v : variants)
    jobs.push_back(job(tr, sim_config(16), PolicyKind::kL2s, shrink(o), v.params));
  const auto results = core::run_parallel(jobs, o.threads);

  TextTable t({"Variant", "Throughput", "Miss (%)", "Forwarded (%)", "Idle (%)"});
  CsvWriter csv(o.csv_dir, "l2s_ablation", {"variant", "rps", "miss", "forwarded", "idle"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = results[i];
    t.cell(variants[i].name)
        .cell(r.throughput_rps, 0)
        .cell(r.miss_rate * 100.0, 2)
        .cell(r.forwarded_fraction * 100.0, 1)
        .cell(r.cpu_idle_fraction * 100.0, 1)
        .end_row();
    csv.add_row({variants[i].name, format_double(r.throughput_rps, 1),
                 format_double(r.miss_rate, 4), format_double(r.forwarded_fraction, 4),
                 format_double(r.cpu_idle_fraction, 4)});
  }
  t.print(std::cout);
  csv.close();
  return 0;
}

// Availability study — the paper's decentralization claim made concrete:
// "the front-end represents both a potential bottleneck and a single point
// of failure... In L2S we eliminate all of these problems."
//
// One node is crashed halfway through the measured pass on a 16-node
// cluster. For LARD the crash of node 0 (its front-end) stops the service;
// crashing a back-end, or any L2S/traditional node, costs only the
// requests in flight plus 1/16 of capacity.
int availability(const Options& o) {
  std::cout << "Availability under a node crash (synthetic Calgary, 16 nodes, "
            << "--scale " << o.scale << ")\n\n";
  const trace::Trace tr = paper_trace("Calgary", o);

  // Baseline elapsed time tells us where "halfway" is.
  const auto baseline = core::run_once(tr, sim_config(16), PolicyKind::kL2s, shrink(o));
  const double crash_at = baseline.elapsed_seconds * 0.5;
  std::cout << "baseline L2S: " << format_double(baseline.throughput_rps, 0)
            << " req/s over " << format_double(baseline.elapsed_seconds, 2)
            << " s; crashing at t=" << format_double(crash_at, 2) << " s\n\n";

  struct Scenario {
    const char* name;
    PolicyKind kind;
    int dead_node;
  };
  const Scenario scenarios[] = {
      {"L2S, any node", PolicyKind::kL2s, 0},
      {"LARD, front-end", PolicyKind::kLard, 0},
      {"LARD, back-end", PolicyKind::kLard, 5},
      {"trad, any node", PolicyKind::kTraditional, 5},
  };
  std::vector<core::SimJob> jobs;
  for (const auto& s : scenarios) {
    core::SimConfig cfg = sim_config(16);
    cfg.fault_plan.crashes.push_back({s.dead_node, crash_at});
    jobs.push_back(job(tr, cfg, s.kind, shrink(o)));
  }
  const auto results = core::run_parallel(jobs, o.threads);

  TextTable t({"Scenario", "Completed", "Failed", "Served (%)", "Throughput"});
  CsvWriter csv(o.csv_dir, "availability_study",
                {"scenario", "completed", "failed", "served_pct", "rps"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double served = 100.0 * static_cast<double>(r.completed) /
                          static_cast<double>(r.completed + r.failed);
    t.cell(scenarios[i].name)
        .cell(static_cast<long long>(r.completed))
        .cell(static_cast<long long>(r.failed))
        .cell(served, 1)
        .cell(r.throughput_rps, 0)
        .end_row();
    csv.add_row({scenarios[i].name, std::to_string(r.completed), std::to_string(r.failed),
                 format_double(served, 2), format_double(r.throughput_rps, 1)});
  }
  t.print(std::cout);
  csv.close();
  std::cout << "\nPaper expectation: only the LARD front-end crash takes the whole\n"
               "service down; every other single-node loss is absorbed.\n";
  return 0;
}

// Persistent-connection (HTTP/1.1) study — the extension the paper points
// to at the end of Section 4 ("persistent connections can be handled by
// slightly modifying the algorithms"), using the two mechanisms of Aron
// et al.: connection hand-off vs back-end request forwarding.
//
// Findings this study demonstrates: with IID request streams, sticky
// connections *hurt* — consecutive requests of a connection are unrelated,
// so most need a migration (hand-off mode) or a bulk content fetch
// (back-end forwarding). With temporally correlated clients (the
// temporal_locality knob) the picture improves because repeats often live
// where the connection already sits. Hand-off preserves cache locality;
// back-end forwarding trades it for connection stability and pays with
// cluster-network bytes, so hand-off wins as files grow — Aron et al.'s
// conclusion.
int persistent(const Options& o) {
  std::cout << "Persistent connections: L2S on synthetic Calgary, 16 nodes "
            << "(--scale " << o.scale << ")\n\n";
  const double pts[] = {0.0, 0.6};
  const core::PersistentMode modes[] = {core::PersistentMode::kConnectionHandoff,
                                        core::PersistentMode::kBackendForwarding};
  const double rpcs[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  std::vector<trace::Trace> traces;
  for (const double pt : pts) traces.push_back(paper_trace("Calgary", o, UINT64_MAX, pt));
  std::vector<core::SimJob> jobs;
  for (const auto& tr : traces)
    for (const auto mode : modes)
      for (const double rpc : rpcs) {
        core::SimConfig cfg = sim_config(16);
        cfg.persistence.mean_requests_per_connection = rpc;
        cfg.persistence.mode = mode;
        jobs.push_back(job(tr, cfg, PolicyKind::kL2s, shrink(o)));
      }
  const auto results = core::run_parallel(jobs, o.threads);

  CsvWriter csv(o.csv_dir, "persistent_study",
                {"workload", "mode", "rpc", "rps", "forwarded", "migrations", "fetches"});
  std::size_t k = 0;
  for (const double pt : pts) {
    const std::string workload = pt == 0.0 ? "iid" : "temporal";
    std::cout << "--- workload: " << workload << " (temporal_locality=" << pt << ") ---\n";
    for (const auto mode : modes) {
      const char* mode_name =
          mode == core::PersistentMode::kConnectionHandoff ? "hand-off" : "backend-fwd";
      TextTable t({"Req/conn", "Throughput", "Forwarded (%)", "Migrations", "Fetches",
                   "Mean resp (ms)"});
      for (const double rpc : rpcs) {
        const auto& r = results[k++];
        t.cell(rpc, 0)
            .cell(r.throughput_rps, 0)
            .cell(r.forwarded_fraction * 100.0, 1)
            .cell(static_cast<long long>(r.migrations))
            .cell(static_cast<long long>(r.remote_fetches))
            .cell(r.mean_response_ms, 1)
            .end_row();
        csv.add_row({workload, mode_name, format_double(rpc, 0),
                     format_double(r.throughput_rps, 1), format_double(r.forwarded_fraction, 4),
                     std::to_string(r.migrations), std::to_string(r.remote_fetches)});
      }
      std::cout << "mode: " << mode_name << "\n";
      t.print(std::cout);
      std::cout << '\n';
    }
  }
  csv.close();
  return 0;
}

// DNS-caching imbalance study (Section 2): intermediate name servers cache
// round-robin DNS answers, so client populations pile onto a few nodes.
// A plain RR-DNS server cannot compensate; L2S redistributes work inside
// the cluster, so its throughput should hold while the naive server's
// collapses as the skew grows.
int dns_skew(const Options& o) {
  std::cout << "DNS-translation caching skew (synthetic Calgary, 16 nodes, "
            << "--scale " << o.scale << ")\n\n";
  const trace::Trace tr = paper_trace("Calgary", o);
  const double skews[] = {0.0, 0.2, 0.4, 0.6, 0.8};
  std::vector<core::SimJob> jobs;
  for (const double skew : skews) {
    core::SimConfig cfg = sim_config(16);
    cfg.arrival.dns_entry_skew = skew;
    jobs.push_back(job(tr, cfg, PolicyKind::kL2s, shrink(o)));
    jobs.push_back(job(tr, cfg, PolicyKind::kRoundRobin));
  }
  const auto r = core::run_parallel(jobs, o.threads);

  CsvWriter csv(o.csv_dir, "dns_skew_study",
                {"skew", "l2s_rps", "l2s_cov", "rrdns_rps", "rrdns_cov"});
  TextTable t({"Skew", "L2S req/s", "L2S load CoV", "RR-DNS req/s", "RR-DNS load CoV"});
  for (std::size_t i = 0; i < std::size(skews); ++i) {
    const auto& l2s_r = r[2 * i];
    const auto& rr_r = r[2 * i + 1];
    t.cell(skews[i], 1)
        .cell(l2s_r.throughput_rps, 0)
        .cell(l2s_r.load_cov, 3)
        .cell(rr_r.throughput_rps, 0)
        .cell(rr_r.load_cov, 3)
        .end_row();
    csv.add_row({format_double(skews[i], 2), format_double(l2s_r.throughput_rps, 1),
                 format_double(l2s_r.load_cov, 4), format_double(rr_r.throughput_rps, 1),
                 format_double(rr_r.load_cov, 4)});
  }
  t.print(std::cout);
  csv.close();
  std::cout << "\nExpectation: L2S holds its throughput (forwarding redistributes the\n"
               "work of skewed entries) while the naive RR-DNS server degrades.\n";
  return 0;
}

// Load-balance study: the paper argues L2S "balances load effectively"
// while a strict (no-replication) locality scheme suffers severe
// imbalance. This study quantifies it with the sampled per-node
// open-connection coefficient of variation (CoV, 0 = perfect balance) and
// the max/mean load ratio, across policies and cluster sizes, plus the
// no-replication L2S ablation that reproduces the "strict implementation"
// the paper warns about.
int load_balance(const Options& o) {
  std::cout << "Load imbalance (sampled open-connection CoV / max-mean ratio), "
            << "synthetic Calgary (--scale " << o.scale << ")\n\n";
  const trace::Trace tr = paper_trace("Calgary", o);
  const int node_counts[] = {4, 8, 16};
  std::vector<core::SimJob> jobs;
  std::vector<std::string> names;
  for (const int nodes : node_counts) {
    for (const auto kind : core::all_policies()) {
      jobs.push_back(job(tr, sim_config(nodes), kind, shrink(o)));
      names.emplace_back(core::policy_kind_name(kind));
    }
    // Strict locality (no replication): the paper's cautionary baseline.
    jobs.push_back(job(tr, sim_config(nodes), PolicyKind::kL2s, shrink(o), no_replication()));
    names.emplace_back("L2S-strict");
  }
  const auto results = core::run_parallel(jobs, o.threads);

  CsvWriter csv(o.csv_dir, "load_balance_study",
                {"policy", "nodes", "cov", "max_over_mean", "rps"});
  TextTable t({"Policy", "Nodes", "Load CoV", "max/mean", "Throughput"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const int nodes = jobs[i].sim.nodes;
    t.cell(names[i]).cell(static_cast<long long>(nodes)).cell(r.load_cov, 3)
        .cell(r.load_max_over_mean, 2).cell(r.throughput_rps, 0).end_row();
    csv.add_row({names[i], std::to_string(nodes), format_double(r.load_cov, 4),
                 format_double(r.load_max_over_mean, 4), format_double(r.throughput_rps, 1)});
  }
  t.print(std::cout);
  csv.close();
  std::cout << "\nPaper expectation: the traditional server balances best (it has\n"
               "nothing else to optimize); L2S stays close while keeping locality;\n"
               "strict no-replication locality shows severe imbalance.\n";
  return 0;
}

// Cache-replacement ablation: whole-file LRU (the paper's policy) vs GDSF
// (GreedyDual-Size with Frequency), per trace and per server policy.
//
// Expectation from the web-caching literature: GDSF raises the *request*
// hit rate when file sizes vary widely and capacity is tight (it keeps
// many small hot files instead of few big ones); with content-aware
// distribution the combined cache is already large relative to the working
// set, so the gap narrows.
int cache_policy(const Options& o) {
  std::cout << "Cache policy ablation: LRU vs GDSF (8 nodes, "
            << "--scale " << o.scale << ")\n\n";
  const auto specs = trace::paper_trace_specs();
  const PolicyKind kinds[] = {PolicyKind::kL2s, PolicyKind::kTraditional};
  std::vector<trace::Trace> traces;
  for (const auto& spec : specs) traces.push_back(trace::generate_scaled(spec, o.scale, 400000));
  std::vector<core::SimJob> jobs;
  for (const auto& tr : traces)
    for (const auto kind : kinds)
      for (const auto cache : {cluster::CachePolicy::kLru, cluster::CachePolicy::kGdsf}) {
        core::SimConfig cfg = sim_config(8);
        cfg.node.cache_policy = cache;
        jobs.push_back(job(tr, cfg, kind, shrink(o)));
      }
  const auto results = core::run_parallel(jobs, o.threads);

  CsvWriter csv(o.csv_dir, "cache_policy_study", {"trace", "policy", "cache", "rps", "missrate"});
  TextTable t({"Trace", "Server", "LRU req/s", "LRU miss%", "GDSF req/s", "GDSF miss%"});
  std::size_t k = 0;
  for (const auto& spec : specs) {
    for (const auto kind : kinds) {
      const auto& lru = results[k++];
      const auto& gdsf = results[k++];
      for (const auto* r : {&lru, &gdsf})
        csv.add_row({spec.name, core::policy_kind_name(kind), r == &lru ? "lru" : "gdsf",
                     format_double(r->throughput_rps, 1), format_double(r->miss_rate, 4)});
      t.cell(spec.name)
          .cell(core::policy_kind_name(kind))
          .cell(lru.throughput_rps, 0)
          .cell(lru.miss_rate * 100.0, 1)
          .cell(gdsf.throughput_rps, 0)
          .cell(gdsf.miss_rate * 100.0, 1)
          .end_row();
    }
  }
  t.print(std::cout);
  csv.close();
  return 0;
}

// Heterogeneous-cluster study. The paper assumes "all cluster nodes are
// equally powerful"; real clusters accrete generations of hardware. Here
// half the nodes run at half speed and we compare the policies:
// load-feedback distribution (L2S, trad's fewest-connections) adapts to
// the slow nodes automatically, while blind round-robin DNS overloads
// them.
int heterogeneity(const Options& o) {
  std::cout << "Heterogeneous cluster: half the nodes at half CPU speed "
            << "(synthetic Calgary, 16 nodes, --scale " << o.scale << ")\n\n";
  const trace::Trace tr = paper_trace("Calgary", o);
  const PolicyKind kinds[] = {PolicyKind::kL2s, PolicyKind::kTraditional,
                              PolicyKind::kRoundRobin};
  std::vector<core::SimJob> jobs;
  for (const bool heterogeneous : {false, true}) {
    core::SimConfig cfg = sim_config(16);
    if (heterogeneous) {
      cfg.node_speed_factors.assign(16, 1.0);
      for (std::size_t n = 8; n < 16; ++n) cfg.node_speed_factors[n] = 0.5;
    }
    for (const auto kind : kinds) jobs.push_back(job(tr, cfg, kind, shrink(o)));
  }
  const auto results = core::run_parallel(jobs, o.threads);

  CsvWriter csv(o.csv_dir, "heterogeneity_study",
                {"cluster", "policy", "rps", "load_cov", "idle_pct"});
  TextTable t({"Cluster", "Policy", "Throughput", "Load CoV", "Idle (%)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const std::string label = i < std::size(kinds) ? "homogeneous" : "8 fast + 8 half-speed";
    const char* name = core::policy_kind_name(jobs[i].kind);
    t.cell(label).cell(name).cell(r.throughput_rps, 0).cell(r.load_cov, 3)
        .cell(r.cpu_idle_fraction * 100.0, 1).end_row();
    csv.add_row({label, name, format_double(r.throughput_rps, 1), format_double(r.load_cov, 4),
                 format_double(r.cpu_idle_fraction, 4)});
  }
  t.print(std::cout);
  csv.close();
  std::cout << "\nExpectation: the heterogeneous cluster has 75% of the homogeneous\n"
               "CPU capacity, and CPU-bound L2S lands near that fraction — its\n"
               "load feedback shifts work to the fast nodes without configuration.\n"
               "The locality-oblivious baselines are disk-bound on this workload,\n"
               "so slower CPUs barely move them (their idle time drops instead).\n";
  return 0;
}

// Cross-validation of the two engines: the simulator in open-loop Poisson
// mode against the analytic M/M/1 network, on a fully cached single-node
// configuration where both describe the same system.
//
// The simulator's service times are deterministic, so its queueing is
// M/D/1-like and its mean response must sit *between* the pure service sum
// and the (more pessimistic, exponential-service) M/M/1 curve — closer to
// M/M/1 as load rises. Agreement here ties the Table 1 calibration of both
// engines together.
int latency_validation(const Options& o) {
  std::cout << "Latency validation: simulator (open loop) vs analytic model\n"
            << "(1 node, 16 KB files fully cached)\n\n";
  trace::SyntheticSpec spec;
  spec.name = "validation";
  spec.files = 50;
  spec.avg_file_kb = 16.0;
  spec.avg_request_kb = 16.0;
  spec.size_sigma = 0.1;
  spec.alpha = 0.9;
  spec.requests = 600000;
  const trace::Trace tr = trace::generate_scaled(spec, o.scale);

  model::ModelParams mp;
  mp.nodes = 1;
  const model::ClusterModel m(mp);
  const auto net = m.build_network(1.0, 0.0, 16.0, 16.0);
  const double capacity = net.max_throughput();
  std::cout << "model capacity: " << format_double(capacity, 0) << " req/s\n\n";

  const double fractions[] = {0.2, 0.4, 0.6, 0.75, 0.9};
  std::vector<core::SimJob> jobs;
  for (const double frac : fractions) {
    core::SimConfig cfg = sim_config(1, 8 * kMiB);
    cfg.arrival.open_loop_rate = frac * capacity;
    cfg.admission.buffer_slots_per_node = 2000;
    jobs.push_back(job(tr, cfg, PolicyKind::kTraditional));
  }
  const auto results = core::run_parallel(jobs, o.threads);

  TextTable t({"Load (%)", "arrival req/s", "sim mean (ms)", "sim p95 (ms)",
               "M/M/1 (ms)", "M/D/1 (ms)"});
  CsvWriter csv(o.csv_dir, "latency_validation",
                {"load", "rate", "sim_mean_ms", "sim_p95_ms", "mm1_ms", "md1_ms"});
  const double service_ms = net.solve(1e-9).mean_response * 1e3;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double rate = fractions[i] * capacity;
    const double mm1_ms = net.solve(rate).mean_response * 1e3;
    // Deterministic service halves each station's waiting (P-K with
    // cs2 = 0): the M/D/1 estimate is service + half the M/M/1 queueing.
    const double md1_ms = service_ms + 0.5 * (mm1_ms - service_ms);
    t.cell(fractions[i] * 100.0, 0)
        .cell(rate, 0)
        .cell(r.mean_response_ms, 2)
        .cell(r.p95_response_ms, 2)
        .cell(mm1_ms, 2)
        .cell(md1_ms, 2)
        .end_row();
    csv.add_row({format_double(fractions[i], 2), format_double(rate, 1),
                 format_double(r.mean_response_ms, 3), format_double(r.p95_response_ms, 3),
                 format_double(mm1_ms, 3), format_double(md1_ms, 3)});
  }
  t.print(std::cout);
  csv.close();
  std::cout << "\nExpected: the simulator's service times are deterministic, so its\n"
               "mean response should track the M/D/1 (Pollaczek-Khinchine, cs2=0)\n"
               "column, sitting well below M/M/1 at high load.\n";
  return 0;
}

// Simulated counterpart of Figure 5: the paper derives the locality gain
// analytically over the (hit rate x size) plane; here the same plane is
// sampled by *simulation* — synthetic workloads whose working sets imply
// the oblivious hit rate — comparing L2S against the traditional server.
// Agreement in shape between this grid and the model surface ties the two
// engines together on the paper's headline figure.
int fig5_simulated(const Options& o) {
  const auto requests = static_cast<std::uint64_t>(300000 * o.scale) + 20000;
  std::cout << "Figure 5 by simulation: L2S / traditional throughput ratio on a\n"
            << "(target Hlo x size) grid, 16 nodes, 32 MB caches "
            << "(--scale " << o.scale << ")\n\n";
  const double hit_rates[] = {0.5, 0.7, 0.85};
  const double sizes[] = {8.0, 24.0, 64.0};
  std::vector<trace::Trace> traces;
  for (const double hlo : hit_rates)
    for (const double size : sizes) {
      // A workload whose 32 MB oblivious hit rate is about `hlo` at this
      // average size: z(n, F) = hlo with n = 32 MB / size, solved for F.
      const double n = 32.0 * 1024.0 / size;
      trace::SyntheticSpec spec;
      spec.name = "plane";
      spec.files = static_cast<std::uint64_t>(
          std::min(zipf::invert_population(n, hlo, 1.0), 60000.0));
      spec.avg_file_kb = size;
      spec.avg_request_kb = size;
      spec.size_sigma = 0.4;
      spec.alpha = 1.0;
      spec.requests = requests;
      traces.push_back(trace::generate(spec));
    }
  std::vector<core::SimJob> jobs;
  for (const auto& tr : traces)
    for (const auto kind : {PolicyKind::kL2s, PolicyKind::kTraditional})
      jobs.push_back(job(tr, sim_config(16), kind, shrink(o)));
  const auto r = core::run_parallel(jobs, o.threads);

  model::ModelParams p;
  p.cache_bytes = 32 * kMiB;
  const model::ClusterModel m(p);
  CsvWriter csv(o.csv_dir, "fig5_simulated", {"hlo", "size_kb", "sim_ratio", "model_ratio"});
  TextTable t({"Hlo target", "S (KB)", "sim ratio", "model ratio"});
  std::size_t k = 0;
  double peak = 0.0;
  double peak_hlo = 0.0;
  double peak_size = 0.0;
  for (const double hlo : hit_rates)
    for (const double size : sizes) {
      const double sim_ratio = r[k].throughput_rps / r[k + 1].throughput_rps;
      k += 2;
      if (sim_ratio > peak) {
        peak = sim_ratio;
        peak_hlo = hlo;
        peak_size = size;
      }
      const double model_ratio =
          m.conscious(hlo, size).throughput / m.oblivious(hlo, size).throughput;
      t.cell(hlo, 2).cell(size, 0).cell(sim_ratio, 2).cell(model_ratio, 2).end_row();
      csv.add_row({format_double(hlo, 2), format_double(size, 0), format_double(sim_ratio, 3),
                   format_double(model_ratio, 3)});
    }
  t.print(std::cout);
  csv.close();
  std::cout << "\nExpected shape: both ratios grow as size falls and collapse toward\n"
               "(or below) 1 at high hit rate with large files. The simulated gain\n"
               "can exceed the model ratio at low hit rates: the traditional\n"
               "server's LRU does worse on an IID stream than the model's\n"
               "idealized keep-the-hottest-files cache, while L2S's partitioning\n"
               "escapes that penalty. The peak simulated gain is "
            << format_double(peak, 2) << "x\n(Hlo " << format_double(peak_hlo, 2) << ", S "
            << format_double(peak_size, 0)
            << " KB), against the paper's 'up to 7-fold' headline.\n";
  return 0;
}

// Panorama: every distribution scheme in the repository on one workload —
// the paper's policies (traditional, LARD, L2S), the naive RR-DNS server
// of Section 2, the follow-up LARD dispatcher variant of Related Work [4],
// and consistent hashing (the modern load-balancer default). ClarkNet is
// used because its light requests expose the front-end/dispatcher
// bottlenecks most clearly.
int panorama(const Options& o) {
  std::cout << "Policy panorama (synthetic ClarkNet, 16 nodes, "
            << "--scale " << o.scale << ")\n\n";
  const trace::Trace tr = paper_trace("Clarknet", o, 400000);
  const std::pair<const char*, PolicyKind> entries[] = {
      {"L2S", PolicyKind::kL2s},
      {"LARD (front-end)", PolicyKind::kLard},
      {"LARD (dispatcher)", PolicyKind::kLardDispatcher},
      {"consistent-hash", PolicyKind::kConsistentHash},
      {"traditional", PolicyKind::kTraditional},
      {"rr-dns", PolicyKind::kRoundRobin},
  };
  std::vector<core::SimJob> jobs;
  for (const auto& [name, kind] : entries) jobs.push_back(job(tr, sim_config(16), kind, shrink(o)));
  const auto results = core::run_parallel(jobs, o.threads);

  TextTable t({"Policy", "Throughput", "Miss (%)", "Forwarded (%)", "Idle (%)",
               "Load CoV", "p95 (ms)"});
  CsvWriter csv(o.csv_dir, "policy_panorama",
                {"policy", "rps", "miss", "forwarded", "idle", "cov", "p95_ms"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    t.cell(entries[i].first)
        .cell(r.throughput_rps, 0)
        .cell(r.miss_rate * 100.0, 1)
        .cell(r.forwarded_fraction * 100.0, 1)
        .cell(r.cpu_idle_fraction * 100.0, 1)
        .cell(r.load_cov, 2)
        .cell(r.p95_response_ms, 1)
        .end_row();
    csv.add_row({entries[i].first, format_double(r.throughput_rps, 1),
                 format_double(r.miss_rate, 4), format_double(r.forwarded_fraction, 4),
                 format_double(r.cpu_idle_fraction, 4), format_double(r.load_cov, 3),
                 format_double(r.p95_response_ms, 2)});
  }
  t.print(std::cout);
  csv.close();
  std::cout << "\nExpected ordering on this workload: L2S and the dispatcher variant\n"
               "lead (no accept bottleneck), the original LARD pins at its ~5000\n"
               "req/s front-end, consistent hashing gets the locality but not the\n"
               "balance, and the locality-oblivious servers trail far behind.\n";
  return 0;
}

// Per-resource breakdown reconstructed from telemetry spans.
//
// The paper explains cluster throughput by asking where a request's time
// goes: entry CPU work at the receiving node, the hand-off to the node
// that owns the content, storage (cache or disk), and the reply on the
// NIC. The engine accumulates those stages internally (SimResult
// stage_*_ms); this study recomputes the same breakdown *from the
// telemetry span stream alone* — fully sampled spans, the way a user
// would from `l2sim run --spans-out` — and cross-checks the two views
// against each other per cluster size and policy.
//
// Exits non-zero if the reconstruction diverges from the engine's own
// accumulators, making the span pipeline itself a regression-tested
// artifact.
int span_breakdown(const Options& o) {
  const trace::Trace tr = paper_trace("Calgary", o);
  std::cout << "Per-resource breakdown from telemetry spans (synthetic Calgary, "
            << tr.request_count() << " requests, --scale " << o.scale << ")\n\n";

  std::vector<core::SimJob> jobs;
  for (const auto kind : {PolicyKind::kTraditional, PolicyKind::kLard, PolicyKind::kL2s})
    for (const int nodes : {1, 2, 4, 8}) {
      core::SimConfig cfg = sim_config(nodes, 16 * kMiB);
      cfg.telemetry.enabled = true;
      cfg.telemetry.span_sample_every = 1;  // full capture: exact reconstruction
      cfg.telemetry.span_capacity = std::size_t{1} << 22;
      cfg.telemetry.probe = false;
      jobs.push_back(job(tr, cfg, kind));
    }
  const auto results = core::run_parallel(jobs, o.threads);

  CsvWriter csv(o.csv_dir, "span_breakdown_study",
                {"policy", "nodes", "entry_ms", "forward_ms", "disk_ms", "reply_ms", "total_ms"});
  TextTable t({"Policy", "Nodes", "Entry ms", "Hand-off ms", "Storage ms", "Reply ms",
               "Engine total", "Span total"});
  bool consistent = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (r.telemetry == nullptr) throw_error("span-breakdown: no telemetry");
    double entry = 0.0;
    double forward = 0.0;
    double disk = 0.0;
    double reply = 0.0;
    std::size_t n = 0;
    for (const telemetry::Span& s : r.telemetry->spans) {
      if (s.failed()) continue;
      entry += s.entry_ms();
      forward += s.forward_ms();
      disk += s.disk_ms();
      reply += s.reply_ms();
      ++n;
    }
    if (n == 0) throw_error("span-breakdown: no completed spans");
    const auto d = static_cast<double>(n);
    entry /= d;
    forward /= d;
    disk /= d;
    reply /= d;

    const double engine_total =
        r.stage_entry_ms + r.stage_forward_ms + r.stage_disk_ms + r.stage_reply_ms;
    const double span_total = entry + forward + disk + reply;
    // The engine averages the same four stage timestamps over the same
    // completed requests; full sampling must reproduce it to rounding.
    const double tol = 1e-6 * (1.0 + engine_total);
    consistent = consistent && std::abs(entry - r.stage_entry_ms) <= tol &&
                 std::abs(forward - r.stage_forward_ms) <= tol &&
                 std::abs(disk - r.stage_disk_ms) <= tol &&
                 std::abs(reply - r.stage_reply_ms) <= tol;

    const int nodes = jobs[i].sim.nodes;
    t.cell(r.policy)
        .cell(static_cast<long long>(nodes))
        .cell(entry, 4)
        .cell(forward, 4)
        .cell(disk, 4)
        .cell(reply, 4)
        .cell(engine_total, 4)
        .cell(span_total, 4)
        .end_row();
    csv.add_row({r.policy, std::to_string(nodes), format_double(entry, 6),
                 format_double(forward, 6), format_double(disk, 6), format_double(reply, 6),
                 format_double(span_total, 6)});
  }
  t.print(std::cout);
  csv.close();

  if (!consistent) {
    std::cerr << "span-breakdown: span reconstruction diverged from the "
                 "engine's stage accumulators\n";
    return 1;
  }
  std::cout << "\nspan reconstruction matches the engine's stage accumulators\n";
  return 0;
}

}  // namespace

const std::vector<Study>& studies() {
  static const std::vector<Study> all = {
      {"table1", "Table 1: model parameters and derived service rates", table1},
      {"fig3", "Figure 3: locality-oblivious throughput surface (model)", fig3},
      {"fig4", "Figure 4: locality-conscious throughput surface (model)", fig4},
      {"fig5", "Figure 5: throughput increase due to locality (model)", fig5},
      {"fig6", "Figure 6: side view of Figure 5", fig6},
      {"model-memory", "Section 3.2: locality gain vs per-node memory (model)", model_memory},
      {"model-replication", "Section 3.2: replication fraction R (model)", model_replication},
      {"latency-curves", "model mean response vs offered load", latency_curves},
      {"table2", "Table 2: characteristics of the synthetic traces", table2},
      {"miss-curves", "sequential LRU miss-ratio curves per trace", miss_curves},
      {"temporal-locality", "the temporal-locality knob vs sequential misses", temporal_locality},
      {"sim-memory", "Section 5.2: throughput vs per-node memory (ClarkNet)", sim_memory},
      {"sensitivity", "Section 5.2: L2S vs broadcast, messaging and network knobs", sensitivity},
      {"ablation", "L2S design ablation (thresholds, local bias, herd damping)", ablation},
      {"availability", "one node crashed halfway through the run", availability},
      {"persistent", "persistent connections: hand-off vs back-end forwarding", persistent},
      {"dns-skew", "Section 2: cached-DNS entry skew, L2S vs RR-DNS", dns_skew},
      {"load-balance", "per-node load CoV across policies and sizes", load_balance},
      {"cache-policy", "LRU vs GDSF replacement", cache_policy},
      {"heterogeneity", "half the nodes at half CPU speed", heterogeneity},
      {"latency-validation", "open-loop simulator vs M/M/1 and M/D/1", latency_validation},
      {"fig5-simulated", "Figure 5's plane sampled by simulation", fig5_simulated},
      {"panorama", "all six policies on ClarkNet at 16 nodes", panorama},
      {"span-breakdown", "stage breakdown from telemetry spans (exit 1 on divergence)",
       span_breakdown},
  };
  return all;
}

}  // namespace l2s::study
