// Temporal-locality calibration study.
//
// The paper's real traces produce miss rates between 9% and 28% on a
// sequential server with 32 MB of memory. IID Zipf sampling reproduces
// each trace's *popularity* profile but not its temporal correlation, so
// its sequential miss rates sit above that band for the larger working
// sets. This harness sweeps the generator's temporal_locality knob and
// reports the sequential 32 MB LRU miss rate, showing where each trace
// enters the paper's band — and, for one trace, how the knob shifts the
// policy comparison (every policy's cache benefits, so the relative
// Figure 7-10 results change little until the knob dominates).
#include <iostream>
#include <string>

#include "l2sim/l2sim.hpp"

using namespace l2s;

namespace {

double sequential_miss(const trace::Trace& tr, Bytes cache_bytes) {
  cache::LruCache c(cache_bytes);
  for (const auto& r : tr.requests())
    if (!c.lookup(r.file)) c.insert(r.file, tr.files().size_of(r.file));
  return c.stats().miss_rate();
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "Sequential 32 MB LRU miss rate (%) vs temporal_locality"
            << " (L2SIM_SCALE=" << scale << ")\n"
            << "Paper band for its real traces: 9-28%\n\n";

  CsvWriter csv(dir, "temporal_locality_study", {"trace", "pt", "miss"});
  TextTable t({"Trace", "pt=0", "pt=0.3", "pt=0.5", "pt=0.65", "pt=0.8"});
  for (const auto& base : trace::paper_trace_specs()) {
    t.cell(base.name);
    for (const double pt : {0.0, 0.3, 0.5, 0.65, 0.8}) {
      auto spec = base;
      spec.temporal_locality = pt;
      spec.requests = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale), 600000);
      const double miss = sequential_miss(trace::generate(spec), 32 * kMiB);
      t.cell(miss * 100.0, 1);
      csv.add_row({base.name, format_double(pt, 2), format_double(miss, 4)});
    }
    t.end_row();
  }
  t.print(std::cout);

  // Policy comparison at 8 nodes under rising temporal locality (Rutgers,
  // the largest working set): hit rates improve for everyone.
  std::cout << "\nRutgers, 8 nodes: throughput (req/s) and miss (%) vs pt\n";
  TextTable p({"pt", "L2S", "LARD", "trad", "trad miss (%)"});
  for (const double pt : {0.0, 0.5, 0.8}) {
    auto spec = trace::paper_trace_spec("Rutgers");
    spec.temporal_locality = pt;
    spec.requests =
        static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
    const auto tr = trace::generate(spec);
    core::SimConfig cfg;
    cfg.nodes = 8;
    cfg.node.cache_bytes = 32 * kMiB;
    const double shrink = 20.0 * scale;
    const auto l2s_r = core::run_once(tr, cfg, core::PolicyKind::kL2s, shrink);
    const auto lard_r = core::run_once(tr, cfg, core::PolicyKind::kLard, shrink);
    const auto trad_r = core::run_once(tr, cfg, core::PolicyKind::kTraditional, shrink);
    p.cell(pt, 2)
        .cell(l2s_r.throughput_rps, 0)
        .cell(lard_r.throughput_rps, 0)
        .cell(trad_r.throughput_rps, 0)
        .cell(trad_r.miss_rate * 100.0, 1)
        .end_row();
  }
  p.print(std::cout);
  return 0;
}
