#include "l2sim/core/report.hpp"

#include <ostream>

#include "l2sim/common/csv.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/common/table.hpp"

namespace l2s::core {

void print_throughput_figure(std::ostream& os, const FigureSeries& fig) {
  os << "Throughputs for the " << fig.trace_name << " trace (requests/sec)\n";
  TextTable t({"Nodes", "model", "L2S", "LARD", "trad"});
  for (std::size_t i = 0; i < fig.node_counts.size(); ++i) {
    t.cell(static_cast<long long>(fig.node_counts[i]))
        .cell(fig.model_rps[i], 0)
        .cell(fig.l2s[i].throughput_rps, 0)
        .cell(fig.lard[i].throughput_rps, 0)
        .cell(fig.traditional[i].throughput_rps, 0)
        .end_row();
  }
  t.print(os);
}

void write_throughput_csv(const FigureSeries& fig, const std::string& dir,
                          const std::string& name) {
  CsvWriter csv(dir, name, {"nodes", "model", "l2s", "lard", "trad"});
  for (std::size_t i = 0; i < fig.node_counts.size(); ++i) {
    csv.add_row({std::to_string(fig.node_counts[i]), format_double(fig.model_rps[i], 1),
                 format_double(fig.l2s[i].throughput_rps, 1),
                 format_double(fig.lard[i].throughput_rps, 1),
                 format_double(fig.traditional[i].throughput_rps, 1)});
  }
  csv.close();
}

double metric_value(const SimResult& r, const std::string& metric) {
  if (metric == "missrate") return r.miss_rate * 100.0;
  if (metric == "idle") return r.cpu_idle_fraction * 100.0;
  if (metric == "forwarded") return r.forwarded_fraction * 100.0;
  if (metric == "response") return r.mean_response_ms;
  if (metric == "throughput") return r.throughput_rps;
  throw_error("unknown metric: " + metric);
}

void print_metric_figure(std::ostream& os, const FigureSeries& fig,
                         const std::string& metric) {
  os << metric << " for the " << fig.trace_name << " trace\n";
  TextTable t({"Nodes", "L2S", "LARD", "trad"});
  for (std::size_t i = 0; i < fig.node_counts.size(); ++i) {
    t.cell(static_cast<long long>(fig.node_counts[i]))
        .cell(metric_value(fig.l2s[i], metric), 2)
        .cell(metric_value(fig.lard[i], metric), 2)
        .cell(metric_value(fig.traditional[i], metric), 2)
        .end_row();
  }
  t.print(os);
}

}  // namespace l2s::core
