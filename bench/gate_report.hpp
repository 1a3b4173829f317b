// Acceptance-gate reporting shared by the gated benches (fault, overload,
// topology, analytic, obs, telemetry): the PASS/FAIL listing, the
// `gates` / `all_gates_pass` block that closes each BENCH_*.json, and the
// write of that file through telemetry::export_to, so a report that cannot
// be written fails the bench instead of passing silently.
#pragma once

#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/telemetry/exporters.hpp"

namespace l2s::benchgate {

/// One acceptance gate: its JSON key, its verdict and what was measured.
struct Gate {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// Write `path` through `writer` and report it on stdout. Returns false,
/// after an error on stderr that names the path, when the file cannot be
/// opened or written (a missing directory, a full disk, /dev/full).
[[nodiscard]] inline bool write_report(const std::string& path,
                                       const std::function<void(std::ostream&)>& writer) {
  try {
    telemetry::export_to(path, writer);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

/// A gated bench's ending: print the gate listing, write the JSON report —
/// `write_fields` emits the opening brace and every key before "gates";
/// this closes the object with "gates" and "all_gates_pass" — and return
/// the exit status: 0 only when the report was written and every gate
/// passed.
[[nodiscard]] inline int finish(const std::string& bench, const std::string& path,
                                const std::vector<Gate>& gates,
                                const std::function<void(std::ostream&)>& write_fields) {
  std::cout << "\ngates:\n";
  for (const auto& g : gates)
    std::cout << "  [" << (g.pass ? "PASS" : "FAIL") << "] " << g.name << ": " << g.detail
              << "\n";
  const bool pass =
      std::all_of(gates.begin(), gates.end(), [](const Gate& g) { return g.pass; });
  const bool written = write_report(path, [&](std::ostream& out) {
    write_fields(out);
    out << "  \"gates\": {\n";
    for (std::size_t i = 0; i < gates.size(); ++i)
      out << "    \"" << gates[i].name << "\": " << (gates[i].pass ? "true" : "false")
          << (i + 1 == gates.size() ? "\n" : ",\n");
    out << "  },\n"
        << "  \"all_gates_pass\": " << (pass ? "true" : "false") << "\n"
        << "}\n";
  });
  if (!written) return 1;
  if (!pass) {
    std::cerr << bench << ": gates FAILED\n";
    return 1;
  }
  std::cout << bench << ": all gates pass\n";
  return 0;
}

}  // namespace l2s::benchgate
