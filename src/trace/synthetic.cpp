#include "l2sim/trace/synthetic.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/common/table.hpp"
#include "l2sim/zipf/sampler.hpp"

namespace l2s::trace {
namespace {

constexpr double kMinFileKb = 0.25;
constexpr double kMaxFileKb = 8192.0;

/// Draw `count` lognormal sizes (KB) whose empirical mean is rescaled to
/// exactly `mean_kb`, clamped to a sane range.
std::vector<double> draw_sizes(std::uint64_t count, double mean_kb, double sigma,
                               Rng& rng) {
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
  const double mu = std::log(mean_kb) - 0.5 * sigma * sigma;
  std::vector<double> sizes(count);
  double sum = 0.0;
  for (auto& s : sizes) {
    s = std::clamp(rng.next_lognormal(mu, sigma), kMinFileKb, kMaxFileKb);
    sum += s;
  }
  // Rescale so the average file size matches the spec exactly (clamping and
  // sampling noise shift it slightly).
  const double scale = mean_kb * static_cast<double>(count) / sum;
  for (auto& s : sizes) s = std::clamp(s * scale, kMinFileKb, kMaxFileKb);
  return sizes;
}

/// Reorder `sizes` (indexed by popularity rank, 0 = hottest) so that the
/// popularity-weighted mean approaches `target_kb`, by greedy swaps that
/// only ever move the mean toward the target. The multiset of sizes — and
/// hence the average *file* size and working set — is preserved exactly.
void tune_request_mean(std::vector<double>& sizes, const zipf::ZipfSampler& pop,
                       double target_kb, Rng& rng) {
  const std::uint64_t n = sizes.size();
  if (n < 2) return;
  std::vector<double> prob(n);
  double weighted = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) {
    prob[r] = pop.probability(r);
    weighted += prob[r] * sizes[r];
  }
  const double tolerance = 0.005 * target_kb;
  const std::uint64_t max_attempts = 400 * n;
  for (std::uint64_t attempt = 0;
       attempt < max_attempts && std::abs(weighted - target_kb) > tolerance; ++attempt) {
    std::uint64_t a = rng.next_below(n);
    std::uint64_t b = rng.next_below(n);
    if (a == b) continue;
    if (prob[a] < prob[b]) std::swap(a, b);  // a is the hotter rank
    const double delta = (prob[a] - prob[b]) * (sizes[b] - sizes[a]);
    const bool helps = (weighted < target_kb) ? delta > 0.0 : delta < 0.0;
    if (!helps) continue;
    // Do not overshoot past the target by more than we improve.
    if (std::abs(weighted + delta - target_kb) >= std::abs(weighted - target_kb)) continue;
    std::swap(sizes[a], sizes[b]);
    weighted += delta;
  }
}

}  // namespace

namespace {

/// Log-uniform draw in [lo, hi] KB.
double log_uniform(Rng& rng, double lo, double hi) {
  const double u = rng.next_double();
  return lo * std::exp(u * std::log(hi / lo));
}

std::vector<double> draw_class_sizes(const SyntheticSpec& spec, Rng& rng) {
  double total_weight = 0.0;
  for (const auto& c : spec.size_classes) total_weight += c.weight;
  std::vector<double> sizes(spec.files);
  for (auto& s : sizes) {
    double pick = rng.next_double() * total_weight;
    const SyntheticSpec::SizeClass* chosen = &spec.size_classes.back();
    for (const auto& c : spec.size_classes) {
      pick -= c.weight;
      if (pick <= 0.0) {
        chosen = &c;
        break;
      }
    }
    s = log_uniform(rng, chosen->min_kb, chosen->max_kb);
  }
  return sizes;
}

}  // namespace

void SyntheticSpec::validate() const {
  if (files == 0) throw_error("SyntheticSpec: files must be positive");
  if (requests == 0) throw_error("SyntheticSpec: requests must be positive");
  if (avg_file_kb <= 0.0 || avg_request_kb <= 0.0)
    throw_error("SyntheticSpec: average sizes must be positive");
  if (alpha <= 0.0) throw_error("SyntheticSpec: alpha must be positive");
  if (size_sigma <= 0.0) throw_error("SyntheticSpec: size_sigma must be positive");
  if (temporal_locality < 0.0 || temporal_locality >= 1.0)
    throw_error("SyntheticSpec: temporal_locality must be in [0, 1)");
  if (temporal_mean_depth < 1.0)
    throw_error("SyntheticSpec: temporal_mean_depth must be >= 1");
  for (const auto& c : size_classes) {
    if (c.weight <= 0.0) throw_error("SyntheticSpec: size class weight must be positive");
    if (c.min_kb <= 0.0 || c.max_kb < c.min_kb)
      throw_error("SyntheticSpec: size class bounds must satisfy 0 < min <= max");
  }
}

Trace generate(const SyntheticSpec& spec) {
  spec.validate();
  Rng rng(spec.seed);
  Rng size_rng = rng.split();
  Rng tune_rng = rng.split();
  Rng req_rng = rng.split();

  const zipf::ZipfSampler pop(spec.files, spec.alpha);
  std::vector<double> sizes_kb;
  if (spec.size_classes.empty()) {
    sizes_kb = draw_sizes(spec.files, spec.avg_file_kb, spec.size_sigma, size_rng);
    tune_request_mean(sizes_kb, pop, spec.avg_request_kb, tune_rng);
  } else {
    // Class-based sizes: averages are emergent, no tuning.
    sizes_kb = draw_class_sizes(spec, size_rng);
  }

  storage::FileSet files;
  files.reserve(spec.files);
  for (const double kb : sizes_kb) files.add(kib_to_bytes(kb));

  // Temporal locality: with probability `temporal_locality` a request
  // repeats one of the recently requested files, at a geometric depth into
  // the recent history. Sampling from the raw history (rather than a true
  // LRU stack) keeps generation O(1) per request and yields the same kind
  // of inter-reference correlation real logs show; the marginal popularity
  // stays Zipf because history entries are themselves Zipf draws.
  constexpr std::size_t kHistoryCap = 4096;
  std::vector<FileId> history;
  history.reserve(kHistoryCap);
  std::size_t history_next = 0;
  const double depth_log =
      std::log(1.0 - 1.0 / std::max(1.0, spec.temporal_mean_depth));

  std::vector<Request> requests;
  requests.reserve(spec.requests);
  for (std::uint64_t i = 0; i < spec.requests; ++i) {
    FileId rank;
    if (spec.temporal_locality > 0.0 && !history.empty() &&
        req_rng.next_double() < spec.temporal_locality) {
      double u = req_rng.next_double();
      while (u >= 1.0) u = req_rng.next_double();
      auto depth = static_cast<std::size_t>(std::log1p(-u) / depth_log);
      if (depth >= history.size()) depth = history.size() - 1;
      // history is a ring buffer; depth 0 = most recent.
      const std::size_t idx =
          (history_next + history.size() - 1 - depth) % history.size();
      rank = history[idx];
    } else {
      rank = static_cast<FileId>(pop.sample(req_rng));
      // Only fresh draws enter the history: repeats re-referencing the
      // buffer would compound popularity and distort the marginal (the
      // fitted alpha would drift well above the spec).
      if (history.size() < kHistoryCap) {
        history.push_back(rank);
        history_next = history.size() % kHistoryCap;
      } else {
        history[history_next] = rank;
        history_next = (history_next + 1) % kHistoryCap;
      }
    }
    requests.push_back(Request{rank, files.size_of(rank)});
  }
  return Trace(spec.name, std::move(files), std::move(requests));
}

std::vector<SyntheticSpec> paper_trace_specs() {
  // Table 2 of the paper. size_sigma values are chosen so the generated
  // working sets land in the paper's reported 288-717 MB span. The specs
  // default to IID Zipf sampling (temporal_locality = 0): real logs also
  // carry temporal correlation, and `l2sim study temporal-locality` shows
  // how raising the knob moves a sequential 32 MB server's miss rate into
  // the paper's 9-28% band — but because every policy's cache benefits
  // equally, the *relative* Figure 7-10 results are reproduced best with
  // the stationary workload, so that is the default.
  auto make = [](const char* name, std::uint64_t files, double avg_file_kb,
                 std::uint64_t requests, double avg_request_kb, double alpha,
                 double sigma, std::uint64_t seed) {
    SyntheticSpec spec;
    spec.name = name;
    spec.files = files;
    spec.avg_file_kb = avg_file_kb;
    spec.requests = requests;
    spec.avg_request_kb = avg_request_kb;
    spec.alpha = alpha;
    spec.size_sigma = sigma;
    spec.seed = seed;
    return spec;
  };
  std::vector<SyntheticSpec> specs;
  specs.push_back(make("Calgary", 8397, 42.9, 567895, 19.7, 1.08, 1.6, 0xCA15A21));
  specs.push_back(make("Clarknet", 35885, 11.6, 3053525, 11.9, 0.78, 1.4, 0xC1A2F1E7));
  specs.push_back(make("NASA", 5500, 53.7, 3147719, 47.0, 0.91, 1.5, 0x8A5A0001));
  specs.push_back(make("Rutgers", 24098, 30.5, 535021, 26.2, 0.79, 1.5, 0x20000325));
  return specs;
}

SyntheticSpec specweb99_spec(std::uint64_t files, std::uint64_t requests,
                             std::uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "specweb99";
  spec.files = files;
  spec.requests = requests;
  spec.alpha = 1.0;  // SPECweb99 uses a Zipf file popularity within classes
  spec.seed = seed;
  spec.size_classes = {
      {0.35, 0.1, 1.0},     // class 0: under 1 KB
      {0.50, 1.0, 10.0},    // class 1: 1-10 KB (half the requests)
      {0.14, 10.0, 100.0},  // class 2: 10-100 KB
      {0.01, 100.0, 1024.0} // class 3: 100 KB-1 MB
  };
  return spec;
}

Trace generate_scaled(SyntheticSpec spec, double scale, std::uint64_t max_requests) {
  if (!std::isfinite(scale) || scale <= 0.0)
    throw_error("--scale must be a finite number > 0, got " + format_exact(scale));
  const double requests = static_cast<double>(spec.requests) * scale;
  if (requests < 1.0 || requests >= 0x1p64)  // the cast below needs [1, 2^64)
    throw_error("--scale " + format_exact(scale) + " gives " + spec.name + " " +
                format_exact(requests) + " requests; it needs at least 1, below 2^64");
  spec.requests = std::min(static_cast<std::uint64_t>(requests), max_requests);
  return generate(spec);
}

SyntheticSpec paper_trace_spec(const std::string& name) {
  auto lower = [](std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
  };
  const std::string want = lower(name);
  for (const auto& spec : paper_trace_specs())
    if (lower(spec.name) == want) return spec;
  throw_error("unknown paper trace: " + name +
              " (expected Calgary, Clarknet, NASA or Rutgers)");
}

}  // namespace l2s::trace
