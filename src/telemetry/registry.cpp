#include "l2sim/telemetry/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace l2s::telemetry {

Labels canonical_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string metric_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) key += ',';
      first = false;
      key += k;
      key += '=';
      key += v;
    }
    key += '}';
  }
  return key;
}

template <typename T>
T& Registry::get_or_register(const std::string& name, const Labels& labels,
                             MetricKind kind, std::deque<T>& pool, T initial) {
  Labels canonical = canonical_labels(labels);
  const std::string key = metric_key(name, canonical);
  if (auto it = by_key_.find(key); it != by_key_.end()) {
    const Entry& entry = order_[it->second];
    if (entry.kind != kind) {
      throw std::invalid_argument("Registry: metric '" + key + "' already registered as " +
                                  metric_kind_name(entry.kind));
    }
    return pool[entry.index];
  }
  pool.push_back(std::move(initial));
  by_key_.emplace(key, order_.size());
  order_.push_back(Entry{name, std::move(canonical), kind, pool.size() - 1});
  return pool.back();
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  return get_or_register(name, labels, MetricKind::kCounter, counters_, Counter{});
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  return get_or_register(name, labels, MetricKind::kGauge, gauges_, Gauge{});
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels) {
  return get_or_register(name, labels, MetricKind::kHistogram, histograms_, Histogram{});
}

BucketSeries& Registry::bucket_series(const std::string& name, const Labels& labels) {
  return get_or_register(name, labels, MetricKind::kBucketSeries, bucket_series_,
                         BucketSeries{});
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.metrics.reserve(order_.size());
  for (const Entry& entry : order_) {
    MetricSnapshot m;
    m.name = entry.name;
    m.labels = entry.labels;
    m.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        m.count = counters_[entry.index].value();
        m.value = static_cast<double>(m.count);
        break;
      case MetricKind::kGauge: {
        const Gauge& g = gauges_[entry.index];
        m.count = g.count();
        m.value = g.value();
        m.min = g.min();
        m.max = g.max();
        break;
      }
      case MetricKind::kHistogram: {
        const Histogram& h = histograms_[entry.index];
        m.count = h.count();
        m.histogram = h;
        break;
      }
      case MetricKind::kBucketSeries: {
        const BucketSeries& s = bucket_series_[entry.index];
        m.series_start = s.start();
        m.series_interval = s.interval();
        m.series_buckets = s.buckets();
        m.count = s.buckets().size();
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void Registry::reset() {
  for (auto& c : counters_) c.reset();
  for (auto& g : gauges_) g.reset();
  for (auto& h : histograms_) h.reset();
  for (auto& s : bucket_series_) s.reset();
}

const MetricSnapshot* Snapshot::find(const std::string& name, const Labels& labels) const {
  const Labels canonical = canonical_labels(labels);
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name && m.labels == canonical) return &m;
  }
  return nullptr;
}

void Snapshot::merge(const Snapshot& other) {
  nodes = std::max(nodes, other.nodes);
  span_sample_every = std::max(span_sample_every, other.span_sample_every);
  spans_recorded += other.spans_recorded;
  spans_overwritten += other.spans_overwritten;
  timelines.insert(timelines.end(), other.timelines.begin(), other.timelines.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
  fault_events.insert(fault_events.end(), other.fault_events.begin(),
                      other.fault_events.end());

  for (const MetricSnapshot& theirs : other.metrics) {
    MetricSnapshot* mine = nullptr;
    for (MetricSnapshot& m : metrics) {
      if (m.name == theirs.name && m.labels == theirs.labels) {
        mine = &m;
        break;
      }
    }
    if (mine == nullptr) {
      metrics.push_back(theirs);
      continue;
    }
    if (mine->kind != theirs.kind) {
      throw std::invalid_argument("Snapshot::merge: kind mismatch for metric '" +
                                  metric_key(theirs.name, theirs.labels) + "'");
    }
    switch (theirs.kind) {
      case MetricKind::kCounter:
        mine->count += theirs.count;
        mine->value = static_cast<double>(mine->count);
        break;
      case MetricKind::kGauge:
        if (theirs.count > 0) {
          if (mine->count == 0) {
            mine->min = theirs.min;
            mine->max = theirs.max;
            mine->value = theirs.value;
          } else {
            mine->min = std::min(mine->min, theirs.min);
            mine->max = std::max(mine->max, theirs.max);
            mine->value = std::max(mine->value, theirs.value);
          }
          mine->count += theirs.count;
        }
        break;
      case MetricKind::kHistogram:
        mine->histogram.merge(theirs.histogram);
        mine->count = mine->histogram.count();
        break;
      case MetricKind::kBucketSeries: {
        if (mine->series_interval == 0) {
          mine->series_start = theirs.series_start;
          mine->series_interval = theirs.series_interval;
        }
        if (theirs.series_buckets.size() > mine->series_buckets.size()) {
          mine->series_buckets.resize(theirs.series_buckets.size(), 0.0);
        }
        for (std::size_t i = 0; i < theirs.series_buckets.size(); ++i) {
          mine->series_buckets[i] += theirs.series_buckets[i];
        }
        mine->count = mine->series_buckets.size();
        break;
      }
    }
  }
}

}  // namespace l2s::telemetry
