// Summary statistics and the result format of the serving benchmark.
//
// Every timing the benchmark reports is an order statistic of a sample
// and travels with its sample count (Quantiles), so a p99 over 40
// samples can never pass for one over 40 000. Metric names and units
// follow the grammar the benchmark contract fixes; MetricSet refuses
// anything else at insertion, so a typo fails the run instead of
// silently producing a metric no one compares.
//
// self_time_ns is the trace arithmetic: a span's duration minus the
// part of its interval that its children cover (overlapping children
// are counted once, and child time outside the parent is ignored).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

/// Median and tail of one latency sample (nearest-rank quantiles: the
/// ceil(q * n)-th smallest value), with its size.
struct Quantiles {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  std::size_t samples = 0;
};

/// Sorts `values` in place and summarizes them.
Quantiles summarize(std::vector<double>& values);

/// Median of `values` (sorted in place); 0 when empty.
double median(std::vector<double>& values);

/// Median of values[i] over the `keep` windows i with the least CPU
/// steal (the earlier window first among equals); `steal[i]` is window
/// i's stolen share of the machine's CPU time. A window the hypervisor
/// starved measures the host, not the server, so the noisier windows
/// are left out.
double calm_median(const std::vector<double>& values,
                   const std::vector<double>& steal, std::size_t keep);

/// A name: starts with a letter or digit, then letters, digits, '_',
/// '.', '-'; at most 64 characters.
bool valid_metric_name(std::string_view name);

/// A unit: 1..16 of letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(std::string_view unit);

/// Half-open interval [begin, end) in nanoseconds.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// parent's duration minus the union of children clipped to parent.
std::uint64_t self_time_ns(Interval parent, std::vector<Interval> children);

/// Ordered, validated set of named metrics.
class MetricSet {
 public:
  /// Throws std::invalid_argument on a malformed name or unit, a
  /// duplicate name, or a non-finite value.
  void add(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// {"<name>": {"value": v, "unit": u}, ...} in insertion order.
  [[nodiscard]] shlcp::Json to_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
