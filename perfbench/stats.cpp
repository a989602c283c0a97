#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/// Nearest-rank quantile (the ceil(q * n)-th smallest value) of
/// `sorted`, ascending; 0 when empty.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t i =
      rank <= 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

}  // namespace

Quantiles summarize(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  return Quantiles{quantile_sorted(values, 0.50), quantile_sorted(values, 0.90),
                   quantile_sorted(values, 0.99), values.size()};
}

double median(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

double calm_median(const std::vector<double>& values,
                   const std::vector<double>& steal, std::size_t keep) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal.at(a) < steal.at(b);
  });
  order.resize(std::min(keep, order.size()));
  std::vector<double> kept;
  for (const std::size_t i : order) {
    kept.push_back(values[i]);
  }
  return median(kept);
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

std::uint64_t self_time_ns(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.begin) {
    return 0;
  }
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.begin;  // end of the union so far
  for (const Interval& c : children) {
    if (c.end <= c.begin || c.end <= reach) {
      continue;
    }
    covered += c.end - std::max(c.begin, reach);
    reach = c.end;
  }
  return (parent.end - parent.begin) - covered;
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name '" + name + "'");
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("bad unit '" + unit + "' for " + name);
  }
  if (contains(name)) {
    throw std::invalid_argument("duplicate metric '" + name + "'");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  entries_.push_back(Entry{name, value, unit});
}

bool MetricSet::contains(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

shlcp::Json MetricSet::to_json() const {
  shlcp::Json out = shlcp::Json::object();
  for (const Entry& e : entries_) {
    shlcp::Json& m = (out[e.name] = shlcp::Json::object());
    m["value"] = e.value;
    m["unit"] = e.unit;
  }
  return out;
}

}  // namespace perfbench
