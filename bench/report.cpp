#include "report.h"

#include <benchmark/benchmark.h>

#include <array>
#include <utility>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string_view>
#include <thread>

#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace shlcp::bench {

namespace {

/// `git describe` of the working tree, or "unknown" when git or the
/// repository is unavailable (e.g. running from an exported tarball).
std::string git_describe() {
  std::FILE* pipe =
      ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) {
    return "unknown";
  }
  std::array<char, 128> buf{};
  std::string out;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    out += buf.data();
  }
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0 || out.empty()) {
    return "unknown";
  }
  return out;
}

using Compare = bool (*)(long double, long double);

/// The comparison behind a gate relation; nullptr when unknown.
Compare find_relation(std::string_view relation) {
  static const std::pair<std::string_view, Compare> kRelations[] = {
      {"==", [](long double a, long double b) { return a == b; }},
      {">=", [](long double a, long double b) { return a >= b; }},
      {"<=", [](long double a, long double b) { return a <= b; }},
      {">", [](long double a, long double b) { return a > b; }},
      {"<", [](long double a, long double b) { return a < b; }},
  };
  for (const auto& [name, compare] : kRelations) {
    if (name == relation) {
      return compare;
    }
  }
  return nullptr;
}

/// The child of `node` named `key`: an object member, or the element of
/// an array whose "name" member equals `key`. nullptr when absent.
const Json* child(const Json& node, std::string_view key) {
  if (node.is_object()) {
    for (const auto& [k, v] : node.members()) {
      if (k == key) {
        return &v;
      }
    }
  } else if (node.is_array()) {
    for (const Json& item : node.items()) {
      if (item.is_object() && item.contains("name") &&
          item.at("name").is_string() && item.at("name").as_string() == key) {
        return &item;
      }
    }
  }
  return nullptr;
}

/// Resolves a gate path (grammar in report.h) against `doc`. nullptr
/// when the path is malformed or any segment is missing.
const Json* resolve(const Json& doc, std::string_view path) {
  const Json* node = &doc;
  std::size_t i = 0;
  while (i < path.size()) {
    std::string_view key;
    if (path[i] == '[') {
      const std::size_t close = path.find(']', i);
      if (close == std::string_view::npos) {
        return nullptr;
      }
      key = path.substr(i + 1, close - i - 1);
      i = close + 1;
    } else {
      const std::size_t end = std::min(path.find_first_of(".[", i),
                                       path.size());
      key = path.substr(i, end - i);
      i = end;
    }
    if (i < path.size() && path[i] == '.') {
      ++i;
      if (i == path.size()) {
        return nullptr;  // trailing '.'
      }
    } else if (i < path.size() && path[i] != '[') {
      return nullptr;  // "[a]b": a bracket must end a segment
    }
    node = key.empty() ? nullptr : child(*node, key);
    if (node == nullptr) {
      return nullptr;
    }
  }
  return path.empty() ? nullptr : node;
}

/// One side of a gate: a number or a bool (held as 0 / 1), or why it is
/// neither.
struct Operand {
  bool is_bool = false;
  long double value = 0;  // exact for every int64 / uint64
  std::string text;       // how a failure message shows it
  std::string error;      // non-empty: the gate fails with this
};

Operand failed(std::string error) {
  Operand op;
  op.error = std::move(error);
  return op;
}

/// A literal or a path; paths render as "path = value".
Operand operand(const Json& doc, const Json& spec) {
  const Json* value = spec.is_string() ? resolve(doc, spec.as_string())
                                       : &spec;
  if (value == nullptr) {
    return failed(spec.as_string() + " is missing");
  }
  Operand op;
  op.text = spec.is_string() ? spec.as_string() + " = " + value->dump()
                             : value->dump();
  if (value->is_bool()) {
    op.is_bool = true;
    op.value = value->as_bool() ? 1 : 0;
  } else if (value->type() == Json::Type::kInt) {
    op.value = static_cast<long double>(value->as_int());
  } else if (value->is_integer()) {
    op.value = static_cast<long double>(value->as_uint());
  } else if (value->is_number()) {
    op.value = static_cast<long double>(value->as_double());
  } else {
    return failed(op.text + " is neither a number nor a bool");
  }
  return op;
}

/// The sum of the counters at `terms`.
Operand sum(const Json& doc, const Json& terms) {
  Operand op;
  for (const Json& term : terms.items()) {
    if (!term.is_string()) {
      return failed("a sum term is not a path");
    }
    const Json* value = resolve(doc, term.as_string());
    if (value == nullptr) {
      return failed(term.as_string() + " is missing");
    }
    if (!value->is_integer() ||
        (value->type() == Json::Type::kInt && value->as_int() < 0)) {
      return failed(term.as_string() + " = " + value->dump() +
                    " is not a non-negative integer");
    }
    op.value += static_cast<long double>(value->as_uint());
    op.text += (op.text.empty() ? "" : " + ") + term.as_string();
  }
  if (op.text.empty()) {
    return failed("empty sum");
  }
  op.text += format(" = %.0Lf", op.value);
  return op;
}

/// Evaluates one gate; returns "" when it holds, else why it fails.
std::string gate_failure(const Json& doc, const Json& gate) {
  if (!gate.is_object() || !gate.contains("name") ||
      !gate.contains("observed") || !gate.contains("relation") ||
      !gate.contains("bound") || !gate.at("name").is_string() ||
      !gate.at("relation").is_string()) {
    return "malformed gate " + gate.dump();
  }
  const std::string& name = gate.at("name").as_string();
  const std::string& relation = gate.at("relation").as_string();
  const Compare compare = find_relation(relation);
  if (compare == nullptr) {
    return name + ": unknown relation " + gate.at("relation").dump();
  }
  const Json& observed = gate.at("observed");
  const Operand a = observed.is_array() ? sum(doc, observed)
                    : observed.is_string()
                        ? operand(doc, observed)
                        : failed("observed is not a path");
  const Operand b = operand(doc, gate.at("bound"));
  if (!a.error.empty() || !b.error.empty()) {
    return name + ": " + (a.error.empty() ? b.error : a.error);
  }
  // Bools compare only with bools, and only for equality.
  const bool ok = a.is_bool || b.is_bool
                      ? a.is_bool && b.is_bool && relation == "==" &&
                            a.value == b.value
                      : compare(a.value, b.value);
  return ok ? "" : name + ": " + a.text + ", expected " + relation + " " +
                       b.text;
}

void write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  SHLCP_CHECK_MSG(f != nullptr,
                  format("Report: cannot open '%s'", path.c_str()));
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

bool smoke() {
  const char* env = std::getenv("SHLCP_BENCH_SMOKE");
  return env != nullptr && *env != '\0';
}

Report::Report(std::string name) : name_(std::move(name)) {
  SHLCP_CHECK_MSG(!name_.empty(), "Report needs a non-empty bench name");
}

Json& Report::add_case(std::string name) {
  Json& entry = cases_.push_back(Json::object());
  entry["name"] = std::move(name);
  return entry["values"] = Json::object();
}

void Report::add_gate(std::string name, Json observed, const char* relation,
                      Json bound) {
  SHLCP_CHECK_MSG(find_relation(relation) != nullptr,
                  format("gate '%s': unknown relation '%s'", name.c_str(),
                         relation));
  for (const Json& g : gates_.items()) {
    SHLCP_CHECK_MSG(g.at("name").as_string() != name,
                    "duplicate gate name " + name);
  }
  Json& entry = gates_.push_back(Json::object());
  entry["name"] = std::move(name);
  entry["observed"] = std::move(observed);
  entry["relation"] = relation;
  entry["bound"] = std::move(bound);
}

void Report::gate(std::string name, std::string observed,
                  const char* relation, Json bound) {
  add_gate(std::move(name), Json(std::move(observed)), relation,
           std::move(bound));
}

void Report::gate_sum(std::string name, const std::vector<std::string>& terms,
                      const char* relation, Json bound) {
  Json observed = Json::array();
  for (const std::string& term : terms) {
    observed.push_back(term);
  }
  add_gate(std::move(name), std::move(observed), relation, std::move(bound));
}

Json Report::to_json() const {
  Json doc = Json::object();
  doc["schema"] = kSchemaVersion;
  doc["bench"] = name_;
  Json& run = doc["run"] = Json::object();
  run["git"] = git_describe();
  run["unix_time"] = static_cast<std::int64_t>(std::time(nullptr));
  run["hardware_concurrency"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  run["num_threads"] = static_cast<std::uint64_t>(resolve_num_threads(0));
  run["smoke"] = smoke();
  doc["meta"] = meta_;
  doc["cases"] = cases_;
  doc["metrics"] = metrics::snapshot().to_json();
  doc["gates"] = gates_;
  return doc;
}

void Report::write() const { write_to("BENCH_" + name_ + ".json"); }

void Report::write_to(const std::string& path) const {
  write_text(path, to_json().dump(2) + "\n");
}

int Report::write_gated() const {
  const Json doc = to_json();
  write_text("BENCH_" + name_ + ".json", doc.dump(2) + "\n");
  const std::vector<std::string> failures = failed_gates(doc);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "bench_%s: GATE FAILED %s\n", name_.c_str(),
                 failure.c_str());
  }
  std::printf("%zu/%zu gates hold\n", gates_.size() - failures.size(),
              gates_.size());
  return failures.empty() ? 0 : 1;
}

std::vector<std::string> failed_gates(const Json& doc) {
  std::vector<std::string> failures;
  for (const Json& gate : doc.at("gates").items()) {
    std::string failure = gate_failure(doc, gate);
    if (!failure.empty()) {
      failures.push_back(std::move(failure));
    }
  }
  return failures;
}

int run_benchmarks(int argc, char** argv) {
  if (smoke()) {
    std::printf("smoke mode: skipping google-benchmark timing loops\n");
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace shlcp::bench
