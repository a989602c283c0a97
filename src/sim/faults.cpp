#include "sim/faults.h"

#include <algorithm>

#include "util/check.h"
#include "util/descriptor.h"
#include "util/format.h"

namespace shlcp {

namespace {

std::string show_node_list(const std::vector<Node>& nodes) {
  if (nodes.empty()) {
    return "-";
  }
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out += format("%s%d", i == 0 ? "" : ",", nodes[i]);
  }
  return out;
}

constexpr DescriptorParser kFields{"fault-plan"};

/// "-" or comma-separated node ids, each a whole non-negative number.
std::vector<Node> parse_node_list(const std::string& text) {
  std::vector<Node> nodes;
  if (text == "-") {
    return nodes;
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    nodes.push_back(static_cast<Node>(
        kFields.number(std::string_view(text).substr(start, end - start))));
    if (comma == std::string::npos) {
      return nodes;
    }
    start = comma + 1;
  }
}

int signed_delta(Rng& rng) {
  const int magnitude = rng.next_int(1, 3);
  return rng.next_coin() ? magnitude : -magnitude;
}

}  // namespace

bool FaultPlan::enabled() const {
  return drop_permille > 0 || duplicate_permille > 0 || corrupt_permille > 0 ||
         !crash_nodes.empty() || !byzantine_nodes.empty();
}

std::string FaultPlan::describe() const {
  return format("%s;seed=0x%llx;drop=%d;dup=%d;corrupt=%d;crash=%s@%d;byz=%s",
                label.c_str(), static_cast<unsigned long long>(seed),
                drop_permille, duplicate_permille, corrupt_permille,
                show_node_list(crash_nodes).c_str(), crash_round,
                show_node_list(byzantine_nodes).c_str());
}

FaultPlan FaultPlan::parse(const std::string& descriptor) {
  const std::vector<std::string> fields = kFields.split(descriptor, 7);
  FaultPlan plan;
  plan.label = fields[0];
  plan.seed = kFields.seed(kFields.value(fields[1], "seed"));
  plan.drop_permille =
      kFields.number(kFields.value(fields[2], "drop"), kPermilleMax);
  plan.duplicate_permille =
      kFields.number(kFields.value(fields[3], "dup"), kPermilleMax);
  plan.corrupt_permille =
      kFields.number(kFields.value(fields[4], "corrupt"), kPermilleMax);
  const std::string crash = kFields.value(fields[5], "crash");
  const std::size_t at = crash.find('@');
  SHLCP_CHECK_MSG(at != std::string::npos,
                  "fault-plan descriptor: crash field needs '@round'");
  plan.crash_nodes = parse_node_list(crash.substr(0, at));
  plan.crash_round = kFields.number(std::string_view(crash).substr(at + 1));
  plan.byzantine_nodes = parse_node_list(kFields.value(fields[6], "byz"));
  return plan;
}

std::vector<FaultPlan> FaultPlan::standard_family(std::uint64_t seed,
                                                  int num_nodes) {
  SHLCP_CHECK(num_nodes >= 1);
  const auto sub = [&](std::uint64_t salt) { return mix64(seed ^ salt); };
  std::vector<FaultPlan> family;
  const auto add = [&](FaultPlan plan) { family.push_back(std::move(plan)); };

  FaultPlan none;
  none.label = "fault-free";
  none.seed = sub(1);
  add(none);

  FaultPlan drop_light;
  drop_light.label = "drop-light";
  drop_light.seed = sub(2);
  drop_light.drop_permille = 100;
  add(drop_light);

  FaultPlan drop_heavy;
  drop_heavy.label = "drop-heavy";
  drop_heavy.seed = sub(3);
  drop_heavy.drop_permille = 500;
  add(drop_heavy);

  FaultPlan dup;
  dup.label = "duplicate";
  dup.seed = sub(4);
  dup.duplicate_permille = 400;
  add(dup);

  FaultPlan corrupt_light;
  corrupt_light.label = "corrupt-light";
  corrupt_light.seed = sub(5);
  corrupt_light.corrupt_permille = 150;
  add(corrupt_light);

  FaultPlan corrupt_heavy;
  corrupt_heavy.label = "corrupt-heavy";
  corrupt_heavy.seed = sub(6);
  corrupt_heavy.corrupt_permille = 600;
  add(corrupt_heavy);

  FaultPlan crash1;
  crash1.label = "crash-1";
  crash1.seed = sub(7);
  crash1.crash_nodes = {static_cast<Node>(num_nodes / 2)};
  crash1.crash_round = 1;
  add(crash1);

  if (num_nodes >= 2) {
    FaultPlan crash2;
    crash2.label = "crash-2";
    crash2.seed = sub(8);
    crash2.crash_nodes = {0, static_cast<Node>(num_nodes - 1)};
    crash2.crash_round = 1;
    add(crash2);
  }

  FaultPlan byz;
  byz.label = "byzantine-1";
  byz.seed = sub(9);
  byz.byzantine_nodes = {static_cast<Node>((num_nodes - 1) / 2)};
  add(byz);

  FaultPlan mix;
  mix.label = "byz-drop-mix";
  mix.seed = sub(10);
  mix.drop_permille = 150;
  mix.byzantine_nodes = {0};
  add(mix);

  return family;
}

void corrupt_message(Message& message, Rng& rng, bool allow_structural,
                     FaultStats& stats) {
  if (message.records.empty()) {
    return;
  }
  // Structural mutation of the record list itself (round >= 2 only).
  if (allow_structural && message.records.size() > 1 && rng.next_bool(1, 6)) {
    const std::size_t victim = rng.next_below(message.records.size());
    message.records.erase(message.records.begin() +
                          static_cast<std::ptrdiff_t>(victim));
    stats.corrupted_fields += 1;
    return;
  }
  NodeRecord& rec = message.records[rng.next_below(message.records.size())];
  enum Kind { kId, kCertField, kEdgeFarId, kEdgePort, kEdgeErase, kComplete };
  std::vector<Kind> kinds = {kId};
  if (!rec.cert.fields.empty()) {
    kinds.push_back(kCertField);
  }
  if (!rec.edges.empty()) {
    kinds.push_back(kEdgeFarId);
    kinds.push_back(kEdgePort);
  }
  if (allow_structural) {
    if (!rec.edges.empty()) {
      kinds.push_back(kEdgeErase);
    }
    kinds.push_back(kComplete);
  }
  switch (kinds[rng.next_below(kinds.size())]) {
    case kId:
      rec.id = std::max<Ident>(1, rec.id + signed_delta(rng));
      break;
    case kCertField: {
      const std::size_t i = rng.next_below(rec.cert.fields.size());
      rec.cert.fields[i] += signed_delta(rng);
      break;
    }
    case kEdgeFarId: {
      EdgeInfo& e = rec.edges[rng.next_below(rec.edges.size())];
      e.far_id = std::max<Ident>(1, e.far_id + signed_delta(rng));
      break;
    }
    case kEdgePort: {
      EdgeInfo& e = rec.edges[rng.next_below(rec.edges.size())];
      Port& p = rng.next_coin() ? e.self_port : e.far_port;
      p = std::max<Port>(1, p + signed_delta(rng));
      break;
    }
    case kEdgeErase:
      rec.edges.erase(rec.edges.begin() + static_cast<std::ptrdiff_t>(
                                              rng.next_below(rec.edges.size())));
      break;
    case kComplete:
      rec.complete = !rec.complete;
      break;
  }
  stats.corrupted_fields += 1;
}

FaultyChannel::FaultyChannel(FaultPlan plan) : plan_(std::move(plan)) {
  std::sort(plan_.crash_nodes.begin(), plan_.crash_nodes.end());
  std::sort(plan_.byzantine_nodes.begin(), plan_.byzantine_nodes.end());
}

Rng FaultyChannel::event_rng(int round, Node from, Node to,
                             std::uint64_t salt) const {
  std::uint64_t h = plan_.seed;
  h = mix64(h ^ (0x6a09e667f3bcc909ULL + static_cast<std::uint64_t>(round)));
  h = mix64(h ^ (0xbb67ae8584caa73bULL +
                 static_cast<std::uint64_t>(static_cast<std::int64_t>(from))));
  h = mix64(h ^ (0x3c6ef372fe94f82bULL +
                 static_cast<std::uint64_t>(static_cast<std::int64_t>(to))));
  return Rng(mix64(h ^ salt));
}

bool FaultyChannel::alive(int round, Node v) const {
  if (round < plan_.crash_round) {
    return true;
  }
  return !std::binary_search(plan_.crash_nodes.begin(),
                             plan_.crash_nodes.end(), v);
}

void FaultyChannel::on_send(int round, Node from, Node to, Message& message) {
  if (!std::binary_search(plan_.byzantine_nodes.begin(),
                          plan_.byzantine_nodes.end(), from)) {
    return;
  }
  Rng rng = event_rng(round, from, to, /*salt=*/0xB12A);
  corrupt_message(message, rng, /*allow_structural=*/round >= 2, stats_);
  stats_.tampered_messages += 1;
}

void FaultyChannel::deliver(int round, Node from, Node to, Message&& message,
                            std::vector<Message>& out) {
  if (plan_.drop_permille > 0) {
    Rng rng = event_rng(round, from, to, /*salt=*/0xD809);
    if (rng.next_bool(static_cast<std::uint64_t>(plan_.drop_permille), 1000)) {
      stats_.dropped += 1;
      return;
    }
  }
  int copies = 1;
  if (plan_.duplicate_permille > 0) {
    Rng rng = event_rng(round, from, to, /*salt=*/0xD0B1);
    if (rng.next_bool(static_cast<std::uint64_t>(plan_.duplicate_permille),
                      1000)) {
      copies = 2;
      stats_.duplicated += 1;
    }
  }
  for (int c = 0; c < copies; ++c) {
    Message copy;
    if (c + 1 < copies) {
      copy = message;  // keep the original for the remaining copies
    } else {
      copy = std::move(message);
    }
    if (plan_.corrupt_permille > 0) {
      Rng rng = event_rng(round, from, to,
                          /*salt=*/0xC088 + static_cast<std::uint64_t>(c));
      if (rng.next_bool(static_cast<std::uint64_t>(plan_.corrupt_permille),
                        1000)) {
        corrupt_message(copy, rng, /*allow_structural=*/round >= 2, stats_);
      }
    }
    out.push_back(std::move(copy));
  }
}

}  // namespace shlcp
