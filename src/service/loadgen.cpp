#include "service/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "interactive/commit.h"
#include "service/service.h"
#include "sim/faults.h"
#include "util/check.h"

namespace shlcp::svc {

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Payload pool_payload(int slot) {
  const std::uint64_t variant = static_cast<std::uint64_t>(slot) / 4;
  Json params = Json::object();
  switch (slot % 4) {
    case 0: {
      static const std::pair<const char*, const char*> kCombos[] = {
          {"degree-one", "path5"},
          {"spanning-bfs", "cycle6"},
          {"even-cycle", "cycle8"},
          {"degree-one", "star5"},
      };
      const auto& [lcp, inst] = kCombos[variant % std::size(kCombos)];
      params["lcp"] = lcp;
      params["instance"] = inst;
      params["labels"] = "honest";
      if (variant % 2 == 1) {
        FaultPlan plan;
        plan.label = "drop-light";
        plan.seed = 0xC0FFEE + variant;
        plan.drop_permille = 100;
        params["plan"] = plan.describe();
      }
      return {"run_decoder", std::move(params)};
    }
    case 1: {
      static const char* kPool[] = {"path5", "cycle5", "grid23", "theta222"};
      params["instance"] = kPool[variant % std::size(kPool)];
      params["k"] = static_cast<std::int64_t>(2 + variant % 2);
      return {"check_coloring", std::move(params)};
    }
    case 2: {
      params["family"] = variant % 2 == 0 ? "degree-one" : "even-cycle";
      params["max_n"] = 4;
      return {"search_witness", std::move(params)};
    }
    default: {
      static const std::pair<const char*, const char*> kBuilds[] = {
          {"degree-one", "path:4"},
          {"even-cycle", "cycle:4"},
          {"spanning-bfs", "path:4"},
          {"even-cycle", "cycle:6"},
      };
      const auto& [lcp, spec] = kBuilds[variant % std::size(kBuilds)];
      params["lcp"] = lcp;
      Json& graphs = (params["graphs"] = Json::array());
      graphs.push_back(spec);
      params["build"] = "proved";
      return {"build_nbhd", std::move(params)};
    }
  }
}

}  // namespace

std::vector<Payload> payload_pool() {
  std::vector<Payload> pool;
  for (int slot = 0; slot < 16; ++slot) {
    pool.push_back(pool_payload(slot));
  }
  return pool;
}

std::vector<std::string> oracle(const std::vector<Payload>& payloads) {
  Service service;
  std::vector<std::string> dumps;
  for (std::size_t slot = 0; slot < payloads.size(); ++slot) {
    Json req = Json::object();
    req["id"] = static_cast<std::int64_t>(slot);
    req["op"] = payloads[slot].op;
    req["params"] = payloads[slot].params;
    const Json resp = service.handle(req);
    SHLCP_CHECK_MSG(resp.at("ok").as_bool(),
                    "oracle refused slot " + std::to_string(slot) + ": " +
                        resp.dump());
    dumps.push_back(resp.at("result").dump());
  }
  return dumps;
}

Caller client_caller(Client::Connector connector, ClientOptions options,
                     std::uint64_t deadline_ms) {
  const auto client =
      std::make_shared<Client>(std::move(connector), std::move(options));
  return {[client, deadline_ms](const std::string& op, const Json& params) {
            return client->call(op, params, deadline_ms);
          },
          [client] { return client->stats(); }};
}

CallResult to_call_result(Json response) {
  CallResult r;
  if (response.is_object() && response.contains("ok")) {
    r.ok = response.at("ok").as_bool();
    if (r.ok) {
      r.result_dump = response.at("result").dump();
    } else {
      const Json& error = response.at("error");
      r.error_code = error.at("code").as_string();
      if (error.contains("message")) {
        r.error_detail = error.at("message").as_string();
      }
    }
  }
  r.response = std::move(response);
  return r;
}

void Tally::score(const Shot& shot, std::uint64_t latency_us,
                  const DriveOptions& options) {
  const CallResult& r = shot.result;
  PerOp& per_op = ops[shot.op];
  per_op.latencies_us.push_back(latency_us);
  requests += 1;
  if (r.ok) {
    if (shot.expected == nullptr || r.result_dump == *shot.expected) {
      ok += 1;
    } else {
      wrong += 1;
      std::fprintf(stderr, "%s: WRONG RESPONSE [%s]\n  got: %s\n",
                   options.label.c_str(), shot.op.c_str(),
                   r.result_dump.c_str());
    }
  } else if (std::find(options.benign.begin(), options.benign.end(),
                       r.error_code) != options.benign.end()) {
    refused += 1;
  } else if (r.error_code.empty()) {
    lost += 1;
  } else {
    errors += 1;
    per_op.errors += 1;
    std::fprintf(stderr, "%s: [%s] %s: %s\n", options.label.c_str(),
                 shot.op.c_str(), r.error_code.c_str(),
                 r.error_detail.c_str());
  }
}

Tally& Tally::operator+=(const Tally& other) {
  requests += other.requests;
  ok += other.ok;
  refused += other.refused;
  errors += other.errors;
  lost += other.lost;
  wrong += other.wrong;
  for (const auto& [op, from] : other.ops) {
    PerOp& to = ops[op];
    to.errors += from.errors;
    to.latencies_us.insert(to.latencies_us.end(), from.latencies_us.begin(),
                           from.latencies_us.end());
  }
  client += other.client;
  return *this;
}

std::uint64_t percentile(std::vector<std::uint64_t> xs, double p) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(i, xs.size() - 1)];
}

std::uint64_t Tally::percentile_us(double p) const {
  std::vector<std::uint64_t> all;
  for (const auto& [op, per_op] : ops) {
    all.insert(all.end(), per_op.latencies_us.begin(),
               per_op.latencies_us.end());
  }
  return percentile(std::move(all), p);
}

Tally drive(const DriveOptions& options,
            const std::function<Caller(int worker)>& make_caller,
            const Job& job, const std::function<void()>& until) {
  const int workers = std::max(options.workers, 1);
  const auto step = static_cast<std::uint64_t>(workers);
  std::atomic<bool> stop{false};
  std::vector<Tally> outs(static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  const std::uint64_t t0 = now_us();
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Tally& out = outs[static_cast<std::size_t>(w)];
      const Caller caller = make_caller(w);
      for (auto i = static_cast<std::uint64_t>(w);
           until ? !stop.load(std::memory_order_relaxed) : i < options.total;
           i += step) {
        std::uint64_t start_us = now_us();
        if (options.rate > 0) {
          const std::uint64_t due_us =
              t0 + static_cast<std::uint64_t>(static_cast<double>(i) * 1e6 /
                                              options.rate);
          if (start_us < due_us) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(due_us - start_us));
          }
          start_us = due_us;
        }
        const Shot shot = job(caller, i);
        out.score(shot, now_us() - start_us, options);
      }
      if (caller.stats) {
        out.client = caller.stats();
      }
    });
  }
  if (until) {
    until();
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  Tally merged;
  for (const Tally& out : outs) {
    merged += out;
  }
  merged.seconds = static_cast<double>(now_us() - t0) / 1e6;
  return merged;
}

Tally drive_pool(const DriveOptions& options,
                 const std::function<Caller(int worker)>& make_caller,
                 const std::vector<Payload>& pool,
                 const std::vector<std::string>* expected,
                 const std::function<void()>& until) {
  SHLCP_CHECK(!pool.empty());
  return drive(
      options, make_caller,
      [&](const Caller& caller, std::uint64_t i) {
        const std::size_t slot = i % pool.size();
        const Payload& p = pool[slot];
        return Shot{p.op, caller.call(p.op, p.params),
                    expected != nullptr ? &(*expected)[slot] : nullptr};
      },
      until);
}

CallResult honest_session(const Caller& caller, const std::string& id,
                          const std::vector<int>& coloring, int rounds,
                          std::uint64_t prover_seed,
                          std::int64_t challenge_seed) {
  Json params = Json::object();
  params["session"] = id;
  params["instance"] = "cycle6";
  params["k"] = 2;
  params["rounds"] = rounds;
  params["seed"] = challenge_seed;
  CallResult r = caller.call("session_open", params);
  if (!r.ok) {
    return r;
  }
  ia::CommitProver prover(coloring, 2, id, prover_seed);
  const auto step = [&](Json msg) {
    Json step_params = Json::object();
    step_params["session"] = id;
    step_params["msg"] = std::move(msg);
    r = caller.call("session_step", step_params);
    return r.ok ? Json::parse(r.result_dump) : Json();
  };
  bool completed = false;
  bool verdict = false;
  for (int round = 0; round < rounds && !completed; ++round) {
    Json commit = Json::object();
    commit["type"] = "commit";
    Json& arr = (commit["commitments"] = Json::array());
    for (const std::uint64_t c : prover.commit_round()) {
      arr.push_back(ia::hex16(c));
    }
    const Json committed = step(std::move(commit));
    if (!r.ok) {
      break;
    }
    const Json& challenge = committed.at("reply").at("challenge");
    Json open = Json::object();
    open["type"] = "open";
    Json& opens = (open["opens"] = Json::array());
    for (std::size_t e = 0; e < 2; ++e) {
      const ia::Opening o =
          prover.open(static_cast<int>(challenge.at(e).as_int()));
      Json& entry = opens.push_back(Json::array());
      entry.push_back(o.node);
      entry.push_back(o.color);
      entry.push_back(ia::hex16(o.nonce));
    }
    const Json stepped = step(std::move(open));
    if (!r.ok) {
      break;
    }
    completed = stepped.at("completed").as_bool();
    if (completed) {
      verdict = stepped.at("reply").at("verdict").as_bool();
    }
  }
  if (!r.ok) {
    // Best effort, so a half-done session does not linger until the
    // TTL sweep.
    Json close_params = Json::object();
    close_params["session"] = id;
    caller.call("session_close", close_params);
    return r;
  }
  if (!verdict) {
    r.ok = false;
    r.error_code = "rejected";
    r.error_detail = "honest session " + id + " rejected";
  }
  return r;
}

}  // namespace shlcp::svc
