// The c=1 layer ladder of the traced run.
//
// One request at a time, the same warm (and cold) requests are timed at
// every rung: kernel loopback floor, each layer's public functions
// called directly (JSON, framing, keying, cache, metrics, compute,
// sessions), the in-process Service, then TCP, HTTP and router->backend
// transports. Adjacent rungs give each layer's self time, e.g.
// netloop.self_us = tcp - in-process service - kernel floor, and
// router.hop_us = router rung - tcp rung. Codec rungs use the
// workload's own request bodies; transport rungs use a fixed hot key
// set and fresh cold keys, per op, so they read the same on every
// workload. Per-op rung figures go to the log; the metric set gets the
// pooled medians.

#pragma once

#include <cstdint>
#include <cstdio>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

/// Adds every ladder metric to `out` (see BENCHMARK.json per_layer).
/// `router_self_us` receives the router rung's traced self times.
void run_ladder(Workload w, std::uint64_t seed, MetricSet& out,
                std::vector<double>* router_self_us, std::FILE* log);

}  // namespace perfbench
