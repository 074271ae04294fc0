// Per-layer metrics of the traced run.
//
// Two sources, in this order of preference:
//   * spans the workload recorded around its own calls into a layer
//     (on the workload's path: the figure is what the workload paid);
//   * a unit-cost probe run after the workload's timed window, on the
//     workload's own tags, update bytes, store and daemon (off the
//     workload's path, so every workload still reports every metric).
// Every bls12 figure is a probe: the bls12 layer sits below core and its
// calls are not visible from outside, so its cost inside an operation is
// attributed as unit cost x the registry count for the same window.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace jb {

/// One per-layer metric, in the order BENCHMARK.json lists them.
struct LayerSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerSpec>& layer_specs();

/// What the probe pass may use: the workload's own artifacts.
struct ProbeInputs {
  const tre::core::BasicServerKeyPair<Bls381Backend>* server = nullptr;
  std::vector<std::string> tags;   ///< tags the workload issued
  std::vector<tre::Bytes> wires;   ///< their update wire bytes, same order
  const tre::daemon::Store* store = nullptr;
  std::uint16_t port = 0;          ///< the loopback tred serving `store`
  std::uint64_t seed = 1;
};

/// Unit costs for every per-layer time metric, keyed by metric name.
std::map<std::string, double> probe_layers(const ProbeInputs& in);

/// The operation a workload's layer shares and bls12 attributions are
/// taken over: a root span, the client-layer and core-layer spans inside
/// it, and the window's registry deltas.
struct Breakdown {
  std::string op;                    ///< root span name
  std::vector<std::string> client;   ///< spans that are daemon round trips
  std::vector<std::string> core;     ///< spans of core calls
  std::vector<std::string> idle;     ///< spans waiting on other threads, left out of the op
  Counters delta;                    ///< registry deltas over the window
  double ops_in_window = 0;          ///< traced + untraced ops in `delta`
  double items_in_window = 0;        ///< updates parsed and verified in the window
  double connects = 0;               ///< sockets opened by the workload
  /// The op the bls12 attribution is taken over when it is not `op`
  /// (serve: the publish, since requests do no crypto), and how many of
  /// them ran in the window.
  std::string attr_op;
  double attr_ops_in_window = 0;
  /// On-path values the generic span table cannot name (per-item
  /// figures from spans or registry deltas); they replace the probe
  /// values like the table's do.
  std::map<std::string, double> path_values;
};

/// Fills `out.layer` with every LayerSpec metric (span values first,
/// then probe values) and appends the traced-run report lines: self-time
/// shares of the op, bls12 attributions, the unattributed remainder and
/// the tracing overhead.
void emit_layers(Outcome& out, const SpanStats& spans, const Breakdown& bd,
                 std::map<std::string, double> values, double overhead_frac);

/// num / den, or 0 when den is not positive (a counter that never moved).
double ratio_or_zero(double num, double den);

}  // namespace jb
