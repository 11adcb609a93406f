// WR (Workspace Reuse) optimization, §III-B of the paper: dynamic
// programming over micro-batch divisions,
//
//   T(0) = 0,
//   T(b) = min( t*(b), min_{0 < b' < b} ( T(b - b') + t*(b') ) ),
//
// where t*(b') is the fastest benchmarked micro-configuration of size b'
// whose workspace fits the per-kernel limit. Micro-batches run sequentially
// and share one workspace, so a configuration's footprint is the max of its
// micro workspaces.
//
// The same DP also yields the desirable-configuration set consumed by the WD
// ILP, the Pareto front in (time x workspace) space (§III-C1): the WR
// optimum under a limit is the fastest division within it, so walking the
// limit down from the cap visits every front entry.
#pragma once

#include <functional>
#include <vector>

#include "core/benchmarker.h"
#include "core/types.h"

namespace ucudnn::core {

/// Fastest configuration for the full mini-batch under `ws_limit`.
/// Throws Error(kNotSupported) when no algorithm fits the limit at any
/// candidate size (e.g. limit 0 with only workspace-requiring algorithms —
/// cannot happen here since zero-workspace algorithms always exist).
Configuration optimize_wr(const MicroBenchmark& bench, std::int64_t batch,
                          std::size_t ws_limit);

/// Times the given bounded pairs of a table and re-derives its bounds
/// (Benchmarker::measure; tests substitute known timings).
using MeasurePairsFn =
    std::function<void(MicroBenchmark&, const std::vector<BenchPair>&)>;

/// optimize_wr over a lazily measured table: solves, measures the chosen
/// pairs that are still bounds, and solves again until every chosen pair is
/// measured. Bounds never exceed timings, so the result costs no more than
/// any other division: it is the optimum of the fully measured table, at
/// the price of timing only the pairs it depended on.
Configuration plan_wr(MicroBenchmark& bench, std::int64_t batch,
                      std::size_t ws_limit, const MeasurePairsFn& measure);

/// Removes Pareto-dominated entries in-place: afterwards, configurations are
/// sorted by workspace ascending with strictly decreasing execution time.
void pareto_prune(std::vector<Configuration>& configs);

/// Desirable configuration set D(batch): every Pareto-optimal division of
/// the mini-batch with workspace at most `ws_cap` (the WD total limit).
/// Built by solving WR at `ws_cap`, then again one byte below each
/// solution's workspace until it is 0 or no division fits, and sorted as
/// pareto_prune leaves it; empty when no division fits the cap.
std::vector<Configuration> desirable_configurations(const MicroBenchmark& bench,
                                                    std::int64_t batch,
                                                    std::size_t ws_cap);

}  // namespace ucudnn::core
