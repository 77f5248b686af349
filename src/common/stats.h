// Shared order-statistics helper for latency reporting: the serving
// metrics' histogram percentiles go through it, so "p50" means the
// nearest-rank sample everywhere.
#pragma once

#include <cstddef>

namespace teamdisc {

/// 0-based index of the nearest-rank q-quantile over n sorted samples
/// (rank = ceil(q * n), 1-based; clamped to [1, n]). Requires n > 0.
///
/// Computed in integer arithmetic: q is quantized to basis points
/// (q = 0.50 -> 5000) and the rank is ceil(n * q_bp / 10000) as integers.
/// The naive ceil(q * n) in floating point is wrong at exact multiples —
/// 0.50 * 100 can evaluate to 50.000000000000007, ceiling to rank 51 and
/// shifting the reported median by one sample.
size_t NearestRankIndex(size_t n, double q);

}  // namespace teamdisc
