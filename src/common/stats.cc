#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace teamdisc {

size_t NearestRankIndex(size_t n, double q) {
  // Quantize q once; llround is exact for the representable decimals callers
  // pass (0.5, 0.9, 0.99, ...). Everything after is integer arithmetic.
  long long q_bp = std::llround(q * 10000.0);
  q_bp = std::clamp(q_bp, 0ll, 10000ll);
  const unsigned long long rank =
      (static_cast<unsigned long long>(n) * static_cast<unsigned long long>(q_bp) +
       9999ull) /
      10000ull;
  const unsigned long long clamped =
      std::clamp(rank, 1ull, static_cast<unsigned long long>(n));
  return static_cast<size_t>(clamped - 1);
}

}  // namespace teamdisc
