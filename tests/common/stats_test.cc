#include "common/stats.h"

#include <gtest/gtest.h>

namespace teamdisc {
namespace {

TEST(StatsTest, NearestRankIndexTableDriven) {
  struct Case {
    size_t n;
    double q;
    size_t want;  // 0-based index of the nearest-rank element
  };
  // Nearest-rank definition: rank = ceil(q * n), clamped to [1, n];
  // index = rank - 1 — evaluated in exact integer (basis-point)
  // arithmetic. The regression target is the old floating-point
  // ceil(q * n), where the binary product can land an epsilon ABOVE the
  // mathematical integer and ceil then overshoots by a whole rank:
  // ceil(0.55 * 100) == 56 in double arithmetic (exact rank is 55), and
  // ceil(0.07 * 100) == 8 (exact rank is 7).
  const Case kCases[] = {
      {1, 0.50, 0},    {1, 0.99, 0},    {1, 0.0, 0},
      {2, 0.50, 0},    {2, 0.51, 1},    {2, 0.99, 1},
      {10, 0.50, 4},   {10, 0.90, 8},   {10, 0.99, 9},   {10, 1.0, 9},
      {100, 0.50, 49}, {100, 0.90, 89}, {100, 0.99, 98},
      // Verified fp landmines: double ceil(q * n) lands one rank past
      // `want` here; the integer form stays exact.
      {100, 0.55, 54},  // fp: ceil(55.000000000000007) == 56
      {100, 0.07, 6},   // fp: ceil(7.000000000000001) == 8
      {50, 0.28, 13},   // fp: ceil(14.000000000000002) == 15
      {3, 0.50, 1},    {7, 0.90, 6},
      // Degenerate quantiles clamp instead of under/overflowing.
      {5, 0.0, 0},     {5, 1.0, 4},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(NearestRankIndex(c.n, c.q), c.want)
        << "n=" << c.n << " q=" << c.q;
  }
}

}  // namespace
}  // namespace teamdisc
