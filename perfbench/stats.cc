#include <algorithm>
#include <cmath>
#include <numeric>

#include "perfbench.h"

namespace perfbench {
namespace {

/// 0-based nearest-rank index of quantile q in a sample of n.
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t k = RankIndex(values.size(), q);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::optional<Tail> TailPercentile(std::vector<double> values,
                                   double preferred) {
  const size_t n = values.size();
  for (const double q : {0.99, 0.90}) {
    if (q > preferred || n == 0) continue;
    const size_t beyond = n - 1 - RankIndex(n, q);
    if (beyond < kMinTailBeyond) continue;
    return Tail{q, Percentile(values, q), beyond};
  }
  return std::nullopt;
}

size_t HolderBucket(uint64_t holders) {
  if (holders <= 32) return 0;
  if (holders <= 128) return 1;
  if (holders <= 512) return 2;
  return 3;
}

uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
