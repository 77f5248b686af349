// AVX2 backend for the label-scan kernel. This translation unit is the
// only one compiled with -mavx2 (see src/CMakeLists.txt); when the toolchain
// or target cannot build it, __AVX2__ is undefined and the file degrades to
// a stub returning nullptr, so the dispatcher never sees the backend. Keep
// this TU free of static initializers and of any code reachable before the
// cpu_supported() check — on a CPU without AVX2 nothing here may execute.
#include "shortest_path/kernels/label_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstdint>

namespace teamdisc {
namespace {

bool Avx2Supported() {
#if defined(__GNUC__) || defined(__clang__)
  // Checks the CPUID feature bit and the OS XSAVE state (libgcc's cpuinfo
  // folds the XGETBV test in), so a kernel that disabled AVX state is
  // correctly reported as unsupported.
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Gather+add+min over the run, 4 doubles per step. The candidate set is
/// identical to the scalar scan's and min is exact over non-NaN doubles
/// (the rank array holds non-NaN values, run distances are finite), so the
/// result is bit-identical regardless of lane order.
double Avx2ScatterScan(const NodeId* ranks, const double* dists,
                       const double* rank_array) {
  const __m128i kSentinel = _mm_set1_epi32(-1);  // kInvalidNode
  const __m256d kAllLanes = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d best4 = _mm256_set1_pd(kInfDistance);
  double best = kInfDistance;
  for (;;) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks));
    const unsigned sentinel_lanes = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(idx, kSentinel))));
    if (sentinel_lanes != 0) {
      // Partial final block: lanes at and past the first sentinel may belong
      // to the next label, so finish the strictly-in-run prefix scalar-wise.
      const unsigned valid = static_cast<unsigned>(std::countr_zero(sentinel_lanes));
      for (unsigned k = 0; k < valid; ++k) {
        const double d = rank_array[ranks[k]] + dists[k];
        if (d < best) best = d;
      }
      break;
    }
    // Full in-run block: every rank is real, so the gather indexes stay
    // inside the rank array. (i32gather treats indexes as signed, fine for
    // any real rank: NodeId counts stay far below 2^31.) The masked form
    // with an all-ones mask loads every lane, exactly like the unmasked
    // gather, but starts from a defined zero source instead of the
    // undefined one GCC flags as maybe-uninitialized.
    const __m256d gathered = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), rank_array, idx, kAllLanes, 8);
    const __m256d sums = _mm256_add_pd(gathered, _mm256_loadu_pd(dists));
    best4 = _mm256_min_pd(best4, sums);
    ranks += 4;
    dists += 4;
  }
  const __m128d lo = _mm256_castpd256_pd128(best4);
  const __m128d hi = _mm256_extractf128_pd(best4, 1);
  __m128d m = _mm_min_pd(lo, hi);
  m = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
  const double vector_best = _mm_cvtsd_f64(m);
  return vector_best < best ? vector_best : best;
}

constexpr LabelKernels kAvx2Kernels = {
    "avx2",
    &Avx2Supported,
    &Avx2ScatterScan,
};

}  // namespace

const LabelKernels* Avx2LabelKernelsOrNull() { return &kAvx2Kernels; }

}  // namespace teamdisc

#else  // !defined(__AVX2__)

namespace teamdisc {

const LabelKernels* Avx2LabelKernelsOrNull() { return nullptr; }

}  // namespace teamdisc

#endif
