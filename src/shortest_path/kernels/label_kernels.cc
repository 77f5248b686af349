#include "shortest_path/kernels/label_kernels.h"

#include <array>
#include <string>

#include "common/env.h"
#include "common/logging.h"

namespace teamdisc {

namespace {

bool ScalarSupported() { return true; }

double ScalarScatterScan(const NodeId* ranks, const double* dists,
                         const double* rank_array) {
  double best = kInfDistance;
  for (size_t k = 0; ranks[k] != kInvalidNode; ++k) {
    const double d = rank_array[ranks[k]] + dists[k];
    if (d < best) best = d;
  }
  return best;
}

constexpr LabelKernels kScalarKernels = {
    "scalar",
    &ScalarSupported,
    &ScalarScatterScan,
};

}  // namespace

const LabelKernels& ScalarLabelKernels() { return kScalarKernels; }

std::span<const LabelKernels* const> CompiledLabelKernels() {
  static const auto kCompiled = [] {
    std::array<const LabelKernels*, 2> list{&kScalarKernels, nullptr};
    size_t n = 1;
    if (const LabelKernels* avx2 = Avx2LabelKernelsOrNull()) list[n++] = avx2;
    return std::pair(list, n);
  }();
  return {kCompiled.first.data(), kCompiled.second};
}

const LabelKernels& ResolveLabelKernels(std::string_view request) {
  const LabelKernels* avx2 = Avx2LabelKernelsOrNull();
  const bool avx2_usable = avx2 != nullptr && avx2->cpu_supported();
  if (request == "scalar") return kScalarKernels;
  if (request == "avx2") {
    if (avx2_usable) return *avx2;
    TD_LOG(Warning) << "TEAMDISC_KERNEL=avx2 but the avx2 backend is "
                    << (avx2 == nullptr ? "not compiled into this binary"
                                        : "not supported by this CPU")
                    << "; falling back to scalar";
    return kScalarKernels;
  }
  if (!request.empty() && request != "auto") {
    TD_LOG(Warning) << "unknown TEAMDISC_KERNEL value \"" << request
                    << "\" (expected auto, scalar, or avx2); using auto";
  }
  return avx2_usable ? *avx2 : kScalarKernels;
}

const LabelKernels& SelectedLabelKernels() {
  static const LabelKernels* const kSelected =
      &ResolveLabelKernels(GetEnvOr("TEAMDISC_KERNEL", "auto"));
  return *kSelected;
}

}  // namespace teamdisc
