// Pluggable kernel for the hottest loop in the system: the label scan (min
// over rank_array[rank] + dist along one sorted, sentinel-terminated CSR
// label run). Batched distances and the greedy sweep's target-set bounds
// both fan into it, so it gets the backend-per-architecture treatment: a
// scalar reference implementation that defines the semantics, and vectorized
// implementations (currently AVX2) selected once per process by CPUID
// runtime dispatch. (The point-query merge of two runs is plain scalar code
// in PrunedLandmarkLabeling: a vector merge measured no faster.)
//
// Selection: SelectedLabelKernels() resolves TEAMDISC_KERNEL={auto,scalar,
// avx2} once. `auto` (or unset) picks the fastest backend this binary carries
// that the CPU supports; an explicit request for an unavailable backend logs
// a warning and falls back to scalar rather than crashing, so a pinned env
// var stays safe across heterogeneous hosts.
//
// Contract for every kernel function: label runs are ascending in hub rank,
// terminated by a sentinel entry (rank kInvalidNode, dist kInfDistance), and
// readable for at least kLabelRunPadEntries entries past the sentinel so
// vector loads never fault. PrunedLandmarkLabeling's flat CSR arrays satisfy
// this (32-byte-aligned allocation + padded tail); hand-built test runs must
// do the same (see PaddedRun in label_kernels_test.cc).
//
// All backends are bit-identical, not just approximately equal: they
// minimize over the same candidate values, and min over non-NaN doubles is
// exact in any order, so the differential test suite can assert equality on
// the raw double bits.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "graph/graph.h"

namespace teamdisc {

/// Entries readable past each run's sentinel (and past the end of the whole
/// flat array). 8 covers the widest load any kernel issues: a 256-bit load of
/// 8 ranks starting at the sentinel itself.
inline constexpr size_t kLabelRunPadEntries = 8;

/// \brief One backend: a named set of function pointers over label runs.
///
/// Plain function pointers (not virtuals) so the indirection is one
/// predictable call per query with no vtable load, and so a backend is a
/// value that tests can enumerate and swap freely.
struct LabelKernels {
  /// Backend name for logs, bench labels, and TEAMDISC_KERNEL matching.
  const char* name;

  /// True when the running CPU can execute this backend. Compiled-in
  /// backends whose ISA the host lacks must never be called.
  bool (*cpu_supported)();

  /// Label scan: min over the run of rank_array[t_ranks[k]] + t_dists[k]
  /// (kInfDistance for an empty run). `rank_array` is any rank-indexed array
  /// of non-NaN doubles, kInfDistance where a rank has no value: a source
  /// label scattered by rank (batched distances) or a target set's hub
  /// aggregate (PrunedLandmarkLabeling::MakeTargetSetBound). It must be
  /// indexable by every real rank in the run; the sentinel rank is never
  /// dereferenced.
  double (*scatter_scan)(const NodeId* t_ranks, const double* t_dists,
                         const double* rank_array);
};

/// The portable reference backend; semantics source of truth.
const LabelKernels& ScalarLabelKernels();

/// The AVX2 backend, or nullptr when this binary was built without it
/// (non-x86 target or a compiler lacking -mavx2). Being non-null says
/// nothing about the CPU — check cpu_supported() before calling into it.
const LabelKernels* Avx2LabelKernelsOrNull();

/// Every backend compiled into this binary, scalar first. Includes backends
/// the running CPU cannot execute (filter on cpu_supported()).
std::span<const LabelKernels* const> CompiledLabelKernels();

/// Resolution logic behind SelectedLabelKernels(), exposed so tests can
/// exercise every request string in one process: "scalar"/"avx2" pick that
/// backend, "auto" or "" picks the best supported one, anything unavailable
/// or unrecognized warns once and degrades (unknown -> auto, unavailable
/// explicit backend -> scalar).
const LabelKernels& ResolveLabelKernels(std::string_view request);

/// Process-wide selection: ResolveLabelKernels(TEAMDISC_KERNEL), resolved on
/// first use and stable thereafter. Every PrunedLandmarkLabeling constructed
/// afterwards routes its queries through this backend.
const LabelKernels& SelectedLabelKernels();

}  // namespace teamdisc
