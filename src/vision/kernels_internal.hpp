/// \file kernels_internal.hpp
/// \brief Test seam for the CPUID-dispatched stride-1 row loops of
///        vision/kernels.cpp. Not part of the kernel API: only kernels.cpp
///        and its tests include this header.
///
/// `frame_difference` and `color_histogram` compile their stride-1 row
/// loop twice from one source (baseline x86-64 and AVX2) and pick one by
/// CPUID. Forcing the baseline instance lets a test compare both on an
/// AVX2 host. Production code never calls set_row_path.
#pragma once

namespace stampede::vision::detail {

enum class RowPath { kByCpuid, kBaseline };

/// Selects the row-loop instance for kernel calls on the calling thread.
void set_row_path(RowPath path);

/// True when kernel calls on this thread run the AVX2 instance.
bool avx2_rows();

}  // namespace stampede::vision::detail
