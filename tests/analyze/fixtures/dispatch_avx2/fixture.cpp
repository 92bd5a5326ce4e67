/// \file fixture.cpp
/// \brief aru-analyze fixture: a CPUID-dispatched row loop, the shape of
///        the stride-1 kernels in vision/kernels.cpp.
///
/// Analyzed, never compiled (tests/analyze/run_fixtures.py drives the
/// analyzer over this directory). One forced-inline row body is
/// instantiated twice, once plain and once under ARU_TARGET_AVX2, and the
/// hot kernel picks an instance per call. Without ARU_FIXTURE_FIXED the
/// AVX2 instance grows a scratch buffer per call, and the analyzer must
/// follow the call into it and exit 1 with a hot-alloc finding whose path
/// names row_avx2; with it, both instances only run the shared body. (A
/// raw `__attribute__((target("avx2")))` head hides the instance from the
/// declaration parser, which is why the attribute sits behind the macro.)

namespace fixture {

/// Grows a heap scratch buffer — never acceptable per call.
ARU_ALLOCATES unsigned char* grow_scratch(int n);

bool cpu_has_avx2();

[[gnu::always_inline]] inline int row(const unsigned char* __restrict px, int n) {
  int sum = 0;
  for (int i = 0; i < n; ++i) sum += px[i];
  return sum;
}

int row_base(const unsigned char* px, int n) { return row(px, n); }

ARU_TARGET_AVX2 int row_avx2(const unsigned char* px, int n) {
#ifndef ARU_FIXTURE_FIXED
  grow_scratch(n);
#endif
  return row(px, n);
}

ARU_HOT_PATH int kernel(const unsigned char* px, int n) {
  static const bool avx2 = cpu_has_avx2();
  return avx2 ? row_avx2(px, n) : row_base(px, n);
}

}  // namespace fixture
