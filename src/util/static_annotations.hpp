/// \file static_annotations.hpp
/// \brief Annotation vocabulary for the aru-analyze call-graph checker.
///
/// `scripts/analyze/aru_analyze.py` builds the project-wide call graph
/// from the compile database and enforces three rules over it (see
/// docs/ARCHITECTURE.md "Static analysis"):
///
///  1. **Hot-path purity.** No function reachable from an `ARU_HOT_PATH`
///     root may transitively call an `ARU_MAY_BLOCK` or `ARU_ALLOCATES`
///     function — including `operator new`, container growth, blocking
///     syscalls, condition-variable waits and sleeps. The paper's
///     feedback loop is only correct if current-STP measures pure
///     execution time (§3.3.1 excludes blocking from the measured
///     section), and the PR 4 zero-copy path is only zero-copy if nothing
///     quietly reintroduces a per-item heap allocation.
///  2. **Lock ranks, statically.** Every `util::Mutex` acquisition site
///     is checked against the `LockRank` partial order by following the
///     call graph from each site while the guard is lexically held. The
///     `ARU_LOCK_DEBUG` runtime validator remains the backstop for paths
///     the static analysis cannot see (function pointers, virtual calls).
///  3. **No throw-paths in wire decode.** Functions reachable from an
///     `ARU_NOTHROW_PATH` root must not `throw` or call a
///     throwing-by-contract function (`at`, `stoi`, `optional::value`,
///     ...), so a malicious peer can never unwind the transport thread.
///
/// The macros expand to nothing for every compiler: they are markers the
/// analyzer reads from the source text, deliberately free of build-time
/// cost or portability risk. Defining `ARU_ANALYZE_ANNOTATE` (no preset
/// does) turns them into Clang `annotate` attributes so a future
/// libclang-based backend can read them from the AST instead.
#pragma once

#if defined(ARU_ANALYZE_ANNOTATE) && defined(__clang__)
#define ARU_ANALYZE_ATTR__(x) __attribute__((annotate(x)))
#else
#define ARU_ANALYZE_ATTR__(x)
#endif

/// Marks a function as a hot-path root: everything transitively callable
/// from it is checked for allocation- and blocking-freedom. Place on the
/// declaration (header), before the return type.
#define ARU_HOT_PATH ARU_ANALYZE_ATTR__("aru_hot_path")

/// Declares that a function may block (socket I/O, sleeps, joins,
/// unbounded waits). Reaching one from a hot-path root is a violation
/// unless the callee also carries ARU_ANALYZE_ESCAPE (a sanctioned,
/// documented blocking leaf such as deadline-bounded socket I/O).
#define ARU_MAY_BLOCK ARU_ANALYZE_ATTR__("aru_may_block")

/// Declares that a function allocates. Reaching one from a hot-path root
/// is a violation unless the callee also carries ARU_ANALYZE_ESCAPE.
#define ARU_ALLOCATES ARU_ANALYZE_ATTR__("aru_allocates")

/// Declares that a function acquires a mutex of the given rank (an
/// integer or a `util::LockRank` enumerator). Used for functions whose
/// acquisition the analyzer cannot see (opaque boundaries, out-of-tree
/// callees); acquisitions through util::MutexLock / util::UniqueLock /
/// Mutex::lock on ranked members are inferred automatically.
#define ARU_ACQUIRES_RANK(n) ARU_ANALYZE_ATTR__("aru_acquires_rank:" #n)

/// Marks a wire-decode root: everything transitively callable from it is
/// checked to be throw-free (rule 3).
#define ARU_NOTHROW_PATH ARU_ANALYZE_ATTR__("aru_nothrow_path")

/// Reviewed escape hatch. On a function that is also ARU_MAY_BLOCK /
/// ARU_ALLOCATES it sanctions calls to it from hot paths (the reason is
/// recorded in the report); on any function it additionally suppresses
/// findings *inside* that function and stops traversal through it. Every
/// use must carry a reason a reviewer can audit. Residual site-level
/// escapes that cannot be expressed as an annotation (e.g. the channel's
/// own condition-variable wait) live in scripts/analyze/baseline.txt.
#define ARU_ANALYZE_ESCAPE(reason) ARU_ANALYZE_ATTR__("aru_escape:" reason)

/// Compiles one function for AVX2 on x86 (a no-op elsewhere). Unlike the
/// markers above it changes code generation; it lives here so the
/// analyzer skips it as declaration noise and keeps following calls into
/// the AVX2 instance of a CPUID-dispatched loop. Callers must check the
/// CPU before calling such a function (see vision/kernels.cpp).
#if defined(__x86_64__) || defined(__i386__)
#define ARU_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define ARU_TARGET_AVX2
#endif
