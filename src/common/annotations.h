// Compiler-enforced contract annotations, shared by every ProvLedger header.
//
// Two families live here:
//
//   * PROV_NODISCARD — `[[nodiscard]]` under any C++17 compiler. The
//     `common::Status` and `Result<T>` *types* carry it too (status.h), so
//     every by-value Status/Result return is discard-checked even without a
//     per-function annotation; annotating the function as well documents
//     the contract at the declaration the reader is actually looking at.
//     Intentional discards must be written `(void)expr;` with an adjacent
//     justification comment — tools/provlint rejects bare ones.
//
//   * PROV_GUARDED_BY / PROV_REQUIRES / ... — Clang thread-safety
//     capability attributes (-Wthread-safety). Under gcc (this repo's CI
//     toolchain) they expand to nothing and serve as machine-readable
//     documentation; under clang with libc++'s annotated std::mutex
//     (-D_LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS) the locking contract in
//     IngestPipeline and ContinuousAuditor, the two classes that hold
//     mutexes, is verified at compile time. tools/provlint checks
//     that annotated members and the prose "Thread safety:" contract both
//     exist, so the two can't silently drift apart.
//
// Thread safety: macro-only header, no state.

#ifndef PROVLEDGER_COMMON_ANNOTATIONS_H_
#define PROVLEDGER_COMMON_ANNOTATIONS_H_

#define PROV_NODISCARD [[nodiscard]]

#if defined(__clang__)
#define PROV_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PROV_THREAD_ANNOTATION_(x)  // no-op: gcc has no -Wthread-safety
#endif

/// Type is a lockable capability (use on mutex wrapper classes).
#define PROV_CAPABILITY(x) PROV_THREAD_ANNOTATION_(capability(x))

/// RAII type that acquires a capability in its constructor and releases it
/// in its destructor (lock_guard-shaped wrappers).
#define PROV_SCOPED_CAPABILITY PROV_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define PROV_GUARDED_BY(x) PROV_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer itself
/// may be read freely).
#define PROV_PT_GUARDED_BY(x) PROV_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function may only be called while holding every listed capability
/// exclusively; it does not acquire or release them.
#define PROV_REQUIRES(...) \
  PROV_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Shared (reader) variant of PROV_REQUIRES.
#define PROV_REQUIRES_SHARED(...) \
  PROV_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the listed capabilities and holds them on return.
#define PROV_ACQUIRE(...) \
  PROV_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (they must be held on entry).
#define PROV_RELEASE(...) \
  PROV_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function must NOT be called while holding the listed capabilities —
/// the anti-deadlock / anti-recursive-lock annotation. This is the one to
/// put on public methods of internally-synchronized classes.
#define PROV_EXCLUDES(...) PROV_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the capability protecting its result.
#define PROV_RETURN_CAPABILITY(x) PROV_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: suppress the analysis for one function, e.g. the worker
/// loop that hands a unique_lock to a condition variable in ways the
/// checker cannot follow. Use with a comment explaining why.
#define PROV_NO_THREAD_SAFETY_ANALYSIS \
  PROV_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // PROVLEDGER_COMMON_ANNOTATIONS_H_
