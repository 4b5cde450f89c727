#ifndef GQE_TESTS_SANITIZED_H_
#define GQE_TESTS_SANITIZED_H_

// GQE_SANITIZED is defined when the test is built with ASan or TSan.
//
// Sanitizer allocators abort (or return null) on allocation failure
// instead of throwing std::bad_alloc, so a worker over RLIMIT_AS does not
// reach the code that turns bad_alloc into a dedicated OOM exit. The
// production path is unaffected: a sanitized worker that hits RLIMIT_AS
// still *dies*, and supervisors classify the death; only the exact exit
// code differs. Tests that observe that exit code branch on this macro.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GQE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GQE_SANITIZED 1
#endif
#endif

#endif  // GQE_TESTS_SANITIZED_H_
