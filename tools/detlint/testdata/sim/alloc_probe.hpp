// Fixture for the detlint self-test (tools/detlint/expect_alloc_findings.cmake).
// It sits under a sim/ directory so the hot-path-alloc check applies. The
// placement new constructs into caller-owned storage and must not be
// flagged; the plain new and the nothrow new allocate and must be.
#pragma once

#include <new>

inline int* probe_placement(void* buf) { return ::new (buf) int(1); }
inline int* probe_plain() { return new int(2); }
inline int* probe_nothrow() { return ::new (std::nothrow) int(3); }
