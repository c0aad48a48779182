// Source annotations consumed by the rtdls-verify static-analysis pass
// (tools/verify): zero-cost markers that turn project conventions into
// mechanically checkable contracts.
//
//  * RTDLS_HOT marks a planner/index kernel as allocation-free: the
//    `rtdls-hot-path-alloc` check rejects any allocation construct (new,
//    make_unique/make_shared, malloc, local owning-container or string
//    declarations, and growth calls on such locals) inside the annotated
//    function and inside functions it reaches. Growth calls on *member*
//    scratch (resize/reserve/push_back on fields) stay legal - that is the
//    PR 5/6 amortized scratch-reuse contract, where capacity is retained
//    across calls and steady-state invocations allocate nothing.
//
//  * RTDLS_LOCK_LEVEL(n) declares a mutex member's position in the global
//    lock order (see the table in README "Static analysis & sanitizers").
//    Guards must acquire strictly increasing levels; the
//    `rtdls-lock-discipline` check flags naked lock()/unlock() on
//    leveled members and any function body that acquires a lower level
//    while a higher one is still held.
//
// The checks read the markers from the source text, so in the build
// RTDLS_HOT is just the hot attribute and RTDLS_LOCK_LEVEL expands to
// nothing.
#pragma once

#define RTDLS_HOT [[gnu::hot]]
#define RTDLS_LOCK_LEVEL(n)
