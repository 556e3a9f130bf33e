/**
 * @file
 * Per-thread recycling of limb buffers.
 *
 * Every RnsPoly limb is an N-word std::vector<u32>. One top-level
 * Set-B key switch passes about 80 of them through the heap, and an
 * operator frees most of them at once; glibc then trims the top of its
 * heap and the next operator faults the same pages back in. So every
 * limb an RnsPoly takes or gives back goes through a free list owned
 * by the calling thread instead:
 *
 *  - One size class per limb length, so a limb freed at one level
 *    serves any later polynomial of the same ring degree.
 *  - No lock: a list is only touched by its own thread. A limb
 *    released on another thread joins that thread's list.
 *  - Bounded by kLimbFreeListBytes; a release past the bound, of a
 *    limb that is not exactly its length long, or after the thread's
 *    list is gone (thread exit) frees the limb normally.
 *  - Under AddressSanitizer a listed limb is poisoned until it is taken
 *    again, so a read through a released limb still fails.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace cross::poly {

/**
 * Most limb bytes one thread's free list retains. A steady state needs
 * the largest swing of live limbs within a request: a compiled Set-B
 * MLP request (N = 2^13, 32 KiB limbs) peaks 85 limbs (2.7 MiB) above
 * its idle level, inside the relinearisation's key switch. 3 MiB
 * covers that, so a steady-state setb_mlp_single request takes no
 * page faults. A longer list gains nothing there and costs peak RSS
 * where threads free limbs that others allocated: on
 * setb_serve_closed (two dispatchers, a pool worker and the driver)
 * the 4-vCPU reference host measured peak RSS 101.9-102.1, 103.0-103.6
 * and 103.1 MiB at 2, 3 and 4 MiB per thread, against 100.2 MiB before
 * limbs were recycled.
 */
inline constexpr size_t kLimbFreeListBytes = size_t{3} << 20;

/**
 * An @p n-word limb: one from this thread's free list when it holds
 * one, else a new allocation. Zero-filled when @p zero, otherwise its
 * contents are unspecified.
 */
std::vector<u32> takeLimb(size_t n, bool zero);

/**
 * Give @p limb back. It joins this thread's free list when it is
 * exactly @p n words long (size and capacity) and the list has room;
 * otherwise it is freed.
 */
void releaseLimb(std::vector<u32> &&limb, size_t n) noexcept;

/** Bytes this thread's free list retains now. */
size_t freeListBytes();

} // namespace cross::poly
