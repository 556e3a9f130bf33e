/**
 * @file
 * Batch-reusable key-switching operands and their context-level
 * residency cache.
 *
 * KeySwitchPrecomp is the paramBytes half of the simulator's batching
 * model (tpu::runBatched): the switching-key digits restricted to one
 * level's extended basis, streamed once and reused by every ciphertext
 * in a batch. KeySwitchCache keeps those operands resident across
 * batches, evaluators and pipeline stages -- the "key-switch key
 * residency" the SHARP line of work motivates -- so each (key
 * identity, level) pair is built exactly once while resident.
 *
 * Identity and invalidation rules:
 *  - Entries are keyed by the *address* of the SwitchKey plus the
 *    level; callers should invalidate() when a SwitchKey is destroyed
 *    or mutated. As defence in depth each entry also records a content
 *    fingerprint of the key, and a lookup whose fingerprint disagrees
 *    rebuilds the entry in place -- so a *different* key re-using a
 *    dead key's address (temporaries, reallocated containers) is
 *    detected and served correctly rather than silently handed the
 *    stale operands.
 *  - get() is thread-safe; builds are serialised under the cache lock.
 *    Precomps are shared-owned: get() hands out a reference-counted
 *    owner, and a fingerprint-mismatch rebuild, an LRU eviction,
 *    invalidate() and clear() only drop the cache's own reference. A
 *    displaced precomp therefore stays valid for every caller still
 *    holding it (BatchEvaluator::run holds the ones it fetched until
 *    it returns) and is freed when the last of them lets go.
 *
 * Residency bound (the Fig. 11b VMEM roll-off, functionally):
 *  - setByteBudget(b) bounds the *resident* set by the summed
 *    paramBytes of the cached precomps, evicting in strict
 *    least-recently-used order (every get() is a use). A lookup that
 *    lands on an evicted pair misses and rebuilds, exactly as a
 *    switching key that rolled out of VMEM must be re-streamed. Set-D
 *    style many-level rotation-key sets therefore degrade
 *    deterministically instead of growing without bound.
 *  - Beyond the resident set, memory holds only the evicted precomps
 *    that in-flight readers still own -- at most each running batch's
 *    own working set -- however many batches overlap.
 *  - A single precomp larger than the whole budget is still served
 *    (the alternative is livelock); it is evicted as soon as the next
 *    entry lands.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.h"
#include "poly/ring.h"

namespace cross::ckks {

/**
 * Batch-reusable key-switching operands for one level: the extended
 * slot list and the switching-key digits restricted to it. The
 * BatchEvaluator builds one per (key, level) and shares it across
 * every ciphertext in the batch instead of re-selecting per operation.
 */
struct KeySwitchPrecomp
{
    size_t level = 0;
    std::vector<u32> extSlots;
    /** Per digit: (b, a) key halves pre-restricted to extSlots. */
    std::vector<std::pair<poly::RnsPoly, poly::RnsPoly>> keys;

    /**
     * Bytes of switching-key operands this precomp keeps resident --
     * the same paramBytes quantity the TPU cost model amortises across
     * a batch. The LRU budget accounts in this unit.
     */
    size_t paramBytes() const;
};

/** Context-level (key identity, level) -> KeySwitchPrecomp cache. */
class KeySwitchCache
{
  public:
    using Builder = std::function<KeySwitchPrecomp()>;
    using Shared = std::shared_ptr<const KeySwitchPrecomp>;

    /**
     * Return the resident precomp for (@p key_id, @p level), invoking
     * @p build under the cache lock on the first request or when the
     * resident entry's @p fingerprint disagrees (address re-used by a
     * different key). Counts as a use for LRU purposes and may evict
     * other entries when a byte budget is set. The returned owner
     * keeps the precomp alive after it leaves the resident set.
     */
    Shared get(const void *key_id, u64 fingerprint, size_t level,
               const Builder &build) const;

    /** Drop every level cached for @p key_id from the resident set. */
    void invalidate(const void *key_id);

    /** Drop every resident entry. */
    void clear();

    /**
     * Bound the resident set to @p bytes of precomp paramBytes
     * (0 = unbounded, the default). Shrinking below the current
     * resident size evicts immediately, oldest first.
     */
    void setByteBudget(size_t bytes);
    size_t byteBudget() const;

    /** @name Introspection (conformance tests assert build counts). @{ */
    /** Lookups served from a resident entry. */
    u64 hits() const;
    /** Lookups that had to build (== precomps constructed). */
    u64 misses() const;
    /** Entries displaced by the LRU budget (not fingerprint rebuilds). */
    u64 evictions() const;
    /** Resident (key, level) entries. */
    size_t size() const;
    /** Summed paramBytes of the resident entries (<= byteBudget()
     *  whenever a budget is set and more than one entry ever fit). */
    size_t residentBytes() const;
    /** Zero the hit/miss/eviction counters; resident entries stay. */
    void resetStats();
    /** @} */

  private:
    struct Entry
    {
        u64 fingerprint = 0;
        u64 lastUse = 0;  ///< LRU tick of the most recent get()
        size_t bytes = 0; ///< pre->paramBytes(), cached
        Shared pre;
    };

    /** Evict LRU entries until the budget holds; m_ must be held.
     *  @p keep is the entry that must survive (the one being served). */
    void enforceBudgetLocked(const void *keep_key, size_t keep_level) const;

    mutable std::mutex m_;
    mutable std::map<std::pair<const void *, size_t>, Entry> entries_;
    mutable size_t budget_ = 0;
    mutable size_t residentBytes_ = 0;
    mutable u64 tick_ = 0;
    mutable u64 hits_ = 0;
    mutable u64 misses_ = 0;
    mutable u64 evictions_ = 0;
};

} // namespace cross::ckks
