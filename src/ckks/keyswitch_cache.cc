#include "ckks/keyswitch_cache.h"

#include "common/check.h"

namespace cross::ckks {

size_t
KeySwitchPrecomp::paramBytes() const
{
    size_t bytes = extSlots.size() * sizeof(u32);
    for (const auto &[b, a] : keys) {
        for (const poly::RnsPoly *poly : {&b, &a}) {
            for (size_t i = 0; i < poly->limbCount(); ++i)
                bytes += poly->limb(i).size() * sizeof(u32);
        }
    }
    return bytes;
}

const KeySwitchPrecomp &
KeySwitchCache::get(const void *key_id, u64 fingerprint, size_t level,
                    const Builder &build) const
{
    // Map nodes are address-stable, so the returned reference outlives
    // the lock; the build itself is serialised (same discipline as the
    // context's basis-conversion caches).
    std::lock_guard<std::mutex> lock(m_);
    const auto key = std::make_pair(key_id, level);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        it->second.lastUse = ++tick_;
        if (it->second.fingerprint == fingerprint) {
            ++hits_;
            return *it->second.pre;
        }
        // Same address, different key contents: the SwitchKey died and
        // its address was re-used. Build the replacement *first* (a
        // throwing build must leave the resident entry and the byte
        // ledger untouched), then retire the old precomp (readers may
        // still hold references into it) and swap in the fresh one.
        ++misses_;
        auto fresh = std::make_unique<KeySwitchPrecomp>(build());
        residentBytes_ -= it->second.bytes;
        retired_.push_back(std::move(it->second.pre));
        it->second.fingerprint = fingerprint;
        it->second.bytes = fresh->paramBytes();
        it->second.pre = std::move(fresh);
        residentBytes_ += it->second.bytes;
        enforceBudgetLocked(key_id, level);
        return *it->second.pre;
    }
    ++misses_;
    Entry e;
    e.fingerprint = fingerprint;
    e.lastUse = ++tick_;
    e.pre = std::make_unique<KeySwitchPrecomp>(build());
    e.bytes = e.pre->paramBytes();
    // Insert before touching the byte ledger: a throwing map insert
    // (allocation failure) must not leave residentBytes_ accounting
    // for an entry that never landed.
    auto it2 = entries_.emplace(key, std::move(e)).first;
    residentBytes_ += it2->second.bytes;
    const KeySwitchPrecomp &ref = *it2->second.pre;
    enforceBudgetLocked(key_id, level);
    return ref;
}

void
KeySwitchCache::enforceBudgetLocked(const void *keep_key,
                                    size_t keep_level) const
{
    if (budget_ == 0)
        return;
    while (residentBytes_ > budget_ && entries_.size() > 1) {
        // Strict LRU: evict the entry with the oldest use tick, never
        // the one being served right now (its reference is live in the
        // caller even if it alone exceeds the budget).
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->first.first == keep_key &&
                it->first.second == keep_level)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == entries_.end())
            break;
        residentBytes_ -= victim->second.bytes;
        retired_.push_back(std::move(victim->second.pre));
        entries_.erase(victim);
        ++evictions_;
    }
}

void
KeySwitchCache::invalidate(const void *key_id)
{
    // Retire, don't destroy: an in-flight evaluation may still read
    // the displaced precomps through references it fetched earlier.
    // The quiesce point -- the last ReaderGuard dropping -- reclaims
    // them; with no readers the reclamation happens right here.
    std::lock_guard<std::mutex> lock(m_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->first.first == key_id) {
            residentBytes_ -= it->second.bytes;
            retired_.push_back(std::move(it->second.pre));
            it = entries_.erase(it);
        } else {
            ++it;
        }
    }
    if (activeReaders_ == 0)
        retired_.clear();
}

void
KeySwitchCache::clear()
{
    std::lock_guard<std::mutex> lock(m_);
    for (auto &entry : entries_)
        retired_.push_back(std::move(entry.second.pre));
    entries_.clear();
    residentBytes_ = 0;
    if (activeReaders_ == 0)
        retired_.clear();
}

void
KeySwitchCache::setByteBudget(size_t bytes)
{
    std::lock_guard<std::mutex> lock(m_);
    budget_ = bytes;
    // Shrink below the new bound immediately. No entry is being served
    // right now, and no real entry has a null key_id, so the keeper
    // guard never matches and plain LRU order decides.
    enforceBudgetLocked(nullptr, 0);
}

size_t
KeySwitchCache::byteBudget() const
{
    std::lock_guard<std::mutex> lock(m_);
    return budget_;
}

u64
KeySwitchCache::hits() const
{
    std::lock_guard<std::mutex> lock(m_);
    return hits_;
}

u64
KeySwitchCache::misses() const
{
    std::lock_guard<std::mutex> lock(m_);
    return misses_;
}

u64
KeySwitchCache::evictions() const
{
    std::lock_guard<std::mutex> lock(m_);
    return evictions_;
}

size_t
KeySwitchCache::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return entries_.size();
}

size_t
KeySwitchCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(m_);
    return residentBytes_;
}

size_t
KeySwitchCache::retiredBytes() const
{
    std::lock_guard<std::mutex> lock(m_);
    size_t bytes = 0;
    for (const auto &pre : retired_)
        bytes += pre->paramBytes();
    return bytes;
}

void
KeySwitchCache::resetStats()
{
    std::lock_guard<std::mutex> lock(m_);
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

void
KeySwitchCache::releaseRetired()
{
    std::lock_guard<std::mutex> lock(m_);
    if (activeReaders_ == 0)
        retired_.clear();
}

void
KeySwitchCache::retainReader() const
{
    std::lock_guard<std::mutex> lock(m_);
    ++activeReaders_;
}

void
KeySwitchCache::releaseReader() const
{
    std::lock_guard<std::mutex> lock(m_);
    internalCheck(activeReaders_ > 0,
                  "KeySwitchCache: reader underflow");
    if (--activeReaders_ == 0)
        retired_.clear();
}

u64
KeySwitchCache::activeReaders() const
{
    std::lock_guard<std::mutex> lock(m_);
    return activeReaders_;
}

} // namespace cross::ckks
