#include "ckks/keyswitch_cache.h"

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

KeySwitchCache::Shared
KeySwitchCache::get(const void *key_id, u64 fingerprint, size_t level,
                    const Builder &build) const
{
    // The build is serialised under the lock (same discipline as the
    // context's basis-conversion caches); the caller's copy of the
    // owner keeps the precomp alive once it leaves the resident set.
    std::lock_guard<std::mutex> lock(m_);
    const auto key = std::make_pair(key_id, level);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.fingerprint == fingerprint) {
        it->second.lastUse = ++tick_;
        ++hits_;
        return it->second.pre;
    }
    // A first request, or the same address with different key contents
    // (the SwitchKey died and its address was re-used). Build first: a
    // throwing build (or map insert) must leave the resident entries
    // and the byte ledger untouched.
    ++misses_;
    Shared fresh = std::make_shared<const KeySwitchPrecomp>(build());
    if (it == entries_.end())
        it = entries_.emplace(key, Entry{}).first;
    residentBytes_ -= it->second.bytes;
    it->second.fingerprint = fingerprint;
    it->second.lastUse = ++tick_;
    it->second.bytes = fresh->paramBytes();
    it->second.pre = std::move(fresh);
    residentBytes_ += it->second.bytes;
    enforceBudgetLocked(key_id, level);
    return it->second.pre;
}

void
KeySwitchCache::enforceBudgetLocked(const void *keep_key,
                                    size_t keep_level) const
{
    if (budget_ == 0)
        return;
    while (residentBytes_ > budget_ && entries_.size() > 1) {
        // Strict LRU: evict the entry with the oldest use tick, never
        // the one being served right now (the caller is about to
        // receive it, even if it alone exceeds the budget).
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
        entries_.erase(victim);
        ++evictions_;
    }
}

void
KeySwitchCache::invalidate(const void *key_id)
{
    std::lock_guard<std::mutex> lock(m_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->first.first == key_id) {
            residentBytes_ -= it->second.bytes;
            it = entries_.erase(it);
        } else {
            ++it;
        }
    }
}

void
KeySwitchCache::clear()
{
    std::lock_guard<std::mutex> lock(m_);
    entries_.clear();
    residentBytes_ = 0;
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

void
KeySwitchCache::resetStats()
{
    std::lock_guard<std::mutex> lock(m_);
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

} // namespace cross::ckks
