#include "poly/limb_pool.h"

#include <cstring>
#include <new>

// The poison macros do nothing outside an AddressSanitizer build, so
// every build runs the same code; a toolchain without the header gets
// the same no-ops.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace cross::poly {

namespace {

/** One thread's released limbs, a stack per limb length. */
struct FreeList
{
    struct SizeClass
    {
        size_t n;
        std::vector<std::vector<u32>> limbs;
    };
    std::vector<SizeClass> classes;
    size_t bytes = 0;

    FreeList() = default;
    FreeList(const FreeList &) = delete;
    FreeList &operator=(const FreeList &) = delete;
    ~FreeList();

    std::vector<std::vector<u32>> &stack(size_t n)
    {
        for (auto &c : classes)
            if (c.n == n)
                return c.limbs;
        return classes.emplace_back(SizeClass{n, {}}).limbs;
    }
};

// Trivially destructible, so it stays readable while the thread's
// other thread_local objects (and, on the main thread, statics) are
// torn down after its list.
thread_local bool t_listGone = false;

FreeList::~FreeList()
{
    t_listGone = true;
    for (auto &c : classes)
        for (auto &limb : c.limbs)
            ASAN_UNPOISON_MEMORY_REGION(limb.data(), c.n * sizeof(u32));
}

/** This thread's list, or null once thread exit has destroyed it. */
FreeList *
freeList()
{
    if (t_listGone)
        return nullptr;
    thread_local FreeList list;
    return &list;
}

} // namespace

std::vector<u32>
takeLimb(size_t n, bool zero)
{
    FreeList *list = freeList();
    if (list) {
        auto &stack = list->stack(n);
        if (!stack.empty()) {
            std::vector<u32> limb = std::move(stack.back());
            stack.pop_back();
            list->bytes -= n * sizeof(u32);
            ASAN_UNPOISON_MEMORY_REGION(limb.data(), n * sizeof(u32));
            if (zero)
                std::memset(limb.data(), 0, n * sizeof(u32));
            return limb;
        }
    }
    return std::vector<u32>(n); // value-initialised: zero either way
}

void
releaseLimb(std::vector<u32> &&limb, size_t n) noexcept
{
    const size_t bytes = n * sizeof(u32);
    FreeList *list = freeList();
    if (list && n != 0 && limb.size() == n && limb.capacity() == n &&
        list->bytes + bytes <= kLimbFreeListBytes) {
        try {
            auto &stack = list->stack(n);
            stack.push_back(std::move(limb));
            ASAN_POISON_MEMORY_REGION(stack.back().data(), bytes);
            list->bytes += bytes;
            return;
        } catch (const std::bad_alloc &) {
            // Destructors release limbs, so listing one must not throw:
            // with no memory to grow the list, free the limb instead.
        }
    }
    std::vector<u32>().swap(limb);
}

size_t
freeListBytes()
{
    const FreeList *list = freeList();
    return list ? list->bytes : 0;
}

} // namespace cross::poly
