#include "nt/primes.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "nt/modops.h"

namespace cross::nt {

namespace {

// One Miller-Rabin round with witness a; n odd, n > 2.
bool
millerRabinRound(u64 n, u64 a, u64 d, u32 r)
{
    a %= n;
    if (a == 0)
        return true;
    u64 x = powMod(a, d, n);
    if (x == 1 || x == n - 1)
        return true;
    for (u32 i = 1; i < r; ++i) {
        x = mulMod(x, x, n);
        if (x == n - 1)
            return true;
    }
    return false;
}

// Pollard rho (Brent variant) for composite odd n.
u64
pollardRho(u64 n)
{
    if ((n & 1) == 0)
        return 2;
    u64 c = 1;
    for (;;) {
        u64 x = 2, y = 2, d = 1;
        auto f = [&](u64 v) { return addMod(mulMod(v, v, n), c, n); };
        while (d == 1) {
            x = f(x);
            y = f(f(y));
            u64 diff = x > y ? x - y : y - x;
            if (diff == 0)
                break;
            d = std::gcd(diff, n);
        }
        if (d != 1 && d != n)
            return d;
        ++c; // retry with a different polynomial offset
    }
}

void
factorInto(u64 n, std::vector<u64> &out)
{
    if (n == 1)
        return;
    if (isPrime(n)) {
        out.push_back(n);
        return;
    }
    // Strip small factors first; Pollard for the rest.
    for (u64 p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL}) {
        if (n % p == 0) {
            out.push_back(p);
            while (n % p == 0)
                n /= p;
            factorInto(n, out);
            return;
        }
    }
    u64 d = pollardRho(n);
    factorInto(d, out);
    while (n % d == 0)
        n /= d;
    factorInto(n, out);
}

} // namespace

bool
isPrime(u64 n)
{
    if (n < 2)
        return false;
    for (u64 p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL,
                  29ULL, 31ULL, 37ULL}) {
        if (n == p)
            return true;
        if (n % p == 0)
            return false;
    }
    u64 d = n - 1;
    u32 r = 0;
    while ((d & 1) == 0) {
        d >>= 1;
        ++r;
    }
    // This witness set is deterministic for all n < 2^64.
    for (u64 a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL,
                  29ULL, 31ULL, 37ULL}) {
        if (!millerRabinRound(n, a, d, r))
            return false;
    }
    return true;
}

std::vector<u64>
generateNttPrimes(u32 bits, size_t count, u64 modStep)
{
    return generateNttPrimesAvoiding(bits, count, modStep, {});
}

std::vector<u64>
generateNttPrimesAvoiding(u32 bits, size_t count, u64 modStep,
                          const std::vector<u64> &exclude)
{
    requireThat(bits >= 4 && bits <= 62, "prime bits out of range");
    requireThat(modStep > 0, "modStep must be positive");

    std::vector<u64> primes;
    const u64 hi = (1ULL << bits) - 1;
    const u64 lo = 1ULL << (bits - 1);
    // Largest candidate == 1 (mod modStep) not exceeding hi.
    u64 cand = hi - (hi - 1) % modStep;
    while (primes.size() < count && cand > lo) {
        if (isPrime(cand) &&
            std::find(exclude.begin(), exclude.end(), cand) == exclude.end())
        {
            primes.push_back(cand);
        }
        if (cand < modStep)
            break;
        cand -= modStep;
    }
    requireThat(primes.size() == count,
                "generateNttPrimes: not enough primes with the requested "
                "bit width and congruence");
    return primes;
}

std::vector<u64>
distinctPrimeFactors(u64 n)
{
    std::vector<u64> out;
    factorInto(n, out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace cross::nt
