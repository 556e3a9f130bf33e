#include "ckks/params.h"

#include <sstream>

#include "common/check.h"

namespace cross::ckks {

CkksParams
CkksParams::paperSet(char set)
{
    CkksParams p;
    p.logq = 28;
    p.dnum = 3;
    p.scaleBits = 24;
    switch (set) {
      case 'A':
        p.n = 1u << 12;
        p.limbs = 4;
        break;
      case 'B':
        p.n = 1u << 13;
        p.limbs = 8;
        break;
      case 'C':
        p.n = 1u << 14;
        p.limbs = 15;
        break;
      case 'D':
        p.n = 1u << 16;
        p.limbs = 51;
        break;
      default:
        requireThat(false, "paperSet: unknown set (use 'A'..'D')");
    }
    return p;
}

CkksParams
CkksParams::testSet(u32 n, size_t limbs, u32 dnum)
{
    CkksParams p;
    p.n = n;
    p.limbs = limbs;
    p.dnum = dnum;
    p.logq = 28;
    p.scaleBits = 24;
    return p;
}

CkksParams
CkksParams::doubleRescaled(u32 n, size_t levels, u32 wide_logq, u32 dnum)
{
    requireThat(wide_logq >= 20, "doubleRescaled: implausible width");
    CkksParams p;
    p.n = n;
    p.logq = 28;
    p.limbs = levels * ((wide_logq + p.logq - 1) / p.logq);
    p.dnum = dnum;
    p.scaleBits = 24;
    return p;
}

std::string
CkksParams::describe() const
{
    std::ostringstream os;
    os << "CKKS(N=2^" << [this] {
        u32 b = 0, v = n;
        while (v >>= 1)
            ++b;
        return b;
    }() << ", L=" << limbs << ", log2q=" << logq << ", dnum=" << dnum
       << ", scale=2^" << scaleBits << ")";
    return os.str();
}

} // namespace cross::ckks
