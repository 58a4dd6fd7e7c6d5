#include "core/redundancy.hpp"

#include <cassert>

namespace dfp {

double CoverJaccard(const BitVector& a, std::size_t count_a,
                    const BitVector& b, std::size_t count_b) {
    assert(count_a == a.Count() && count_b == b.Count());
    const std::size_t inter = a.AndCount(b);
    const std::size_t unions = count_a + count_b - inter;
    if (unions == 0) return 0.0;
    return static_cast<double>(inter) / static_cast<double>(unions);
}

}  // namespace dfp
