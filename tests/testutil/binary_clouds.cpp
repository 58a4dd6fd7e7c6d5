#include "testutil/binary_clouds.hpp"

#include "common/rng.hpp"

namespace dfp::testutil {

FeatureMatrix BinaryClouds(std::size_t classes, std::size_t n_per_class,
                           std::size_t dims, double p_own, double p_foreign,
                           std::uint64_t seed, std::vector<ClassLabel>* y) {
    Rng rng(seed);
    FeatureMatrix x(classes * n_per_class, dims);
    y->clear();
    const std::size_t owned = dims / classes;  // own features per class, ≥ 1
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const std::size_t c = r / n_per_class;
        for (std::size_t f = 0; f < dims; ++f) {
            if (rng.Bernoulli(f % classes == c ? p_own : p_foreign)) x.Set(r, f);
        }
        x.Set(r, c + classes * static_cast<std::size_t>(rng.UniformInt(
                                    std::uint64_t{owned})));
        y->push_back(static_cast<ClassLabel>(c));
    }
    return x;
}

std::vector<int> PlusMinus(const std::vector<ClassLabel>& y) {
    std::vector<int> out;
    out.reserve(y.size());
    for (ClassLabel label : y) out.push_back(label == 1 ? 1 : -1);
    return out;
}

}  // namespace dfp::testutil
