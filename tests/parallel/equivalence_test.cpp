// Determinism certificates for the parallel layer: every parallel call site
// must produce results identical to the serial path (num_threads == 1) for
// every thread count — miners' pattern sets (sorted, with supports) and OvO
// SVM predictions. 20 random databases × threads ∈ {1, 2, 3, 5, 8, 16}
// (non-power-of-two and oversubscribed counts included).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "ml/svm/svm.hpp"
#include "testutil/binary_clouds.hpp"

namespace dfp {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 5, 8, 16};
constexpr std::uint64_t kNumSeeds = 20;

TransactionDatabase RandomDb(std::uint64_t seed, std::size_t n = 40,
                             std::size_t items = 10, double density = 0.30) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(n);
    std::vector<ClassLabel> labels(n);
    for (std::size_t t = 0; t < n; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % items));
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items, 2);
}

std::map<Itemset, std::size_t> ToMap(const std::vector<Pattern>& patterns) {
    std::map<Itemset, std::size_t> m;
    for (const auto& p : patterns) m[p.items] = p.support;
    return m;
}

class MinerThreadEquivalenceTest : public ::testing::TestWithParam<const char*> {
  protected:
    std::unique_ptr<Miner> MakeNamed() const {
        const std::string name = GetParam();
        if (name == "eclat") return std::make_unique<EclatMiner>();
        if (name == "closed") return std::make_unique<ClosedMiner>();
        return nullptr;
    }
};

TEST_P(MinerThreadEquivalenceTest, PatternSetIdenticalForEveryThreadCount) {
    const auto miner = MakeNamed();
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        const auto db = RandomDb(seed);
        MinerConfig config;
        config.min_sup_rel = 0.10;

        config.num_threads = 1;
        const auto serial = miner->Mine(db, config);
        ASSERT_TRUE(serial.ok()) << serial.status();
        const auto want = ToMap(*serial);

        for (const std::size_t threads : kThreadCounts) {
            config.num_threads = threads;
            const auto got = miner->Mine(db, config);
            ASSERT_TRUE(got.ok()) << got.status();
            EXPECT_EQ(ToMap(*got), want)
                << miner->Name() << " diverges at num_threads=" << threads
                << " (seed " << seed << ")";
        }
    }
}

// Beyond the pattern *set*, the emitted *order* must match the serial code
// byte for byte: downstream stages (dedup, MMRFS tie-breaks) see a vector.
TEST_P(MinerThreadEquivalenceTest, EmissionOrderMatchesSerial) {
    const auto miner = MakeNamed();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto db = RandomDb(seed);
        MinerConfig config;
        config.min_sup_rel = 0.10;
        config.num_threads = 1;
        const auto serial = miner->Mine(db, config);
        ASSERT_TRUE(serial.ok());
        config.num_threads = 8;
        const auto parallel = miner->Mine(db, config);
        ASSERT_TRUE(parallel.ok());
        ASSERT_EQ(serial->size(), parallel->size());
        for (std::size_t i = 0; i < serial->size(); ++i) {
            EXPECT_EQ((*serial)[i].items, (*parallel)[i].items)
                << miner->Name() << " order diverges at position " << i
                << " (seed " << seed << ")";
            EXPECT_EQ((*serial)[i].support, (*parallel)[i].support);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ParallelMiners, MinerThreadEquivalenceTest,
                         ::testing::Values("eclat", "closed"));

// Three overlapping 0/1 clouds → 3 OvO binary subproblems per model.
void MakeBlobs(std::uint64_t seed, std::size_t n_per_class, FeatureMatrix* x,
               std::vector<ClassLabel>* y) {
    *x = testutil::BinaryClouds(3, n_per_class, 9, 0.6, 0.25, seed, y);
}

TEST(SvmThreadEquivalenceTest, OvoPredictionsIdenticalForEveryThreadCount) {
    for (std::uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        FeatureMatrix x;
        std::vector<ClassLabel> y;
        MakeBlobs(seed, 20, &x, &y);

        SmoConfig config;
        config.num_threads = 1;
        SvmClassifier serial(config);
        ASSERT_TRUE(serial.Train(x, y, 3).ok());
        const PackedRows rows(x);
        std::vector<ClassLabel> want;
        want.reserve(x.rows());
        for (std::size_t r = 0; r < x.rows(); ++r) {
            want.push_back(serial.Predict(rows.Row(r)));
        }

        for (const std::size_t threads : kThreadCounts) {
            config.num_threads = threads;
            SvmClassifier model(config);
            ASSERT_TRUE(model.Train(x, y, 3).ok());
            for (std::size_t r = 0; r < x.rows(); ++r) {
                EXPECT_EQ(model.Predict(rows.Row(r)), want[r])
                    << "prediction diverges at row " << r << " num_threads="
                    << threads << " (seed " << seed << ")";
            }
        }
    }
}

}  // namespace
}  // namespace dfp
