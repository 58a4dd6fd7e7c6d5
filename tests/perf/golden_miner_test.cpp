// Golden-equivalence certificates for the allocation-aware mining core.
//
// The hybrid tidset/diffset Eclat and the scratch-backed closed miner both
// claim "same patterns, same supports, same order" as their plain
// copy-per-candidate forms. This suite pins that claim against *reference
// miners written independently of the production data structures*:
//
//  * RefEclat  — the plain copy-per-candidate tidset DFS (the pre-diffset
//    implementation).
//  * RefClosed — the LCM closure-extension DFS with copy-per-extension
//    covers (the pre-scratch implementation).
//
// Each runs across 20 seeded synthetic databases spanning sparse and dense
// regimes, and the production miners must match item-for-item, support-for-
// support, in emission order. The production miners run at the default one
// thread: their one DFS (the same task code every thread count runs) mined
// inline with no pool and no splits, so this pins its emission order; the
// decomposition tests then pin every other thread count to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "fpm/closed_miner.hpp"
#include "fpm/eclat.hpp"
#include "testutil/apriori.hpp"

namespace dfp {
namespace {

struct RefPattern {
    Itemset items;
    std::size_t support = 0;
};

// ---------------------------------------------------------------------------
// Reference Eclat: copy-per-candidate tidset DFS.

void RefEclatDfs(const TransactionDatabase& db, std::size_t min_sup,
                 Itemset& prefix, const BitVector& cover,
                 const std::vector<ItemId>& candidates,
                 std::vector<RefPattern>* out) {
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const ItemId i = candidates[k];
        BitVector extended = cover;
        extended &= db.ItemCover(i);
        const std::size_t support = extended.Count();
        if (support < min_sup) continue;
        prefix.push_back(i);
        out->push_back(RefPattern{prefix, support});
        const std::vector<ItemId> rest(candidates.begin() + k + 1,
                                       candidates.end());
        if (!rest.empty()) {
            RefEclatDfs(db, min_sup, prefix, extended, rest, out);
        }
        prefix.pop_back();
    }
}

std::vector<RefPattern> RefEclat(const TransactionDatabase& db,
                                 std::size_t min_sup) {
    std::vector<ItemId> frequent;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= min_sup) frequent.push_back(i);
    }
    BitVector all(db.num_transactions());
    all.Fill();
    std::vector<RefPattern> out;
    Itemset prefix;
    RefEclatDfs(db, min_sup, prefix, all, frequent, &out);
    return out;
}

// ---------------------------------------------------------------------------
// Reference closed miner: LCM closure extension with copied covers.

void RefClosedDfs(const TransactionDatabase& db, std::size_t min_sup,
                  const std::vector<ItemId>& frequent, const Itemset& closed,
                  const BitVector& tidset, ItemId core,
                  std::vector<RefPattern>* out) {
    for (ItemId i : frequent) {
        if (i <= core) continue;
        if (std::binary_search(closed.begin(), closed.end(), i)) continue;
        BitVector extended = tidset;
        extended &= db.ItemCover(i);
        const std::size_t support = extended.Count();
        if (support < min_sup) continue;
        Itemset closure;
        bool prefix_ok = true;
        for (ItemId j : frequent) {
            if (std::binary_search(closed.begin(), closed.end(), j)) {
                closure.push_back(j);
                continue;
            }
            if (extended.IsSubsetOf(db.ItemCover(j))) {
                if (j < i) {
                    prefix_ok = false;
                    break;
                }
                closure.push_back(j);
            }
        }
        if (!prefix_ok) continue;
        std::sort(closure.begin(), closure.end());
        out->push_back(RefPattern{closure, support});
        RefClosedDfs(db, min_sup, frequent, closure, extended, i, out);
    }
}

std::vector<RefPattern> RefClosed(const TransactionDatabase& db,
                                  std::size_t min_sup) {
    const std::size_t n = db.num_transactions();
    std::vector<ItemId> frequent;
    for (ItemId i = 0; i < db.num_items(); ++i) {
        if (db.ItemSupport(i) >= min_sup) frequent.push_back(i);
    }
    Itemset root_closed;
    for (ItemId i : frequent) {
        if (db.ItemSupport(i) == n) root_closed.push_back(i);
    }
    std::vector<RefPattern> out;
    if (!root_closed.empty() && n >= min_sup) {
        out.push_back(RefPattern{root_closed, n});
    }
    for (ItemId i : frequent) {
        if (std::binary_search(root_closed.begin(), root_closed.end(), i)) {
            continue;
        }
        BitVector tidset = db.ItemCover(i);
        const std::size_t support = tidset.Count();
        if (support < min_sup) continue;
        Itemset closure;
        bool prefix_ok = true;
        for (ItemId j : frequent) {
            if (std::binary_search(root_closed.begin(), root_closed.end(), j)) {
                closure.push_back(j);
                continue;
            }
            if (tidset.IsSubsetOf(db.ItemCover(j))) {
                if (j < i) {
                    prefix_ok = false;
                    break;
                }
                closure.push_back(j);
            }
        }
        if (prefix_ok) {
            std::sort(closure.begin(), closure.end());
            out.push_back(RefPattern{closure, support});
            RefClosedDfs(db, min_sup, frequent, closure, tidset, i, &out);
        }
    }
    return out;
}

// ---------------------------------------------------------------------------

TransactionDatabase RandomDb(std::uint64_t seed, std::size_t rows,
                             std::size_t items, double density) {
    Rng rng(seed);
    std::vector<std::vector<ItemId>> txns(rows);
    std::vector<ClassLabel> labels(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        for (ItemId i = 0; i < items; ++i) {
            if (rng.Bernoulli(density)) txns[t].push_back(i);
        }
        if (txns[t].empty()) txns[t].push_back(static_cast<ItemId>(t % items));
        labels[t] = static_cast<ClassLabel>(rng.UniformInt(std::uint64_t{2}));
    }
    return TransactionDatabase::FromTransactions(std::move(txns),
                                                 std::move(labels), items, 2);
}

// 20 seeded regimes: sparse wide, dense narrow and mid-density corpora.
struct DbSpec {
    std::uint64_t seed;
    std::size_t rows;
    std::size_t items;
    double density;
    double min_sup_rel;
};

std::vector<DbSpec> GoldenSpecs() {
    std::vector<DbSpec> specs;
    for (std::uint64_t s = 0; s < 7; ++s) {
        specs.push_back({100 + s, 120, 24, 0.12, 0.05});  // sparse
    }
    for (std::uint64_t s = 0; s < 7; ++s) {
        specs.push_back({200 + s, 80, 12, 0.55, 0.20});  // dense
    }
    for (std::uint64_t s = 0; s < 6; ++s) {
        specs.push_back({300 + s, 150, 18, 0.30, 0.10});  // mid
    }
    return specs;
}

void ExpectSameStream(const std::vector<Pattern>& got,
                      const std::vector<RefPattern>& want,
                      const char* miner, std::uint64_t seed) {
    ASSERT_EQ(got.size(), want.size()) << miner << " seed=" << seed;
    for (std::size_t p = 0; p < got.size(); ++p) {
        ASSERT_EQ(got[p].items, want[p].items)
            << miner << " seed=" << seed << " position=" << p;
        ASSERT_EQ(got[p].support, want[p].support)
            << miner << " seed=" << seed << " position=" << p;
    }
}

TEST(GoldenMinerTest, EclatMatchesReferenceTidsetDfs) {
    EclatMiner miner;
    for (const DbSpec& spec : GoldenSpecs()) {
        const auto db = RandomDb(spec.seed, spec.rows, spec.items, spec.density);
        MinerConfig config;
        config.min_sup_rel = spec.min_sup_rel;
        const auto got = miner.Mine(db, config);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const auto want = RefEclat(db, ResolveMinSup(config, spec.rows));
        ExpectSameStream(*got, want, "eclat", spec.seed);
    }
}

TEST(GoldenMinerTest, ClosedMatchesReferenceLcm) {
    ClosedMiner miner;
    for (const DbSpec& spec : GoldenSpecs()) {
        const auto db = RandomDb(spec.seed, spec.rows, spec.items, spec.density);
        MinerConfig config;
        config.min_sup_rel = spec.min_sup_rel;
        const auto got = miner.Mine(db, config);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const auto want = RefClosed(db, ResolveMinSup(config, spec.rows));
        ExpectSameStream(*got, want, "closed", spec.seed);
    }
}

// Eclat agrees with the level-wise reference Apriori on the *set* of frequent
// patterns (orders differ by design: Apriori is level-major).
TEST(GoldenMinerTest, MinersAgreeOnPatternSets) {
    testutil::AprioriMiner ap;
    EclatMiner ec;
    for (const DbSpec& spec : GoldenSpecs()) {
        const auto db = RandomDb(spec.seed, spec.rows, spec.items, spec.density);
        MinerConfig config;
        config.min_sup_rel = spec.min_sup_rel;
        auto a = ap.Mine(db, config);
        auto b = ec.Mine(db, config);
        ASSERT_TRUE(a.ok() && b.ok());
        std::map<Itemset, std::size_t> ma;
        for (const Pattern& p : *a) ma[p.items] = p.support;
        std::map<Itemset, std::size_t> mb;
        for (const Pattern& p : *b) mb[p.items] = p.support;
        ASSERT_EQ(ma, mb) << "seed=" << spec.seed;
    }
}

}  // namespace
}  // namespace dfp
