#include "testutil/brute_force_closed.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "testutil/apriori.hpp"

namespace dfp::testutil {

Result<std::vector<Pattern>> BruteForceClosed(const TransactionDatabase& db,
                                              const MinerConfig& config) {
    MinerConfig all_config = config;
    all_config.max_pattern_len = std::numeric_limits<std::size_t>::max();
    all_config.include_singletons = true;
    auto result = AprioriMiner().Mine(db, all_config);
    if (!result.ok()) return result.status();
    std::vector<Pattern> all = std::move(result).value();
    AttachMetadata(db, &all);

    std::vector<Pattern> closed;
    for (Pattern& p : all) {
        bool is_closed = true;
        for (ItemId j = 0; j < db.num_items() && is_closed; ++j) {
            if (std::binary_search(p.items.begin(), p.items.end(), j)) continue;
            // Adding j keeps the support ⇒ p is not closed.
            if (p.cover.AndCount(db.ItemCover(j)) == p.support) is_closed = false;
        }
        if (is_closed) closed.push_back(std::move(p));
    }
    FilterPatterns(config, &closed);
    return closed;
}

}  // namespace dfp::testutil
