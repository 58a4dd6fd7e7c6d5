#include "core/sequence_pipeline.hpp"

#include <algorithm>
#include <set>

#include "core/cover_select.hpp"
#include "ml/feature_matrix.hpp"

namespace dfp {

namespace {

struct Candidate {
    Sequence items;
    BitVector cover;
    double relevance = 0.0;
};

// IG of a cover against the sequence labels.
double CoverInformationGain(const SequenceDatabase& db, const BitVector& cover) {
    const std::vector<std::size_t> totals = db.ClassCounts();
    std::vector<std::size_t> support(db.num_classes(), 0);
    cover.ForEach([&](std::uint32_t t) { support[db.label(t)]++; });
    FeatureStats stats;
    stats.n = db.size();
    stats.support = cover.Count();
    stats.class_totals = totals;
    stats.class_support = support;
    return InformationGain(stats);
}

}  // namespace

Status SequenceClassifierPipeline::Train(const SequenceDatabase& train,
                                         std::unique_ptr<Classifier> learner) {
    if (learner == nullptr) {
        return Status::InvalidArgument("sequence pipeline requires a learner");
    }
    if (train.size() == 0) {
        return Status::InvalidArgument("empty sequence database");
    }
    num_items_ = train.num_items();

    // 1. Feature generation: PrefixSpan per class partition, pooled + deduped.
    std::set<Sequence> seen;
    std::vector<Sequence> pooled;
    auto mine_into = [&](const SequenceDatabase& part) -> Status {
        auto mined = MineSequences(part, config_.miner);
        if (!mined.ok()) return mined.status();
        for (SequentialPattern& p : *mined) {
            if (p.items.size() < config_.min_pattern_len) continue;
            if (seen.insert(p.items).second) pooled.push_back(std::move(p.items));
        }
        return Status::Ok();
    };
    if (config_.per_class_mining) {
        for (ClassLabel c = 0; c < train.num_classes(); ++c) {
            const SequenceDatabase part = train.FilterByClass(c);
            if (part.size() == 0) continue;
            DFP_RETURN_NOT_OK(mine_into(part));
        }
    } else {
        DFP_RETURN_NOT_OK(mine_into(train));
    }
    num_candidates_ = pooled.size();

    // 2. Covers + relevance, then MMR-greedy selection (Eq. 9 redundancy).
    std::vector<Candidate> candidates;
    candidates.reserve(pooled.size());
    for (Sequence& items : pooled) {
        Candidate c;
        c.cover = BitVector(train.size());
        for (std::size_t t = 0; t < train.size(); ++t) {
            if (IsSubsequence(items, train.sequence(t))) c.cover.Set(t);
        }
        c.relevance = CoverInformationGain(train, c.cover);
        c.items = std::move(items);
        candidates.push_back(std::move(c));
    }
    std::vector<BitVector> covers;
    std::vector<double> relevance;
    covers.reserve(candidates.size());
    for (const Candidate& c : candidates) {
        covers.push_back(c.cover);
        relevance.push_back(c.relevance);
    }
    const auto chosen = GreedyMmrSelect(covers, relevance, config_.max_features);
    features_.clear();
    for (std::size_t i : chosen) {
        features_.push_back({std::move(candidates[i].items),
                             candidates[i].cover.Count(),
                             candidates[i].relevance});
    }

    // 3. Learn on item presence ∪ selected subsequences, built by the same
    // Columns that encodes the sequences Predict and Accuracy see.
    const FeatureMatrix x =
        Columns(train.size(), [&train](std::size_t t) -> const Sequence& {
            return train.sequence(t);
        });
    DFP_RETURN_NOT_OK(learner->Train(x, train.labels(), train.num_classes()));
    learner_ = std::move(learner);
    return Status::Ok();
}

template <typename SequenceOf>
FeatureMatrix SequenceClassifierPipeline::Columns(std::size_t count,
                                                  SequenceOf sequence_of) const {
    FeatureMatrix x(count, num_items_ + features_.size());
    for (std::size_t t = 0; t < count; ++t) {
        const Sequence& sequence = sequence_of(t);
        for (ItemId item : sequence) {
            if (item < num_items_) x.Set(t, item);
        }
        for (std::size_t f = 0; f < features_.size(); ++f) {
            if (IsSubsequence(features_[f].items, sequence)) x.Set(t, num_items_ + f);
        }
    }
    return x;
}

ClassLabel SequenceClassifierPipeline::Predict(const Sequence& sequence) const {
    const PackedRows row(Columns(
        1, [&sequence](std::size_t) -> const Sequence& { return sequence; }));
    return learner_->Predict(row.Row(0));
}

double SequenceClassifierPipeline::Accuracy(const SequenceDatabase& test) const {
    return learner_->Accuracy(
        Columns(test.size(),
                [&test](std::size_t t) -> const Sequence& { return test.sequence(t); }),
        test.labels());
}

}  // namespace dfp
