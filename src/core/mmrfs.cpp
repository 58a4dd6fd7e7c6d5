#include "core/mmrfs.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "common/parallel.hpp"
#include "core/redundancy.hpp"
#include "obs/metrics.hpp"

namespace dfp {

namespace {

// Flushes one selection run's tallies to the registry: how many greedy rounds
// ran, the accept/discard split, the gain distribution of accepted features
// and how many instances were still under δ coverage at the stop.
void FlushMmrfsMetrics(std::size_t iterations, std::size_t accepted,
                       std::size_t discarded, const std::vector<double>& gains,
                       std::size_t under_covered, std::size_t pool_size,
                       std::size_t redundancy_evals) {
    auto& registry = obs::Registry::Get();
    static auto& iter_c = registry.GetCounter("dfp.core.mmrfs.iterations");
    static auto& accept_c = registry.GetCounter("dfp.core.mmrfs.accepted");
    static auto& discard_c = registry.GetCounter("dfp.core.mmrfs.discarded");
    static auto& red_c =
        registry.GetCounter("dfp.core.mmrfs.redundancy_evals");
    static auto& gain_h = registry.GetHistogram(
        "dfp.core.mmrfs.gain",
        {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0});
    static auto& under_covered_g =
        registry.GetGauge("dfp.core.mmrfs.under_covered_final");
    static auto& pool_size_g = registry.GetGauge("dfp.core.mmrfs.pool_size");
    iter_c.Inc(iterations);
    accept_c.Inc(accepted);
    discard_c.Inc(discarded);
    red_c.Inc(redundancy_evals);
    gain_h.ObserveBatch(gains);
    under_covered_g.Set(static_cast<double>(under_covered));
    pool_size_g.Set(static_cast<double>(pool_size));
}

}  // namespace

MmrfsResult RunMmrfs(const TransactionDatabase& db,
                     const std::vector<Pattern>& candidates,
                     const MmrfsConfig& config) {
    const std::size_t n = db.num_transactions();
    MmrfsResult result;
    result.coverage.assign(n, 0);
    result.relevance.resize(candidates.size());
    if (candidates.empty() || n == 0) return result;
    assert((config.candidate_mask == nullptr ||
            config.candidate_mask->size() == candidates.size()) &&
           "candidate_mask must match the candidate count");
    const std::vector<char>* mask = config.candidate_mask;
    auto masked_out = [mask](std::size_t i) {
        return mask != nullptr && (*mask)[i] == 0;
    };

    // Relevance scan. The budget is polled after every scored candidate, so a
    // deadline or cancel interrupts it between candidates.
    DeadlineTimer timer(config.budget.time_budget_ms);
    {
        BudgetGuard scan_guard(config.budget,
                               std::numeric_limits<std::size_t>::max(),
                               /*clock_stride=*/1);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (masked_out(i)) continue;  // stays at 0
            assert(candidates[i].cover.size() == n && "metadata not attached");
            result.relevance[i] =
                PatternRelevance(config.relevance, db, candidates[i]);
            if (scan_guard.Check(0) != BudgetBreach::kNone) {
                // Deadline/cancel during scoring: nothing selected yet, bail.
                result.breach = scan_guard.breach();
                RecordBreach("core.mmrfs", result.breach, 0.0);
                return result;
            }
        }
    }

    // The effective feature cap folds budget.max_patterns into max_features;
    // selections emitted so far play the "pattern count" role for the guard.
    BudgetGuard guard(TaskBudget(config.budget, timer), config.max_features,
                      /*clock_stride=*/1);

    // An instance is "correctly covered" by α when α is present in it and α's
    // majority class matches its label. needy[c] holds the class-c instances
    // still covered fewer than δ times; bits are only ever cleared.
    // Per-candidate constants, computed once: the majority class and |cover|
    // (the cached popcount the one-pass redundancy kernel needs).
    std::vector<ClassLabel> majority(candidates.size());
    std::vector<std::size_t> cover_count(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        majority[i] = candidates[i].MajorityClass();
        cover_count[i] = candidates[i].cover.Count();
    }
    std::vector<BitVector> needy(db.num_classes());
    for (std::size_t c = 0; c < needy.size(); ++c) {
        needy[c] = db.ClassCover(static_cast<ClassLabel>(c));
    }
    std::size_t under_covered = config.coverage_delta > 0 ? n : 0;
    auto correctly_covers_needy = [&](std::size_t i) {
        return majority[i] < needy.size() &&
               !candidates[i].cover.IsDisjointWith(needy[majority[i]]);
    };

    // Lazy greedy (CELF): a queue of cached gains keyed (gain desc, index
    // asc). max_red[i] folds R(i, β) for the first seen[i] entries of Fs, in
    // selection order; gains only fall as Fs grows, so a cached gain is an
    // upper bound and a refreshed top that still leads is the exact argmax.
    // The queue has two tiers under that one order: the candidates never
    // refreshed, sorted once by relevance and taken from the front at
    // `next`, and a max-heap of refreshed gains only. A pop from the sorted
    // tier (about half of them on chess, many of them discards) costs no
    // sift.
    struct Entry {
        double gain;
        std::size_t idx;
    };
    // Heap "less": a sorts after b.
    auto after = [](const Entry& a, const Entry& b) {
        return a.gain < b.gain || (a.gain == b.gain && a.idx > b.idx);
    };
    std::vector<double> max_red(candidates.size(), 0.0);
    std::vector<std::size_t> seen(candidates.size(), 0);
    std::vector<Entry> unrefreshed;
    unrefreshed.reserve(candidates.size());
    constexpr double kNoGain = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double gain = result.relevance[i];
        // A gain that is not > -inf (or NaN) never wins the argmax.
        if (!masked_out(i) && gain > kNoGain) unrefreshed.push_back({gain, i});
    }
    std::sort(unrefreshed.begin(), unrefreshed.end(),
              [&after](const Entry& a, const Entry& b) { return after(b, a); });
    std::size_t next = 0;
    std::vector<Entry> heap;
    heap.reserve(candidates.size());
    // The queue's front is whichever tier's head leads; an entry sorts after
    // the front exactly when it sorts after either head.
    auto sorted_leads = [&] {
        return next < unrefreshed.size() &&
               (heap.empty() || after(heap.front(), unrefreshed[next]));
    };
    auto sorts_after_front = [&](const Entry& e) {
        return (next < unrefreshed.size() && after(e, unrefreshed[next])) ||
               (!heap.empty() && after(e, heap.front()));
    };

    // Coverage planes, one run-long scratch block of δ planes of `words`
    // words: plane j holds the rows correctly covered at least j + 1 times,
    // so the planes nest and a row's coverage is the number of planes that
    // hold it. Plane δ − 1 is exactly the rows no longer needy.
    const std::size_t delta = config.coverage_delta;
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> reached(delta * words, 0);
    std::size_t iterations = 0;  // accept + discard decisions
    std::size_t redundancy_evals = 0;
    while (under_covered > 0 && result.selected.size() < config.max_features) {
        if (guard.Check(result.selected.size()) != BudgetBreach::kNone) {
            result.breach = guard.breach();
            break;
        }
        if (next == unrefreshed.size() && heap.empty()) break;  // exhausted
        std::size_t best;
        if (sorted_leads()) {
            best = unrefreshed[next++].idx;
        } else {
            std::pop_heap(heap.begin(), heap.end(), after);
            best = heap.back().idx;
            heap.pop_back();
        }
        if (!correctly_covers_needy(best)) {
            // Needy sets only shrink, so `best` can never be accepted; the
            // eager loop would discard it whenever it became the argmax.
            ++iterations;
            continue;
        }
        for (; seen[best] < result.selected.size(); ++seen[best]) {
            const std::size_t s = result.selected[seen[best]];
            // Eq. 9: R = Jaccard(covers) · min(S).
            max_red[best] = std::max(
                max_red[best],
                CoverJaccard(candidates[best].cover, cover_count[best],
                             candidates[s].cover, cover_count[s]) *
                    std::min(result.relevance[best], result.relevance[s]));
            ++redundancy_evals;
        }
        const Entry fresh{result.relevance[best] - max_red[best], best};
        if (!(fresh.gain > kNoGain)) continue;
        if (sorts_after_front(fresh)) {
            heap.push_back(fresh);
            std::push_heap(heap.begin(), heap.end(), after);
            continue;
        }

        ++iterations;
        result.selected.push_back(best);
        result.gains.push_back(fresh.gain);
        // One word at a time: `hit` is the needy rows the cover reaches, and
        // each of them moves up one plane. Planes are raised top down, so
        // plane j takes the hit rows plane j − 1 held before this accept;
        // the hit rows that land on plane δ − 1 reach δ and stop being needy.
        const std::span<const std::uint64_t> cover = candidates[best].cover.words();
        const std::span<std::uint64_t> best_needy =
            needy[majority[best]].mutable_words();
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t hit = cover[w] & best_needy[w];
            if (hit == 0) continue;
            for (std::size_t j = delta - 1; j > 0; --j) {
                reached[j * words + w] |= reached[(j - 1) * words + w] & hit;
            }
            reached[w] |= hit;
            const std::uint64_t full = reached[(delta - 1) * words + w] & hit;
            best_needy[w] &= ~full;
            under_covered -= static_cast<std::size_t>(__builtin_popcountll(full));
        }
    }
    for (std::size_t j = 0; j < delta; ++j) {
        for (std::size_t w = 0; w < words; ++w) {
            for (std::uint64_t bits = reached[j * words + w]; bits != 0;
                 bits &= bits - 1) {
                ++result.coverage[w * 64 + static_cast<std::size_t>(
                                               __builtin_ctzll(bits))];
            }
        }
    }
    if (result.breach != BudgetBreach::kNone) {
        RecordBreach("core.mmrfs", result.breach,
                     static_cast<double>(result.selected.size()));
    }
    FlushMmrfsMetrics(iterations, result.selected.size(),
                      iterations - result.selected.size(), result.gains,
                      under_covered, candidates.size(), redundancy_evals);
    return result;
}

std::vector<Pattern> SelectPatterns(const TransactionDatabase& db,
                                    const std::vector<Pattern>& candidates,
                                    const MmrfsConfig& config) {
    const MmrfsResult result = RunMmrfs(db, candidates, config);
    std::vector<Pattern> out;
    out.reserve(result.selected.size());
    for (std::size_t i : result.selected) out.push_back(candidates[i]);
    return out;
}

std::vector<std::size_t> TopKByRelevance(const TransactionDatabase& db,
                                         const std::vector<Pattern>& candidates,
                                         RelevanceMeasure measure, std::size_t k) {
    std::vector<std::pair<double, std::size_t>> scored;
    scored.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        scored.emplace_back(PatternRelevance(measure, db, candidates[i]), i);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < std::min(k, scored.size()); ++i) {
        out.push_back(scored[i].second);
    }
    return out;
}

}  // namespace dfp
