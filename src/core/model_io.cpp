#include "core/model_io.hpp"

#include <cstdio>
#include <cstring>
#include <ostream>
#include <set>
#include <sstream>

#include "common/failpoint.hpp"
#include "common/fileio.hpp"
#include "common/serialize.hpp"
#include "ml/dtree/c45.hpp"
#include "ml/nb/naive_bayes.hpp"
#include "ml/svm/svm.hpp"

namespace dfp {

namespace {
constexpr const char* kMagic = "dfp-model";
constexpr const char* kVersion = "v1";
}  // namespace

Status SaveFeatureSpace(const FeatureSpace& space, std::ostream& out) {
    out << "feature-space " << space.num_items() << ' ' << space.num_patterns()
        << '\n';
    for (const Pattern& p : space.patterns()) {
        out << p.items.size();
        for (ItemId i : p.items) out << ' ' << i;
        out << '\n';
    }
    if (!out) return Status::Internal("feature-space write failed");
    return Status::Ok();
}

namespace {

// Body of the feature-space format, after the "feature-space" tag has been
// consumed (LoadPipelineModel peeks one token ahead of the tag to accept the
// optional provenance line).
Result<FeatureSpace> LoadFeatureSpaceAfterTag(std::istream& in) {
    TokenReader reader(in);
    std::size_t num_items = 0;
    std::size_t num_patterns = 0;
    DFP_RETURN_NOT_OK(reader.ReadCount(&num_items));
    DFP_RETURN_NOT_OK(reader.ReadCount(&num_patterns));
    // Untrusted input: patterns are parsed incrementally (a lying header
    // count fails at EOF instead of driving a huge up-front allocation) and
    // each one is validated against the declared item universe. Encoding
    // (FeatureSpace's PatternMatchIndex, Transform's covers) relies on every
    // pattern being a sorted duplicate-free subset of [0, num_items).
    std::vector<Pattern> patterns;
    patterns.reserve(std::min(num_patterns, std::size_t{4096}));
    std::set<Itemset> seen;
    for (std::size_t n = 0; n < num_patterns; ++n) {
        Pattern p;
        std::size_t len = 0;
        DFP_RETURN_NOT_OK(reader.ReadCount(&len));
        if (len < 2) return Status::InvalidArgument("pattern of length < 2 in model");
        if (len > num_items) {
            return Status::InvalidArgument(
                "pattern longer than the item universe");
        }
        p.items.resize(len);
        for (ItemId& item : p.items) {
            DFP_RETURN_NOT_OK(reader.Read(&item));
        }
        for (std::size_t i = 0; i < len; ++i) {
            if (p.items[i] >= num_items) {
                return Status::InvalidArgument(
                    "pattern item id " + std::to_string(p.items[i]) +
                    " outside the item universe of " + std::to_string(num_items));
            }
            if (i > 0 && p.items[i] <= p.items[i - 1]) {
                return Status::InvalidArgument(
                    "pattern items not strictly ascending");
            }
        }
        if (!seen.insert(p.items).second) {
            return Status::InvalidArgument("duplicate pattern in model");
        }
        patterns.push_back(std::move(p));
    }
    return FeatureSpace::Build(num_items, std::move(patterns));
}

}  // namespace

Result<std::unique_ptr<Classifier>> MakeLearnerByTypeId(const std::string& id) {
    if (id == "svm") return std::unique_ptr<Classifier>(new SvmClassifier());
    if (id == "c4.5") return std::unique_ptr<Classifier>(new C45Classifier());
    if (id == "nb") return std::unique_ptr<Classifier>(new NaiveBayesClassifier());
    return Status::NotFound("unknown learner type id '" + id + "'");
}

Status SavePipelineModel(const PatternClassifierPipeline& pipeline,
                         std::ostream& out) {
    const Classifier* learner = pipeline.learner();
    if (learner == nullptr) {
        return Status::FailedPrecondition("pipeline has no trained learner");
    }
    if (learner->TypeId().empty()) {
        return Status::FailedPrecondition("learner '" + learner->Name() +
                                          "' is not serializable");
    }
    out << kMagic << ' ' << kVersion << ' ' << learner->TypeId() << '\n';
    // Provenance is emitted only when present (significance-filtered runs):
    // unfiltered bundles stay byte-identical to the pre-provenance format.
    if (!pipeline.provenance().empty()) {
        out << "provenance " << pipeline.provenance().size();
        for (const auto& [key, value] : pipeline.provenance()) {
            out << ' ' << key << '=' << value;
        }
        out << '\n';
    }
    DFP_RETURN_NOT_OK(SaveFeatureSpace(pipeline.feature_space(), out));
    return learner->SaveModel(out);
}

ClassLabel LoadedModel::Predict(const std::vector<ItemId>& transaction) const {
    // Matcher scratch is reused across calls — Predict is the serving-adjacent
    // hot path and per-call counter/vector allocations are measurable there.
    return learner_->Predict(space_.Encode(transaction, &scratch_));
}

double LoadedModel::Accuracy(const TransactionDatabase& test) const {
    return learner_->Accuracy(space_.Transform(test), test.labels());
}

Result<LoadedModel> LoadPipelineModel(std::istream& in) {
    TokenReader reader(in);
    DFP_RETURN_NOT_OK(reader.Expect(kMagic));
    DFP_RETURN_NOT_OK(reader.Expect(kVersion));
    std::string type_id;
    DFP_RETURN_NOT_OK(reader.Read(&type_id));
    // Optional provenance line between the header and the feature space.
    std::string token;
    DFP_RETURN_NOT_OK(reader.Read(&token));
    std::vector<std::pair<std::string, std::string>> provenance;
    if (token == "provenance") {
        std::size_t count = 0;
        DFP_RETURN_NOT_OK(reader.ReadCount(&count, /*max_value=*/64));
        provenance.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            std::string kv;
            DFP_RETURN_NOT_OK(reader.Read(&kv));
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                return Status::InvalidArgument(
                    "malformed provenance entry '" + kv + "'");
            }
            provenance.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        }
        DFP_RETURN_NOT_OK(reader.Read(&token));
    }
    if (token != "feature-space") {
        return Status::ParseError("expected 'feature-space', got '" + token +
                                  "'");
    }
    auto space = LoadFeatureSpaceAfterTag(in);
    if (!space.ok()) return space.status();
    auto learner = MakeLearnerByTypeId(type_id);
    if (!learner.ok()) return learner.status();
    DFP_RETURN_NOT_OK((*learner)->LoadModel(in, space->dim()));
    LoadedModel model(std::move(*space), std::move(*learner));
    model.set_provenance(std::move(provenance));
    return model;
}

namespace {

constexpr const char* kChecksumTag = "checksum fnv1a64";

std::string ChecksumTrailer(std::string_view payload) {
    char line[64];
    std::snprintf(line, sizeof(line), "checksum fnv1a64 %016llx %zu\n",
                  static_cast<unsigned long long>(Fnv1a64(payload)),
                  payload.size());
    return line;
}

/// Strips and verifies the checksum trailer, leaving `*bundle` = payload.
/// Bundles written before the trailer existed (no "checksum" line) pass
/// through unchanged — the loader stays readable on legacy files.
Status VerifyChecksumTrailer(std::string* bundle, const std::string& path) {
    // The trailer is the final '\n'-terminated line; find the line start.
    if (bundle->empty() || bundle->back() != '\n') return Status::Ok();
    const std::size_t prev_nl = bundle->find_last_of('\n', bundle->size() - 2);
    const std::size_t line_start = prev_nl == std::string::npos ? 0
                                                                : prev_nl + 1;
    if (bundle->compare(line_start, std::strlen(kChecksumTag), kChecksumTag) !=
        0) {
        return Status::Ok();  // legacy bundle, no trailer
    }
    unsigned long long stored_sum = 0;
    std::size_t stored_len = 0;
    if (std::sscanf(bundle->c_str() + line_start, "checksum fnv1a64 %llx %zu",
                    &stored_sum, &stored_len) != 2) {
        return Status::InvalidArgument("malformed checksum trailer in '" +
                                       path + "'");
    }
    bundle->resize(line_start);
    if (stored_len != bundle->size() ||
        stored_sum != static_cast<unsigned long long>(Fnv1a64(*bundle))) {
        return Status::InvalidArgument(
            "checksum mismatch in '" + path +
            "': file is truncated or corrupt (expected " +
            std::to_string(stored_len) + " payload bytes, have " +
            std::to_string(bundle->size()) + ")");
    }
    return Status::Ok();
}

}  // namespace

Status SavePipelineModelToFile(const PatternClassifierPipeline& pipeline,
                               const std::string& path) {
    // Serialize to memory first, then publish with WriteFileAtomic
    // (tmp + fsync + rename): a crash mid-save can never leave a torn or
    // half-written bundle at `path` — either the old file or the complete new
    // one. The FNV-1a trailer lets the loader detect truncation/corruption
    // that happened after the rename (disk errors, manual edits).
    std::ostringstream out;
    DFP_RETURN_NOT_OK(SavePipelineModel(pipeline, out));
    std::string bundle = out.str();
    bundle += ChecksumTrailer(bundle);
    return WriteFileAtomic(path, bundle, /*durable=*/true);
}

Result<LoadedModel> LoadPipelineModelFromFile(const std::string& path) {
    std::string bundle;
    DFP_RETURN_NOT_OK(ReadFileToString(path, &bundle));
    if (const auto fp = DFP_FAILPOINT("core.model_io.load"); fp) {
        fp.Sleep();
        switch (fp.kind) {
            case FailpointKind::kShortWrite:
                // Simulated torn read: drop the back half of the bundle. The
                // checksum (or the incremental parser) must reject it.
                bundle.resize(bundle.size() / 2);
                break;
            case FailpointKind::kDelay:
                break;
            default:
                return Status::Internal("injected load failure for '" + path +
                                        "'");
        }
    }
    DFP_RETURN_NOT_OK(VerifyChecksumTrailer(&bundle, path));
    std::istringstream in(bundle);
    return LoadPipelineModel(in);
}

}  // namespace dfp
