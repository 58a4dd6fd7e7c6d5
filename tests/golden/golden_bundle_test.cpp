// Golden-bundle certificate for the learners and the streaming retrainer.
//
// Retrains small seeded pipelines with every serializable learner (naive
// Bayes, linear and RBF one-vs-one SVM, C4.5) and a few
// ContinuousTrainer retrains, then compares each model bundle's bytes and its
// held-out predictions with the goldens committed under tests/golden/bundles/:
//
//   digests.txt   one line per case: name, FNV-1a 64 of the bundle, bundle
//                 size, FNV-1a 64 of the predictions
//   <case>.dfp    the full bundle of one representative case per learner,
//                 so a mismatch there prints the first differing line
//
// The OvO SVM cases are also retrained at 2 and 4 threads against the same
// golden. To regenerate the goldens (only after a deliberate change to model
// output), run the binary with DFP_GOLDEN_WRITE=<dir> and copy <dir> over
// tests/golden/bundles/.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "common/string_util.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/encoder.hpp"
#include "data/synthetic.hpp"
#include "ml/svm/svm.hpp"
#include "serve/registry.hpp"
#include "stream/streaming_db.hpp"
#include "stream/trainer.hpp"
#include "testutil/drift_source.hpp"

#ifndef DFP_GOLDEN_DIR
#error "DFP_GOLDEN_DIR must name the committed golden-bundle directory"
#endif

namespace dfp {
namespace {

struct Golden {
    std::string bundle_hash;
    std::size_t bundle_bytes = 0;
    std::string prediction_hash;
};

std::string Hex(std::uint64_t v) {
    return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Line-by-line comparison message: the first differing line of two bundles.
std::string FirstDifference(const std::string& want, const std::string& got) {
    std::istringstream a(want);
    std::istringstream b(got);
    std::string la;
    std::string lb;
    for (std::size_t line = 1;; ++line) {
        const bool more_a = static_cast<bool>(std::getline(a, la));
        const bool more_b = static_cast<bool>(std::getline(b, lb));
        if (!more_a && !more_b) return "identical";
        if (!more_a || !more_b || la != lb) {
            return StrFormat("line %zu:\n  golden: %.200s\n  got:    %.200s", line,
                             more_a ? la.c_str() : "<eof>",
                             more_b ? lb.c_str() : "<eof>");
        }
    }
}

/// Reads digests.txt once, or (in write mode) collects fresh digests and
/// writes them out at exit.
class GoldenStore {
  public:
    static GoldenStore& Get() {
        static GoldenStore store;
        return store;
    }

    bool writing() const { return !write_dir_.empty(); }

    /// Checks (or records) one case. `keep_bytes` marks the representative
    /// cases whose full bundle is committed.
    void Check(const std::string& name, const std::string& bundle,
               const std::string& predictions, bool keep_bytes) {
        Golden got{Hex(Fnv1a64(bundle)), bundle.size(),
                   Hex(Fnv1a64(predictions))};
        if (writing()) {
            auto [it, inserted] = written_.emplace(name, got);
            if (!inserted) {
                // A thread-count variant: it must equal the first run.
                EXPECT_EQ(it->second.bundle_hash, got.bundle_hash) << name;
            }
            if (keep_bytes) {
                std::ofstream(write_dir_ + "/" + name + ".dfp", std::ios::binary)
                    << bundle;
            }
            return;
        }
        const auto it = golden_.find(name);
        ASSERT_NE(it, golden_.end()) << "no golden for case " << name;
        if (keep_bytes) {
            const std::string want =
                ReadFile(std::string(DFP_GOLDEN_DIR) + "/" + name + ".dfp");
            EXPECT_EQ(want, bundle)
                << name << " bundle differs at " << FirstDifference(want, bundle);
        }
        EXPECT_EQ(it->second.bundle_hash, got.bundle_hash) << name << " bundle";
        EXPECT_EQ(it->second.bundle_bytes, got.bundle_bytes) << name << " size";
        EXPECT_EQ(it->second.prediction_hash, got.prediction_hash)
            << name << " predictions";
    }

    ~GoldenStore() {
        if (!writing()) return;
        std::ofstream out(write_dir_ + "/digests.txt");
        for (const auto& [name, g] : written_) {
            out << name << ' ' << g.bundle_hash << ' ' << g.bundle_bytes << ' '
                << g.prediction_hash << '\n';
        }
    }

  private:
    GoldenStore() {
        if (const char* dir = std::getenv("DFP_GOLDEN_WRITE")) {
            write_dir_ = dir;
            std::filesystem::create_directories(write_dir_);
            return;
        }
        std::ifstream in(std::string(DFP_GOLDEN_DIR) + "/digests.txt");
        std::string name;
        Golden g;
        while (in >> name >> g.bundle_hash >> g.bundle_bytes >> g.prediction_hash) {
            golden_[name] = g;
        }
    }

    std::string write_dir_;
    std::map<std::string, Golden> golden_;
    std::map<std::string, Golden> written_;
};

TransactionDatabase Db(std::uint64_t seed, std::size_t rows,
                       std::size_t classes) {
    SyntheticSpec spec;
    spec.rows = rows;
    spec.classes = classes;
    spec.attributes = 9;
    spec.arity = 3;
    spec.seed = seed;
    const Dataset data = GenerateSynthetic(spec);
    const auto encoder = ItemEncoder::FromSchema(data);
    return TransactionDatabase::FromDataset(data, *encoder);
}

std::unique_ptr<Classifier> MakeLearner(const std::string& kind) {
    if (kind == "svm-linear" || kind == "svm-rbf") {
        SmoConfig config;
        if (kind == "svm-rbf") {
            config.kernel.type = KernelType::kRbf;
            config.kernel.gamma = 0.05;
            config.c = 4.0;
        }
        return std::make_unique<SvmClassifier>(config);
    }
    auto made = MakeLearnerByTypeId(kind);
    return made.ok() ? std::move(made).value() : nullptr;
}

const std::vector<std::string>& LearnerKinds() {
    static const std::vector<std::string> kinds = {"nb", "svm-linear", "svm-rbf",
                                                   "c4.5"};
    return kinds;
}

/// One seeded pipeline case: 2–4 classes, every learner, optional threads.
void CheckPipelineCase(const std::string& kind, std::uint64_t seed,
                       std::size_t threads) {
    const std::size_t classes = 2 + seed % 3;
    const TransactionDatabase all = Db(seed, 360, classes);
    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> test_rows;
    for (std::size_t r = 0; r < all.num_transactions(); ++r) {
        (r % 3 == 2 ? test_rows : train_rows).push_back(r);
    }
    const TransactionDatabase train = all.Subset(train_rows);
    const TransactionDatabase test = all.Subset(test_rows);

    PipelineConfig config;
    config.miner.min_sup_rel = 0.1;
    config.miner.max_pattern_len = 4;
    config.mmrfs.coverage_delta = 2;
    config.num_threads = threads;
    PatternClassifierPipeline pipeline(config);
    auto learner = MakeLearner(kind);
    ASSERT_NE(learner, nullptr) << kind;
    ASSERT_TRUE(pipeline.Train(train, std::move(learner)).ok());

    std::ostringstream bundle;
    ASSERT_TRUE(SavePipelineModel(pipeline, bundle).ok());
    std::string predictions;
    for (std::size_t t = 0; t < test.num_transactions(); ++t) {
        predictions += std::to_string(pipeline.Predict(test.transaction(t)));
        predictions += ' ';
    }
    GoldenStore::Get().Check(StrFormat("pipeline_%s_seed%llu", kind.c_str(),
                                       static_cast<unsigned long long>(seed)),
                             bundle.str(), predictions, seed == 1);
}

TEST(GoldenBundleTest, PipelinesMatchGoldenBundles) {
    for (const std::string& kind : LearnerKinds()) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            SCOPED_TRACE(kind + " seed " + std::to_string(seed));
            CheckPipelineCase(kind, seed, 1);
        }
    }
}

TEST(GoldenBundleTest, OneVsOneSvmMatchesGoldenAtEveryThreadCount) {
    for (const std::string kind : {"svm-linear", "svm-rbf"}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            for (std::size_t threads : {2, 4}) {
                SCOPED_TRACE(kind + " seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads));
                CheckPipelineCase(kind, seed, threads);
            }
        }
    }
}

TEST(GoldenBundleTest, ContinuousTrainerBundlesMatchGoldens) {
    FailpointRegistry::Get().DisableAll();
    for (const std::string learner : {"nb", "svm", "c4.5"}) {
        SCOPED_TRACE(learner);
        testutil::DriftSourceConfig source_config;
        source_config.num_phases = 2;
        source_config.rows_per_phase = 600;
        source_config.eval_rows = 200;
        source_config.seed = 5;
        testutil::DriftSource source(source_config);

        stream::StreamConfig stream_config;
        stream_config.num_items = source.num_items();
        stream_config.num_classes = source.num_classes();
        stream_config.window_capacity = 400;
        auto db = stream::StreamingDatabase::Create(stream_config);
        ASSERT_TRUE(db.ok());

        stream::ContinuousTrainerConfig config;
        config.pipeline.miner.min_sup_rel = 0.12;
        config.pipeline.miner.max_pattern_len = 4;
        config.pipeline.mmrfs.coverage_delta = 2;
        config.learner_type = learner;
        config.min_window = 200;
        config.drift_trigger = false;
        config.model_dir = ::testing::TempDir() + "/dfp_golden_" + learner + "_" +
                           std::to_string(::getpid());
        serve::ModelRegistry registry;
        auto trainer =
            stream::ContinuousTrainer::Create(config, db->get(), &registry);
        ASSERT_TRUE(trainer.ok()) << trainer.status();

        // Two retrains: one per phase, so the second window straddles drift.
        std::string last_path;
        for (std::size_t phase = 0; phase < 2; ++phase) {
            ASSERT_TRUE((*trainer)->Ingest(source.NextBatch(600)).ok());
            ASSERT_TRUE((*trainer)->RetrainNow("golden").ok());
            last_path = StrFormat(
                "%s/stream_model_v%llu.dfp", config.model_dir.c_str(),
                static_cast<unsigned long long>(
                    (*trainer)->stats().last_stream_version));
            const std::string bundle = ReadFile(last_path);
            ASSERT_FALSE(bundle.empty()) << last_path;

            const serve::ServablePtr served = registry.Snapshot();
            ASSERT_NE(served, nullptr);
            std::string predictions;
            const TransactionDatabase& eval = source.EvalSet(phase);
            for (std::size_t t = 0; t < eval.num_transactions(); ++t) {
                predictions += std::to_string(served->model.Predict(eval.transaction(t)));
                predictions += ' ';
            }
            GoldenStore::Get().Check(
                StrFormat("trainer_%s_retrain%zu", learner.c_str(), phase + 1),
                bundle, predictions, learner == "nb" && phase == 1);
        }
        std::error_code ec;
        std::filesystem::remove_all(config.model_dir, ec);
    }
}

}  // namespace
}  // namespace dfp
