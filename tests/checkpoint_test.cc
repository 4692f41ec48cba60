// Tests for the versioned checkpoint container (io::Checkpoint), the
// named parameter registry, optimizer-state save/resume, and the
// SaveTo/LoadFrom round trips of the text, ml and diffusion models.
//
// The contract under test everywhere: save -> load -> use is bit-exact
// (EXPECT_EQ on doubles, never EXPECT_NEAR), and every corrupt or
// mismatched input comes back as a Status error, never a crash.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/vec.h"
#include "core/feature_extractor.h"
#include "core/retweet_task.h"
#include "diffusion/neural_baselines.h"
#include "io/checkpoint.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "ml/svm.h"
#include "nn/optimizer.h"
#include "nn/param.h"
#include "nn/param_registry.h"
#include "text/doc2vec.h"
#include "text/tfidf.h"

namespace retina {
namespace {

Matrix TestTensor(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Normal();
  return m;
}

// ------------------------------------------------------------ Container --

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("retina_ckpt_test_" + std::to_string(::getpid()) + ".ckpt"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

io::Checkpoint MakeFullCheckpoint() {
  io::Checkpoint ckpt;
  ckpt.PutTensor("model/W", TestTensor(3, 4, 99));
  ckpt.PutVec("model/b", {0.1, -1.0 / 3.0, 2.5e-308, 1.7e308});
  ckpt.PutI64List("meta/shape", {-1, 0, 42, INT64_MAX});
  ckpt.PutString("meta/arch", "retina-static");
  ckpt.PutStringList("vocab/tokens", {"alpha", "", "gamma"});
  ckpt.PutF64("meta/lr", 1.0 / 7.0);
  ckpt.PutI64("meta/step", -17);
  ckpt.PutBool("meta/dynamic", true);
  return ckpt;
}

void ExpectFullCheckpoint(const io::Checkpoint& loaded) {
  const io::Checkpoint original = MakeFullCheckpoint();
  ASSERT_EQ(loaded.NumEntries(), original.NumEntries());

  Matrix w_a, w_b;
  ASSERT_TRUE(original.GetTensor("model/W", &w_a).ok());
  ASSERT_TRUE(loaded.GetTensor("model/W", &w_b).ok());
  ASSERT_EQ(w_b.rows(), w_a.rows());
  ASSERT_EQ(w_b.cols(), w_a.cols());
  for (size_t i = 0; i < w_a.size(); ++i) {
    EXPECT_EQ(w_b.data()[i], w_a.data()[i]);
  }

  Vec b;
  ASSERT_TRUE(loaded.GetVec("model/b", &b).ok());
  const Vec expected_b = {0.1, -1.0 / 3.0, 2.5e-308, 1.7e308};
  ASSERT_EQ(b.size(), expected_b.size());
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], expected_b[i]);

  std::vector<int64_t> shape;
  ASSERT_TRUE(loaded.GetI64List("meta/shape", &shape).ok());
  EXPECT_EQ(shape, (std::vector<int64_t>{-1, 0, 42, INT64_MAX}));

  std::string arch;
  ASSERT_TRUE(loaded.GetString("meta/arch", &arch).ok());
  EXPECT_EQ(arch, "retina-static");

  std::vector<std::string> tokens;
  ASSERT_TRUE(loaded.GetStringList("vocab/tokens", &tokens).ok());
  EXPECT_EQ(tokens, (std::vector<std::string>{"alpha", "", "gamma"}));

  double lr = 0.0;
  ASSERT_TRUE(loaded.GetF64("meta/lr", &lr).ok());
  EXPECT_EQ(lr, 1.0 / 7.0);

  int64_t step = 0;
  ASSERT_TRUE(loaded.GetI64("meta/step", &step).ok());
  EXPECT_EQ(step, -17);

  bool dynamic = false;
  ASSERT_TRUE(loaded.GetBool("meta/dynamic", &dynamic).ok());
  EXPECT_TRUE(dynamic);
}

TEST_F(CheckpointFileTest, AllEntryTypesRoundTripThroughFile) {
  const io::Checkpoint ckpt = MakeFullCheckpoint();
  ASSERT_TRUE(ckpt.WriteFile(path_).ok());
  auto loaded = io::Checkpoint::ReadFile(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectFullCheckpoint(loaded.ValueOrDie());
}

TEST(CheckpointTest, AllEntryTypesRoundTripThroughBytes) {
  const std::string bytes = MakeFullCheckpoint().SerializeToBytes();
  auto loaded = io::Checkpoint::DeserializeFromBytes(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectFullCheckpoint(loaded.ValueOrDie());
}

TEST(CheckpointTest, SerializationIsDeterministicAcrossInsertionOrder) {
  // The entry table is name-ordered, so the file bytes depend only on the
  // content, not on the order Put* calls happened.
  io::Checkpoint a, b;
  a.PutF64("x", 1.5);
  a.PutF64("y", 2.5);
  b.PutF64("y", 2.5);
  b.PutF64("x", 1.5);
  EXPECT_EQ(a.SerializeToBytes(), b.SerializeToBytes());
}

// The RETINAc1 layout, pinned byte for byte: one entry of each EntryType
// serializes to exactly these bytes, and these bytes read back to the same
// table. Every saved bundle and store index depends on them.
constexpr char kGoldenCheckpointHex[] =
    "524554494e416331010000000100000006000000000000000100000066059a99"
    "99999999b93f010000006906fdffffffffffffff010000006c02020000000000"
    "0000ffffffffffffffff02010000000000000100000073030200000000000000"
    "616202000000736c040200000000000000010000000000000078000000000000"
    "000001000000740102000000000000000200000000000000000000000000f03f"
    "000000000000e0bf000000000000d03f0000000000000840822a08db678259f7";

std::string ToHex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xF]);
  }
  return hex;
}

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

io::Checkpoint MakeGoldenCheckpoint() {
  io::Checkpoint ckpt;
  Matrix t(2, 2);
  t.data() = {1.0, -0.5, 0.25, 3.0};
  ckpt.PutTensor("t", t);
  ckpt.PutI64List("l", {-1, 258});
  ckpt.PutString("s", "ab");
  ckpt.PutStringList("sl", {"x", ""});
  ckpt.PutF64("f", 0.1);
  ckpt.PutI64("i", -3);
  return ckpt;
}

TEST(CheckpointTest, GoldenBytesPinEveryEntryType) {
  EXPECT_EQ(ToHex(MakeGoldenCheckpoint().SerializeToBytes()),
            kGoldenCheckpointHex);

  auto loaded =
      io::Checkpoint::DeserializeFromBytes(FromHex(kGoldenCheckpointHex));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const io::Checkpoint& ckpt = loaded.ValueOrDie();
  EXPECT_EQ(ckpt.Names(),
            (std::vector<std::string>{"f", "i", "l", "s", "sl", "t"}));
  Matrix t;
  ASSERT_TRUE(ckpt.GetTensor("t", &t).ok());
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(Vec(t.data().begin(), t.data().end()),
            (Vec{1.0, -0.5, 0.25, 3.0}));
  std::vector<int64_t> l;
  ASSERT_TRUE(ckpt.GetI64List("l", &l).ok());
  EXPECT_EQ(l, (std::vector<int64_t>{-1, 258}));
  std::string s;
  ASSERT_TRUE(ckpt.GetString("s", &s).ok());
  EXPECT_EQ(s, "ab");
  std::vector<std::string> sl;
  ASSERT_TRUE(ckpt.GetStringList("sl", &sl).ok());
  EXPECT_EQ(sl, (std::vector<std::string>{"x", ""}));
  double f = 0.0;
  ASSERT_TRUE(ckpt.GetF64("f", &f).ok());
  EXPECT_EQ(f, 0.1);
  int64_t i = 0;
  ASSERT_TRUE(ckpt.GetI64("i", &i).ok());
  EXPECT_EQ(i, -3);
  EXPECT_EQ(ToHex(ckpt.SerializeToBytes()), kGoldenCheckpointHex);
}

TEST(CheckpointTest, NamesAreLexicographic) {
  io::Checkpoint ckpt;
  ckpt.PutF64("b", 1.0);
  ckpt.PutF64("a/x", 2.0);
  ckpt.PutF64("c", 3.0);
  EXPECT_EQ(ckpt.Names(), (std::vector<std::string>{"a/x", "b", "c"}));
}

TEST(CheckpointTest, BadMagicRejected) {
  std::string bytes = MakeFullCheckpoint().SerializeToBytes();
  bytes[0] ^= 0xFF;
  auto result = io::Checkpoint::DeserializeFromBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, UnsupportedVersionRejected) {
  std::string bytes = MakeFullCheckpoint().SerializeToBytes();
  bytes[8] = static_cast<char>(io::kCheckpointVersion + 1);
  auto result = io::Checkpoint::DeserializeFromBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("version"), std::string::npos);
}

TEST(CheckpointTest, ChecksumMismatchRejected) {
  std::string bytes = MakeFullCheckpoint().SerializeToBytes();
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  auto result = io::Checkpoint::DeserializeFromBytes(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("checksum"), std::string::npos);
}

TEST(CheckpointTest, TruncationRejected) {
  const std::string bytes = MakeFullCheckpoint().SerializeToBytes();
  // Every strict prefix must be rejected cleanly; probe a spread of cuts.
  for (const size_t keep :
       {size_t{0}, size_t{7}, size_t{16}, size_t{24}, bytes.size() / 2,
        bytes.size() - 1}) {
    auto result = io::Checkpoint::DeserializeFromBytes(bytes.substr(0, keep));
    EXPECT_FALSE(result.ok()) << "accepted a " << keep << "-byte prefix";
  }
}

TEST(CheckpointTest, MissingNameAndTypeMismatchAreErrors) {
  io::Checkpoint ckpt;
  ckpt.PutF64("x", 1.0);
  double f = 0.0;
  EXPECT_EQ(ckpt.GetF64("y", &f).code(), StatusCode::kNotFound);
  int64_t i = 0;
  const Status mismatch = ckpt.GetI64("x", &i);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, ReadMissingFileIsError) {
  auto result = io::Checkpoint::ReadFile("/nonexistent/retina/model.ckpt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

// ------------------------------------------------------------- Registry --

TEST(ParamRegistryTest, RegistrationOrderAndFind) {
  nn::Param a(2, 3), b(1, 4);
  nn::ParamRegistry reg;
  reg.Register("scope/a", &a, nn::ParamInit::kGlorot);
  reg.Register("scope/b", &b);
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.params(), (std::vector<nn::Param*>{&a, &b}));
  EXPECT_EQ(reg.Find("scope/a"), &a);
  EXPECT_EQ(reg.Find("scope/b"), &b);
  EXPECT_EQ(reg.Find("scope/c"), nullptr);
}

TEST(ParamRegistryTest, InitGlorotSkipsKeepEntriesAndIsOrderDeterministic) {
  nn::Param w1(3, 3), b1(1, 3), w2(3, 3);
  b1.value.Fill(0.25);  // a layer-set constant that must survive init
  nn::ParamRegistry reg;
  reg.Register("w1", &w1, nn::ParamInit::kGlorot);
  reg.Register("b1", &b1, nn::ParamInit::kKeep);
  reg.Register("w2", &w2, nn::ParamInit::kGlorot);
  Rng rng(7);
  reg.InitGlorot(&rng);
  for (double v : b1.value.data()) EXPECT_EQ(v, 0.25);

  // Same architecture + same seed => identical draws, entry by entry.
  nn::Param w1b(3, 3), b1b(1, 3), w2b(3, 3);
  nn::ParamRegistry reg_b;
  reg_b.Register("w1", &w1b, nn::ParamInit::kGlorot);
  reg_b.Register("b1", &b1b, nn::ParamInit::kKeep);
  reg_b.Register("w2", &w2b, nn::ParamInit::kGlorot);
  Rng rng_b(7);
  reg_b.InitGlorot(&rng_b);
  for (size_t i = 0; i < w1.value.size(); ++i) {
    EXPECT_EQ(w1b.value.data()[i], w1.value.data()[i]);
    EXPECT_EQ(w2b.value.data()[i], w2.value.data()[i]);
  }
}

TEST(ParamRegistryTest, ZeroGradsClearsEveryAccumulator) {
  nn::Param a(2, 2), b(1, 3);
  a.grad.Fill(3.0);
  b.grad.Fill(-1.0);
  nn::ParamRegistry reg;
  reg.Register("a", &a);
  reg.Register("b", &b);
  reg.ZeroGrads();
  for (double g : a.grad.data()) EXPECT_EQ(g, 0.0);
  for (double g : b.grad.data()) EXPECT_EQ(g, 0.0);
}

TEST(ParamRegistryTest, SaveLoadParamsRoundTripsByName) {
  nn::Param w(4, 2), b(1, 2);
  w.value = TestTensor(4, 2, 5);
  b.value = TestTensor(1, 2, 6);
  nn::ParamRegistry reg;
  reg.Register("dense/W", &w, nn::ParamInit::kGlorot);
  reg.Register("dense/b", &b);

  io::Checkpoint ckpt;
  nn::SaveParams(reg, &ckpt, "model/");
  EXPECT_TRUE(ckpt.Contains("model/dense/W"));
  EXPECT_TRUE(ckpt.Contains("model/dense/b"));

  nn::Param w2(4, 2), b2(1, 2);
  w2.grad.Fill(9.0);  // stale gradients must be zeroed by LoadParams
  nn::ParamRegistry reg2;
  reg2.Register("dense/W", &w2);
  reg2.Register("dense/b", &b2);
  ASSERT_TRUE(nn::LoadParams(ckpt, "model/", reg2).ok());
  for (size_t i = 0; i < w.value.size(); ++i) {
    EXPECT_EQ(w2.value.data()[i], w.value.data()[i]);
  }
  for (size_t i = 0; i < b.value.size(); ++i) {
    EXPECT_EQ(b2.value.data()[i], b.value.data()[i]);
  }
  for (double g : w2.grad.data()) EXPECT_EQ(g, 0.0);
}

TEST(ParamRegistryTest, LoadParamsRejectsShapeMismatchAndMissingEntry) {
  nn::Param w(4, 2);
  w.value = TestTensor(4, 2, 5);
  nn::ParamRegistry reg;
  reg.Register("W", &w);
  io::Checkpoint ckpt;
  nn::SaveParams(reg, &ckpt, "model/");

  nn::Param wrong(2, 4);
  nn::ParamRegistry reg_wrong;
  reg_wrong.Register("W", &wrong);
  EXPECT_EQ(nn::LoadParams(ckpt, "model/", reg_wrong).code(),
            StatusCode::kInvalidArgument);

  nn::Param extra(4, 2), extra2(1, 1);
  nn::ParamRegistry reg_extra;
  reg_extra.Register("W", &extra);
  reg_extra.Register("missing", &extra2);
  EXPECT_FALSE(nn::LoadParams(ckpt, "model/", reg_extra).ok());
}

// ------------------------------------------------------ Optimizer resume --

// Deterministic synthetic gradient that depends on the current parameter
// values: any drift between the resumed and uninterrupted runs compounds,
// so bit-equality after resuming is a real statement about the optimizer
// state (moments, step counter), not just the weights.
void FillGrads(const std::vector<nn::Param*>& params, int step) {
  for (size_t p = 0; p < params.size(); ++p) {
    auto& g = params[p]->grad.data();
    const auto& v = params[p]->value.data();
    for (size_t j = 0; j < g.size(); ++j) {
      g[j] = 0.05 * v[j] +
             0.01 * static_cast<double>((step + 1) * (p + 1)) /
                 static_cast<double>(j + 1);
    }
  }
}

struct ToyModel {
  nn::Param w{3, 4};
  nn::Param b{1, 4};
  nn::ParamRegistry reg;

  ToyModel() {
    reg.Register("dense/W", &w, nn::ParamInit::kGlorot);
    reg.Register("dense/b", &b);
    Rng rng(11);
    reg.InitGlorot(&rng);
  }
};

template <typename OptT>
void CheckResumeBitIdentical(OptT make_optimizer) {
  constexpr int kTotalSteps = 10;
  constexpr int kCheckpointAt = 5;

  // Uninterrupted reference run.
  ToyModel ref;
  auto ref_opt = make_optimizer();
  ref_opt->Register(ref.reg);
  for (int s = 0; s < kTotalSteps; ++s) {
    FillGrads(ref.reg.params(), s);
    ref_opt->Step();
  }

  // Run to the checkpoint, save params + optimizer state, serialize
  // through bytes so the container is on the path under test.
  ToyModel half;
  auto half_opt = make_optimizer();
  half_opt->Register(half.reg);
  for (int s = 0; s < kCheckpointAt; ++s) {
    FillGrads(half.reg.params(), s);
    half_opt->Step();
  }
  io::Checkpoint ckpt;
  nn::SaveParams(half.reg, &ckpt, "model/");
  ASSERT_TRUE(half_opt->SaveState(&ckpt, "opt/").ok());
  auto restored = io::Checkpoint::DeserializeFromBytes(ckpt.SerializeToBytes());
  ASSERT_TRUE(restored.ok());

  // Fresh process: rebuild, restore, finish the run.
  ToyModel resumed;
  auto resumed_opt = make_optimizer();
  resumed_opt->Register(resumed.reg);
  ASSERT_TRUE(
      nn::LoadParams(restored.ValueOrDie(), "model/", resumed.reg).ok());
  ASSERT_TRUE(resumed_opt->LoadState(restored.ValueOrDie(), "opt/").ok());
  for (int s = kCheckpointAt; s < kTotalSteps; ++s) {
    FillGrads(resumed.reg.params(), s);
    resumed_opt->Step();
  }

  for (size_t i = 0; i < ref.w.value.size(); ++i) {
    EXPECT_EQ(resumed.w.value.data()[i], ref.w.value.data()[i]) << "W " << i;
  }
  for (size_t i = 0; i < ref.b.value.size(); ++i) {
    EXPECT_EQ(resumed.b.value.data()[i], ref.b.value.data()[i]) << "b " << i;
  }
}

TEST(OptimizerResumeTest, AdamResumesBitIdentically) {
  // Without the saved m/v moments and step counter the bias correction
  // restarts and the trajectories diverge immediately.
  CheckResumeBitIdentical(
      [] { return std::make_unique<nn::Adam>(1e-2); });
}

TEST(OptimizerResumeTest, SgdWithMomentumResumesBitIdentically) {
  CheckResumeBitIdentical(
      [] { return std::make_unique<nn::Sgd>(1e-2, 0.9); });
}

TEST(OptimizerResumeTest, KindMismatchRejected) {
  ToyModel model;
  nn::Adam adam(1e-3);
  adam.Register(model.reg);
  io::Checkpoint ckpt;
  ASSERT_TRUE(adam.SaveState(&ckpt, "opt/").ok());
  nn::Sgd sgd(1e-2);
  sgd.Register(model.reg);
  EXPECT_EQ(sgd.LoadState(ckpt, "opt/").code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- Text --

std::vector<std::vector<std::string>> ToyCorpus() {
  return {
      {"hate", "speech", "spreads", "fast"},
      {"news", "about", "hate", "events"},
      {"kittens", "are", "soft", "and", "fluffy"},
      {"breaking", "news", "about", "kittens"},
      {"speech", "about", "events", "spreads"},
      {"fluffy", "kittens", "spreads", "fast"},
  };
}

TEST(TextRoundTripTest, TfIdfTransformsBitIdenticallyAfterReload) {
  text::TfIdfOptions opts;
  opts.max_features = 16;
  opts.min_df = 1;
  text::TfIdfVectorizer fitted(opts);
  ASSERT_TRUE(fitted.Fit(ToyCorpus()).ok());

  io::Checkpoint ckpt;
  fitted.SaveTo(&ckpt, "tfidf/");
  text::TfIdfVectorizer loaded;
  ASSERT_TRUE(loaded.LoadFrom(ckpt, "tfidf/").ok());

  ASSERT_EQ(loaded.Dim(), fitted.Dim());
  EXPECT_EQ(loaded.feature_tokens(), fitted.feature_tokens());
  const std::vector<std::string> unseen = {"hate", "kittens", "unseen",
                                           "news"};
  for (const auto& doc : ToyCorpus()) {
    EXPECT_EQ(loaded.Transform(doc), fitted.Transform(doc));
  }
  EXPECT_EQ(loaded.Transform(unseen), fitted.Transform(unseen));
}

TEST(TextRoundTripTest, Doc2VecInfersBitIdenticallyAfterReload) {
  text::Doc2VecOptions opts;
  opts.dim = 8;
  opts.epochs = 2;
  opts.min_count = 1;
  text::Doc2Vec fitted(opts);
  ASSERT_TRUE(fitted.Train(ToyCorpus()).ok());

  io::Checkpoint ckpt;
  fitted.SaveTo(&ckpt, "d2v/");
  text::Doc2Vec loaded;
  ASSERT_TRUE(loaded.LoadFrom(ckpt, "d2v/").ok());

  ASSERT_EQ(loaded.NumDocs(), fitted.NumDocs());
  ASSERT_EQ(loaded.Dim(), fitted.Dim());
  for (size_t i = 0; i < fitted.NumDocs(); ++i) {
    EXPECT_EQ(loaded.DocVector(i), fitted.DocVector(i)) << "doc " << i;
  }
  // InferVector reseeds a fresh Rng per call from the saved options, so a
  // loaded model must infer exactly the trained model's vectors.
  const std::vector<std::string> unseen = {"hate", "news", "kittens"};
  EXPECT_EQ(loaded.InferVector(unseen), fitted.InferVector(unseen));
  EXPECT_EQ(loaded.TokenSimilarity(loaded.InferVector(unseen), "news"),
            fitted.TokenSimilarity(fitted.InferVector(unseen), "news"));
}

// ------------------------------------------------------------------- ML --

// Noisy linearly-separable binary problem, same flavor as ml_test.
void MakeMlData(Matrix* X, std::vector<int>* y, size_t n, uint64_t seed) {
  Rng rng(seed);
  *X = Matrix(n, 4);
  y->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(0.5) ? 1 : 0;
    (*y)[i] = label;
    const double shift = label ? 1.0 : -1.0;
    for (size_t j = 0; j < 4; ++j) {
      (*X)(i, j) = shift * (j % 2 ? 0.8 : 1.2) + rng.Normal();
    }
  }
}

template <typename ModelT>
void CheckMlRoundTrip(ModelT* fitted, ModelT* fresh) {
  Matrix X;
  std::vector<int> y;
  MakeMlData(&X, &y, 160, 31);
  ASSERT_TRUE(fitted->Fit(X, y).ok());

  io::Checkpoint ckpt;
  fitted->SaveTo(&ckpt, "clf/");
  // Through bytes, so framing is exercised too.
  auto reloaded = io::Checkpoint::DeserializeFromBytes(
      ckpt.SerializeToBytes());
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(fresh->LoadFrom(reloaded.ValueOrDie(), "clf/").ok());

  Matrix Xt;
  std::vector<int> yt;
  MakeMlData(&Xt, &yt, 40, 77);
  for (size_t i = 0; i < Xt.rows(); ++i) {
    EXPECT_EQ(fresh->PredictProba(Xt.RowVec(i)),
              fitted->PredictProba(Xt.RowVec(i)))
        << "row " << i;
  }
}

TEST(MlRoundTripTest, LogisticRegression) {
  ml::LogisticRegression a, b;
  CheckMlRoundTrip(&a, &b);
}

TEST(MlRoundTripTest, DecisionTree) {
  ml::DecisionTree a, b;
  CheckMlRoundTrip(&a, &b);
}

TEST(MlRoundTripTest, RandomForest) {
  ml::RandomForestOptions opts;
  opts.n_estimators = 8;
  ml::RandomForest a(opts), b;
  CheckMlRoundTrip(&a, &b);
}

TEST(MlRoundTripTest, GradientBoosting) {
  ml::GradientBoostingOptions opts;
  opts.n_estimators = 12;
  opts.learning_rate = 0.3;  // non-default: must survive the round trip
  ml::GradientBoosting a(opts), b;
  CheckMlRoundTrip(&a, &b);
}

TEST(MlRoundTripTest, AdaBoost) {
  ml::AdaBoostOptions opts;
  opts.n_estimators = 10;
  ml::AdaBoost a(opts), b;
  CheckMlRoundTrip(&a, &b);
}

TEST(MlRoundTripTest, LinearSvm) {
  ml::LinearSVMOptions opts;
  opts.platt_scale = 3.5;  // non-default: shapes PredictProba
  ml::LinearSVM a(opts), b;
  CheckMlRoundTrip(&a, &b);
}

TEST(MlRoundTripTest, KernelSvm) {
  ml::KernelSVMOptions opts;
  opts.n_components = 32;
  ml::KernelSVM a(opts), b;
  CheckMlRoundTrip(&a, &b);
}

TEST(MlRoundTripTest, CorruptTreeTopologyRejected) {
  Matrix X;
  std::vector<int> y;
  MakeMlData(&X, &y, 80, 13);
  ml::DecisionTree tree;
  ASSERT_TRUE(tree.Fit(X, y).ok());
  io::Checkpoint ckpt;
  tree.SaveTo(&ckpt, "tree/");

  std::vector<int64_t> left;
  ASSERT_TRUE(ckpt.GetI64List("tree/left", &left).ok());
  left[0] = static_cast<int64_t>(left.size()) + 5;  // child out of range
  ckpt.PutI64List("tree/left", left);

  ml::DecisionTree corrupt;
  EXPECT_EQ(corrupt.LoadFrom(ckpt, "tree/").code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------- Diffusion baseline --

struct DiffusionFixture {
  datagen::SyntheticWorld world;
  std::unique_ptr<core::FeatureExtractor> extractor;
  core::RetweetTask task;
};

DiffusionFixture& SharedDiffusionFixture() {
  static DiffusionFixture* fixture = [] {
    datagen::WorldConfig config;
    config.scale = 0.05;
    config.num_users = 900;
    config.history_length = 12;
    config.news_per_day = 50.0;
    auto* f = new DiffusionFixture{
        datagen::SyntheticWorld::Generate(config, 41), nullptr, {}};
    core::FeatureConfig fc;
    fc.history_size = 8;
    fc.history_tfidf_dim = 60;
    fc.news_tfidf_dim = 60;
    fc.tweet_tfidf_dim = 60;
    fc.news_window = 15;
    fc.doc2vec_dim = 12;
    fc.doc2vec_epochs = 2;
    auto fx = core::FeatureExtractor::Build(f->world, fc);
    EXPECT_TRUE(fx.ok());
    f->extractor = std::make_unique<core::FeatureExtractor>(
        std::move(fx).ValueOrDie());
    core::RetweetTaskOptions opts;
    opts.min_news = 15;
    opts.max_candidates = 20;
    auto task = core::BuildRetweetTask(*f->extractor, opts);
    EXPECT_TRUE(task.ok());
    f->task = std::move(task).ValueOrDie();
    return f;
  }();
  return *fixture;
}

TEST(NeuralBaselineRoundTripTest, ScoresBitIdenticallyAfterReload) {
  auto& f = SharedDiffusionFixture();
  diffusion::NeuralBaselineOptions opts;
  opts.epochs = 2;
  diffusion::NeuralDiffusionBaseline fitted(
      &f.world, diffusion::NeuralBaselineKind::kForest, opts);
  ASSERT_TRUE(fitted.Fit(f.task).ok());

  io::Checkpoint ckpt;
  fitted.SaveTo(&ckpt, "baseline/");
  diffusion::NeuralDiffusionBaseline loaded(
      &f.world, diffusion::NeuralBaselineKind::kForest, {});
  ASSERT_TRUE(loaded.LoadFrom(ckpt, "baseline/").ok());

  const Vec a = fitted.ScoreCandidates(f.task, f.task.test);
  const Vec b = loaded.ScoreCandidates(f.task, f.task.test);
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(b[i], a[i]) << i;
}

TEST(NeuralBaselineRoundTripTest, EmbeddingRowMismatchRejected) {
  auto& f = SharedDiffusionFixture();
  io::Checkpoint ckpt;
  ckpt.PutI64("baseline/kind",
              static_cast<int64_t>(diffusion::NeuralBaselineKind::kHidan));
  ckpt.PutI64("baseline/neighbor_samples", 4);
  ckpt.PutTensor("baseline/embeddings",
                 TestTensor(f.world.NumUsers() + 1, 8, 3));
  ckpt.PutF64("baseline/a", 1.0);
  ckpt.PutF64("baseline/b", 0.0);
  ckpt.PutF64("baseline/c", 0.0);
  diffusion::NeuralDiffusionBaseline model(
      &f.world, diffusion::NeuralBaselineKind::kHidan, {});
  EXPECT_FALSE(model.LoadFrom(ckpt, "baseline/").ok());
}

}  // namespace
}  // namespace retina
