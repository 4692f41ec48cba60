// Unit tests for src/text: tokenizer, vocabulary, tf-idf, hate lexicon and
// Doc2Vec.

#include <gtest/gtest.h>

#include <algorithm>

#include "text/doc2vec.h"
#include "text/hate_lexicon.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace retina::text {
namespace {

// ------------------------------------------------------------- Tokenizer --

TEST(TokenizerTest, LowercasesAndStripsPunctuation) {
  EXPECT_EQ(Tokenize("Hello, WORLD!"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(TokenizerTest, KeepsHashtagsAndMentions) {
  const auto toks = Tokenize("#JamiaViolence protest by @user_1 now");
  EXPECT_EQ(toks[0], "#jamiaviolence");
  EXPECT_EQ(toks[2], "by");
  EXPECT_EQ(toks[3], "@user_1");
}

TEST(TokenizerTest, DropsUrls) {
  const auto toks = Tokenize("read https://x.co/abc and http://y.z now");
  EXPECT_EQ(toks, (std::vector<std::string>{"read", "and", "now"}));
}

TEST(TokenizerTest, EmptyAndSigilOnlyTokensDropped) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("# @ !!").empty());
}

TEST(TokenizerTest, Bigrams) {
  EXPECT_EQ(Bigrams({"a", "b", "c"}),
            (std::vector<std::string>{"a_b", "b_c"}));
  EXPECT_TRUE(Bigrams({"solo"}).empty());
}

// ------------------------------------------------------------ Vocabulary --

TEST(VocabularyTest, AddAndLookup) {
  Vocabulary v;
  EXPECT_EQ(v.AddToken("a"), 0);
  EXPECT_EQ(v.AddToken("b"), 1);
  EXPECT_EQ(v.AddToken("a"), 0);  // idempotent
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.GetId("b"), 1);
  EXPECT_EQ(v.GetId("zz"), Vocabulary::kUnknown);
  EXPECT_TRUE(v.Contains("a"));
  EXPECT_EQ(v.GetToken(1), "b");
  EXPECT_EQ(v.GetToken(99), "");
}

// ----------------------------------------------------------------- TfIdf --

std::vector<std::vector<std::string>> SmallCorpus() {
  return {
      {"apple", "banana", "apple"},
      {"banana", "cherry"},
      {"apple", "cherry", "durian"},
      {"banana", "banana", "cherry"},
  };
}

TEST(TfIdfTest, FitEmptyCorpusFails) {
  TfIdfVectorizer v;
  EXPECT_FALSE(v.Fit({}).ok());
}

TEST(TfIdfTest, MinDfFiltersRareTokens) {
  TfIdfOptions opts;
  opts.min_df = 2;
  opts.max_features = 0;
  TfIdfVectorizer v(opts);
  ASSERT_TRUE(v.Fit(SmallCorpus()).ok());
  // "durian" appears in one document only.
  const auto& toks = v.feature_tokens();
  EXPECT_EQ(std::count(toks.begin(), toks.end(), "durian"), 0);
  EXPECT_EQ(v.Dim(), 3u);  // apple, banana, cherry
}

TEST(TfIdfTest, NoTokenSurvivesMinDfFails) {
  TfIdfOptions opts;
  opts.min_df = 100;
  TfIdfVectorizer v(opts);
  EXPECT_FALSE(v.Fit(SmallCorpus()).ok());
}

TEST(TfIdfTest, TransformIsL2Normalized) {
  TfIdfVectorizer v;
  TfIdfOptions opts;
  opts.min_df = 1;
  v = TfIdfVectorizer(opts);
  ASSERT_TRUE(v.Fit(SmallCorpus()).ok());
  const Vec x = v.Transform({"apple", "banana"});
  EXPECT_NEAR(Norm2(x), 1.0, 1e-9);
}

TEST(TfIdfTest, UnseenTokensYieldZeroVector) {
  TfIdfOptions opts;
  opts.min_df = 1;
  TfIdfVectorizer v(opts);
  ASSERT_TRUE(v.Fit(SmallCorpus()).ok());
  const Vec x = v.Transform({"zzz", "yyy"});
  EXPECT_DOUBLE_EQ(Norm2(x), 0.0);
}

TEST(TfIdfTest, RarerTokenHasHigherIdf) {
  TfIdfOptions opts;
  opts.min_df = 1;
  opts.max_features = 0;
  opts.l2_normalize = false;
  TfIdfVectorizer v(opts);
  ASSERT_TRUE(v.Fit(SmallCorpus()).ok());
  // banana df=3, durian df=1.
  const auto& toks = v.feature_tokens();
  const size_t banana = static_cast<size_t>(
      std::find(toks.begin(), toks.end(), "banana") - toks.begin());
  const size_t durian = static_cast<size_t>(
      std::find(toks.begin(), toks.end(), "durian") - toks.begin());
  EXPECT_GT(v.IdfAt(durian), v.IdfAt(banana));
}

TEST(TfIdfTest, MaxFeaturesByIdfKeepsRarest) {
  TfIdfOptions opts;
  opts.min_df = 1;
  opts.max_features = 1;
  opts.rank_by_idf = true;
  TfIdfVectorizer v(opts);
  ASSERT_TRUE(v.Fit(SmallCorpus()).ok());
  EXPECT_EQ(v.Dim(), 1u);
  EXPECT_EQ(v.feature_tokens()[0], "durian");
}

TEST(TfIdfTest, MaxFeaturesByDfKeepsMostFrequent) {
  TfIdfOptions opts;
  opts.min_df = 1;
  opts.max_features = 1;
  opts.rank_by_idf = false;
  TfIdfVectorizer v(opts);
  ASSERT_TRUE(v.Fit(SmallCorpus()).ok());
  EXPECT_EQ(v.feature_tokens()[0], "banana");
}

TEST(TfIdfTest, TransformAverageEqualsMeanOfTransforms) {
  TfIdfOptions opts;
  opts.min_df = 1;
  TfIdfVectorizer v(opts);
  ASSERT_TRUE(v.Fit(SmallCorpus()).ok());
  const auto docs = SmallCorpus();
  const Vec avg = v.TransformAverage({docs[0], docs[1]});
  const Vec a = v.Transform(docs[0]);
  const Vec b = v.Transform(docs[1]);
  for (size_t i = 0; i < avg.size(); ++i) {
    EXPECT_NEAR(avg[i], 0.5 * (a[i] + b[i]), 1e-12);
  }
}

// ----------------------------------------------------------- HateLexicon --

TEST(HateLexiconTest, SyntheticLexiconHas209Terms) {
  const HateLexicon lex = MakeSyntheticLexicon();
  EXPECT_EQ(lex.size(), 209u);
  EXPECT_EQ(lex.slur_terms().size(), 160u);
  EXPECT_EQ(lex.colloquial_terms().size(), 49u);
}

TEST(HateLexiconTest, ContainsAndIsSlur) {
  const HateLexicon lex = MakeSyntheticLexicon(10, 6);
  EXPECT_TRUE(lex.Contains("slur000"));
  EXPECT_TRUE(lex.IsSlur("slur005"));
  EXPECT_TRUE(lex.Contains("colloq003"));
  EXPECT_FALSE(lex.IsSlur("colloq003"));
  EXPECT_FALSE(lex.Contains("benign"));
}

TEST(HateLexiconTest, FrequencyVectorCounts) {
  const HateLexicon lex = MakeSyntheticLexicon(4, 2);
  const Vec hl = lex.FrequencyVector(
      {{"slur000", "x", "slur000"}, {"colloq001", "slur001"}});
  ASSERT_EQ(hl.size(), 4u);
  EXPECT_DOUBLE_EQ(hl[0], 2.0);  // slur000
  EXPECT_DOUBLE_EQ(hl[1], 1.0);  // slur001
  EXPECT_DOUBLE_EQ(hl[2], 0.0);  // colloq000
  EXPECT_DOUBLE_EQ(hl[3], 1.0);  // colloq001
}

TEST(HateLexiconTest, CountHits) {
  const HateLexicon lex = MakeSyntheticLexicon(4, 2);
  EXPECT_EQ(lex.CountHits({"slur000", "benign", "colloq000"}), 2u);
  EXPECT_EQ(lex.CountHits({}), 0u);
}

// --------------------------------------------------------------- Doc2Vec --

// Two-topic corpus: docs 0..9 use "cat..' words, 10..19 use "dog.." words.
std::vector<std::vector<std::string>> TwoTopicCorpus() {
  std::vector<std::vector<std::string>> docs;
  const std::vector<std::string> cat = {"cat", "meow", "purr", "whisker"};
  const std::vector<std::string> dog = {"dog", "bark", "fetch", "tail"};
  for (int i = 0; i < 10; ++i) {
    std::vector<std::string> d;
    for (int j = 0; j < 8; ++j) d.push_back(cat[(i + j) % cat.size()]);
    docs.push_back(d);
  }
  for (int i = 0; i < 10; ++i) {
    std::vector<std::string> d;
    for (int j = 0; j < 8; ++j) d.push_back(dog[(i + j) % dog.size()]);
    docs.push_back(d);
  }
  return docs;
}

TEST(Doc2VecTest, TrainEmptyFails) {
  Doc2Vec model;
  EXPECT_FALSE(model.Train({}).ok());
}

TEST(Doc2VecTest, MinCountCanEmptyVocabulary) {
  Doc2VecOptions opts;
  opts.min_count = 100;
  Doc2Vec model(opts);
  EXPECT_FALSE(model.Train(TwoTopicCorpus()).ok());
}

TEST(Doc2VecTest, LearnsTopicalSeparation) {
  Doc2VecOptions opts;
  opts.dim = 16;
  opts.epochs = 40;
  opts.min_count = 1;
  opts.seed = 5;
  Doc2Vec model(opts);
  ASSERT_TRUE(model.Train(TwoTopicCorpus()).ok());
  // Same-topic documents should be more similar than cross-topic ones.
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = i + 1; j < 20; ++j) {
      const double sim =
          CosineSimilarity(model.DocVector(i), model.DocVector(j));
      if ((i < 10) == (j < 10)) {
        intra += sim;
        ++n_intra;
      } else {
        inter += sim;
        ++n_inter;
      }
    }
  }
  EXPECT_GT(intra / n_intra, inter / n_inter + 0.1);
}

TEST(Doc2VecTest, InferVectorLandsNearTopic) {
  Doc2VecOptions opts;
  opts.dim = 16;
  opts.epochs = 40;
  opts.min_count = 1;
  opts.seed = 5;
  Doc2Vec model(opts);
  ASSERT_TRUE(model.Train(TwoTopicCorpus()).ok());
  const Vec v = model.InferVector({"cat", "meow", "purr", "cat"});
  double cat_sim = 0.0, dog_sim = 0.0;
  for (size_t i = 0; i < 10; ++i) {
    cat_sim += CosineSimilarity(v, model.DocVector(i));
    dog_sim += CosineSimilarity(v, model.DocVector(10 + i));
  }
  EXPECT_GT(cat_sim, dog_sim);
}

TEST(Doc2VecTest, TokenSimilarityOovIsZero) {
  Doc2VecOptions opts;
  opts.dim = 8;
  opts.epochs = 2;
  opts.min_count = 1;
  Doc2Vec model(opts);
  ASSERT_TRUE(model.Train(TwoTopicCorpus()).ok());
  const Vec v = model.InferVector({"cat"});
  EXPECT_DOUBLE_EQ(model.TokenSimilarity(v, "unseen-token"), 0.0);
  EXPECT_NE(model.TokenSimilarity(v, "cat"), 0.0);
}

TEST(Doc2VecTest, DeterministicAcrossRuns) {
  Doc2VecOptions opts;
  opts.dim = 8;
  opts.epochs = 3;
  opts.min_count = 1;
  opts.seed = 9;
  Doc2Vec m1(opts), m2(opts);
  ASSERT_TRUE(m1.Train(TwoTopicCorpus()).ok());
  ASSERT_TRUE(m2.Train(TwoTopicCorpus()).ok());
  for (size_t i = 0; i < m1.NumDocs(); ++i) {
    EXPECT_EQ(m1.DocVector(i), m2.DocVector(i));
  }
}

}  // namespace
}  // namespace retina::text
