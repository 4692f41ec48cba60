// Feature engineering of Sections IV and V-A.
//
// One FeatureExtractor is built per world: it fits the tf-idf vectorizers
// (user-history, news, root-tweet), trains the shared Doc2Vec embedding on
// tweets+headlines, and keeps only that fitted state. Per-user features are
// computed where they are read, from the fitted state and the user id. The
// extractor then serves:
//   - hate-generation feature vectors f_1(S_en, S_ex, H_it, T)  (Eq. 1)
//   - retweet-prediction user vectors including peer signals     (Eq. 2),
//     assembled by one path for the task builder and the scoring engine
//   - attention inputs: tweet Doc2Vec query + news Doc2Vec windows.
//
// History labels seen by the features are the *machine-annotated* view
// (gold labels with a configurable flip noise), matching the paper's use of
// the fine-tuned detector to label activity histories.

#ifndef RETINA_CORE_FEATURE_EXTRACTOR_H_
#define RETINA_CORE_FEATURE_EXTRACTOR_H_

#include <string>
#include <vector>

#include "common/sparse_vec.h"
#include "common/status.h"
#include "common/vec.h"
#include "datagen/world.h"
#include "io/checkpoint.h"
#include "text/doc2vec.h"
#include "text/tfidf.h"

namespace retina::core {

using datagen::NodeId;

/// BFS depth cutoff used for the peer shortest-path feature; distances
/// beyond it are encoded as kPeerPathCutoff + 1.
inline constexpr int kPeerPathCutoff = 4;

/// Feature-group mask for the Table V ablations.
struct FeatureMask {
  bool history = true;   ///< H_{i,t}: tf-idf, hate ratio, lexicon, RT ratios…
  bool topic = true;     ///< T: Doc2Vec hashtag relatedness
  bool endogenous = true;  ///< S_en: trending-hashtag indicator
  bool exogenous = true;   ///< S_ex: recent-news tf-idf average

  static FeatureMask All() { return {}; }
  static FeatureMask Without(const char* group);
};

struct FeatureConfig {
  /// Most recent history tweets considered (paper: 30; Figure 7 ablates).
  size_t history_size = 30;
  size_t history_tfidf_dim = 300;
  size_t news_tfidf_dim = 300;
  size_t tweet_tfidf_dim = 300;
  /// News headlines in the exogenous window (paper tunes to 60).
  size_t news_window = 60;
  size_t trending_dim = 50;
  size_t doc2vec_dim = 50;
  int doc2vec_epochs = 8;
  /// Machine-annotation flip noise applied to history labels.
  double history_label_noise = 0.12;
  uint64_t seed = 21;
};

/// \brief Fitted feature pipeline over one SyntheticWorld.
class FeatureExtractor {
 public:
  /// Fits vectorizers and Doc2Vec and draws the machine-label noise; does
  /// no per-user feature work.
  static Result<FeatureExtractor> Build(const datagen::SyntheticWorld& world,
                                        const FeatureConfig& config);

  /// Writes the fitted state under `prefix`: config, the three tf-idf
  /// vectorizers, the Doc2Vec model, and the machine-annotated history
  /// labels. News embeddings are NOT written — they are rows of the
  /// Doc2Vec table, and Restore re-derives them bit-identically.
  void SaveTo(io::Checkpoint* ckpt, const std::string& prefix) const;

  /// Rebuilds an extractor over `world` from the state saved under
  /// `prefix`. Returns InvalidArgument when the checkpoint does not match
  /// the world (label table sizes, Doc2Vec corpus size) or itself (config
  /// doc2vec_dim vs the saved model's dim).
  static Result<FeatureExtractor> Restore(const datagen::SyntheticWorld& world,
                                          const io::Checkpoint& ckpt,
                                          const std::string& prefix);

  // ---- Section IV: hate generation ------------------------------------

  /// Full feature vector for (user, hashtag, prediction time) with groups
  /// selected by `mask`. Layout: [history | topic | endogenous | exogenous]
  /// with masked groups omitted (not zeroed) as in the paper's ablation.
  Vec HateGenFeatures(NodeId user, size_t hashtag, double t0,
                      const FeatureMask& mask = {}) const;

  /// Dimensionality of HateGenFeatures under `mask`.
  size_t HateGenDim(const FeatureMask& mask = {}) const;

  // ---- Section V-A: retweet prediction ---------------------------------

  size_t RetweetUserDim() const;

  /// Assembles the user-side feature vector X^{u_j} for candidate `user`
  /// on root tweet `tweet` into a caller-owned row of RetweetUserDim()
  /// entries (need not be zeroed): history block + endogenous + peer
  /// signals (shortest path from the root author, past retweets of the
  /// author by this user). `history_block` is
  /// SparseVec::FromDense(ComputeHistoryBlock(user)) or a cached copy of
  /// it; `trending` is TrendingIndicator(tweet.time, config.trending_dim)
  /// and `path_length` the BFS distance author->user
  /// (graph::kUnreachable if none), both shared across the tweet's
  /// candidates. This is the one user-row assembler: BuildRetweetTask
  /// fills training and eval rows with it, and the serving engine
  /// assembles candidate rows into its scratch arena with it.
  void AssembleRetweetUserFeaturesInto(const datagen::Tweet& tweet,
                                       NodeId user,
                                       const SparseVec& history_block,
                                       const Vec& trending, int path_length,
                                       double* out) const;

  /// Computes user's history block from the fitted state. Every reader
  /// computes it here: the task builders per row, and ScoringEngine
  /// behind its per-user LRU and store tiers. When `concat_tokens` is
  /// non-null it receives the concatenated recent-history document
  /// (HateGenFeatures infers the user's Doc2Vec embedding from it).
  Vec ComputeHistoryBlock(NodeId user,
                          std::vector<std::string>* concat_tokens =
                              nullptr) const;

  /// Root-tweet content features: tweet tf-idf + hate-lexicon vector.
  Vec TweetContentFeatures(const datagen::Tweet& tweet) const;

  size_t TweetContentDim() const;

  /// Doc2Vec embedding of the root tweet (attention Query input X^T).
  Vec TweetEmbedding(const datagen::Tweet& tweet) const;

  /// Doc2Vec features of the `news_window` most recent headlines before
  /// t0, one row each, most recent first (attention Key/Value input X^N).
  Matrix NewsEmbeddingWindow(double t0, size_t window = 0) const;

  /// Average news tf-idf over the window (exogenous feature for the
  /// feature-engineered models; Section IV-D). `window`=0 uses config.
  Vec NewsTfIdfAverage(double t0, size_t window = 0) const;

  /// Scalar tweet-news interaction features for the feature-engineered
  /// models: [cosine(tweet tf-idf, news tf-idf average),
  /// cosine(tweet Doc2Vec, mean news Doc2Vec), 24h news volume relative to
  /// the horizon average]. RETINA forms the same interaction inside its
  /// attention block; linear baselines need it spelled out to consume the
  /// exogenous signal at all.
  Vec NewsAlignmentFeatures(const datagen::Tweet& tweet,
                            size_t window = 0) const;
  static constexpr size_t kNewsAlignmentDim = 3;

  size_t HistoryBlockDim() const;

  const FeatureConfig& config() const { return config_; }
  const datagen::SyntheticWorld& world() const { return *world_; }
  const text::Doc2Vec& doc2vec() const { return doc2vec_; }

  /// Sets the number of recent history tweets every later history block
  /// reads (Figure 7's history ablation).
  void SetHistorySize(size_t history_size) {
    config_.history_size = history_size;
  }

 private:
  FeatureExtractor() = default;

  /// Doc2Vec topical relatedness (Section IV-B) of a user, given the
  /// embedding of their recent history, to `hashtag`.
  double TopicRelatedness(const Vec& user_embedding, size_t hashtag) const;

  FeatureConfig config_;
  const datagen::SyntheticWorld* world_ = nullptr;

  text::TfIdfVectorizer history_tfidf_;
  text::TfIdfVectorizer news_tfidf_;
  text::TfIdfVectorizer tweet_tfidf_;
  text::Doc2Vec doc2vec_;

  /// Noisy (machine-annotated) view of history hate labels, per user.
  std::vector<std::vector<bool>> history_machine_labels_;

  std::vector<Vec> news_embeddings_;  // per article
};

}  // namespace retina::core

#endif  // RETINA_CORE_FEATURE_EXTRACTOR_H_
