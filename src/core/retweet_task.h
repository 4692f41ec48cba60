// Retweeter-prediction task (Section V / VI-D, Table VI).
//
// Each qualifying root tweet (more than one retweet, full news coverage)
// yields a candidate set: its actual retweeters (positives) plus sampled
// inactive followers of the author (negative sampling, Section II). The
// split is by tweet (80:20) so no cascade leaks across train/test.

#ifndef RETINA_CORE_RETWEET_TASK_H_
#define RETINA_CORE_RETWEET_TASK_H_

#include <vector>

#include "common/status.h"
#include "core/feature_extractor.h"
#include "ml/metrics.h"

namespace retina::core {

struct RetweetTaskOptions {
  /// Tweets must have more than this many retweets (paper: > 1).
  size_t min_retweets = 2;
  /// Minimum news headlines before the tweet (paper: 60).
  size_t min_news = 60;
  /// Negative candidates sampled per tweet (inactive followers). A fixed
  /// count — rather than one proportional to the positives — keeps the
  /// per-tweet positive rate tied to the cascade's real size, so features
  /// that predict a tweet's virality (most importantly the exogenous news
  /// signal) carry measurable weight, as in the paper.
  size_t negatives_per_tweet = 16;
  /// Hard cap on candidates per tweet.
  size_t max_candidates = 48;
  /// Fraction of negatives drawn outside the follower set, exercising the
  /// "beyond organic diffusion" setting.
  double non_follower_negatives = 0.1;
  double test_fraction = 0.2;
  /// Interval edges (hours after the root tweet) for the dynamic task.
  std::vector<double> interval_edges = {0.0, 1.0,  3.0,   8.0,
                                        24.0, 72.0, 168.0, 336.0};
  uint64_t seed = 51;
};

/// Per-tweet context shared by all candidates of the tweet.
struct TweetContext {
  size_t tweet_id = 0;  ///< index into world.tweets()
  bool hateful = false;  ///< gold label of the root
  size_t cascade_size = 0;
  Vec content;         ///< tf-idf + lexicon features of the root tweet
  Vec embedding;       ///< Doc2Vec X^T (attention Query input)
  Matrix news_window;  ///< Doc2Vec X^N rows (attention Key/Value input)
};

/// One (tweet, candidate user) sample.
struct RetweetCandidate {
  size_t tweet_pos = 0;  ///< index into RetweetTask::tweets
  NodeId user = 0;
  int label = 0;
  /// Dynamic labels: one per interval (1 = retweeted in that interval).
  std::vector<int> interval_labels;
  Vec user_features;  ///< X^{u_j} (history + endogenous + peer)
};

/// Materialized task.
struct RetweetTask {
  std::vector<TweetContext> tweets;
  std::vector<RetweetCandidate> train;
  std::vector<RetweetCandidate> test;
  std::vector<double> interval_edges;
  size_t user_dim = 0;
  size_t content_dim = 0;
  size_t embed_dim = 0;

  size_t NumIntervals() const { return interval_edges.size() - 1; }
};

Result<RetweetTask> BuildRetweetTask(const FeatureExtractor& extractor,
                                     const RetweetTaskOptions& options);

/// Classification metrics over a candidate set given per-candidate scores.
struct BinaryEval {
  double macro_f1 = 0.0;
  double accuracy = 0.0;
  double auc = 0.0;
};
BinaryEval EvaluateBinary(const std::vector<RetweetCandidate>& candidates,
                          const Vec& scores);

/// Groups candidate scores into per-tweet ranking queries for MAP@k /
/// HITS@k. `hate_filter`: -1 = all tweets, 0 = non-hate roots only,
/// 1 = hateful roots only.
std::vector<ml::RankingQuery> MakeRankingQueries(
    const RetweetTask& task,
    const std::vector<RetweetCandidate>& candidates, const Vec& scores,
    int hate_filter = -1);

}  // namespace retina::core

#endif  // RETINA_CORE_RETWEET_TASK_H_
