#include "core/retweet_task.h"

#include <algorithm>
#include <unordered_set>

#include "common/parallel.h"

namespace retina::core {

namespace {

// Work recorded by the serial selection pass for the parallel feature
// pass: which tweet, and which contiguous candidate slices of the train /
// test buckets belong to it.
struct TweetWork {
  size_t tweet_index = 0;  // index into world.tweets()
  size_t train_begin = 0, train_end = 0;
  size_t test_begin = 0, test_end = 0;
};

}  // namespace

Result<RetweetTask> BuildRetweetTask(const FeatureExtractor& extractor,
                                     const RetweetTaskOptions& options) {
  const datagen::SyntheticWorld& world = extractor.world();
  const auto& tweets = world.tweets();
  const auto& cascades = world.cascades();
  if (options.interval_edges.size() < 2) {
    return Status::InvalidArgument(
        "BuildRetweetTask: need at least two interval edges");
  }

  std::vector<size_t> eligible;
  for (size_t i = 0; i < tweets.size(); ++i) {
    if (cascades[i].retweets.size() < options.min_retweets) continue;
    if (world.news().MostRecentBefore(tweets[i].time, options.min_news)
            .size() < options.min_news) {
      continue;
    }
    eligible.push_back(i);
  }
  if (eligible.size() < 20) {
    return Status::FailedPrecondition(
        "BuildRetweetTask: too few qualifying cascades");
  }

  Rng rng(options.seed);
  rng.Shuffle(&eligible);
  const size_t n_test = static_cast<size_t>(
      options.test_fraction * static_cast<double>(eligible.size()));

  RetweetTask task;
  task.interval_edges = options.interval_edges;
  task.user_dim = extractor.RetweetUserDim();
  task.content_dim = extractor.TweetContentDim();
  task.embed_dim = extractor.config().doc2vec_dim;
  task.tweets.reserve(eligible.size());

  const size_t n_intervals = task.NumIntervals();
  const size_t n_users = world.NumUsers();

  // Pass 1 (serial): candidate selection. Consumes the task RNG in
  // exactly the order the fully serial builder did, so the emitted task is
  // bit-identical; the expensive deterministic work (content features,
  // BFS, per-candidate user features) is deferred to the parallel pass.
  // Every candidate row is sized here, on the calling thread (DESIGN.md
  // §5); the parallel pass only fills them.
  std::vector<TweetWork> work(eligible.size());
  for (size_t k = 0; k < eligible.size(); ++k) {
    const size_t ti = eligible[k];
    const datagen::Tweet& tw = tweets[ti];
    const datagen::Cascade& cascade = cascades[ti];

    TweetContext ctx;
    ctx.tweet_id = ti;
    ctx.hateful = tw.is_hateful;
    ctx.cascade_size = cascade.retweets.size();
    const size_t tweet_pos = task.tweets.size();
    task.tweets.push_back(std::move(ctx));

    std::unordered_set<NodeId> in_cascade{tw.author};
    for (const auto& rt : cascade.retweets) in_cascade.insert(rt.user);

    const bool is_test = k < n_test;
    auto& bucket = is_test ? task.test : task.train;
    TweetWork& tw_work = work[k];
    tw_work.tweet_index = ti;
    (is_test ? tw_work.test_begin : tw_work.train_begin) = bucket.size();

    // Positives: actual retweeters (capped).
    size_t n_pos = 0;
    for (const auto& rt : cascade.retweets) {
      if (n_pos >= options.max_candidates / 2) break;
      RetweetCandidate cand;
      cand.tweet_pos = tweet_pos;
      cand.user = rt.user;
      cand.label = 1;
      cand.interval_labels.assign(n_intervals, 0);
      cand.user_features.resize(task.user_dim);
      const double dt = rt.time - tw.time;
      size_t interval = n_intervals - 1;
      for (size_t j = 0; j + 1 < task.interval_edges.size(); ++j) {
        if (dt <= task.interval_edges[j + 1]) {
          interval = j;
          break;
        }
      }
      cand.interval_labels[interval] = 1;
      bucket.push_back(std::move(cand));
      ++n_pos;
    }

    // Negatives: inactive followers of the author (plus a slice of random
    // non-followers for the beyond-organic setting).
    const auto followers = world.network().Followers(tw.author);
    const size_t n_neg =
        std::min(options.max_candidates - n_pos, options.negatives_per_tweet);
    std::unordered_set<NodeId> chosen;
    size_t added = 0, attempts = 0;
    while (added < n_neg && attempts < n_neg * 20) {
      ++attempts;
      NodeId v;
      if (!followers.empty() &&
          !rng.Bernoulli(options.non_follower_negatives)) {
        v = followers[rng.UniformInt(followers.size())];
      } else {
        v = static_cast<NodeId>(rng.UniformInt(n_users));
      }
      if (in_cascade.count(v) > 0 || chosen.count(v) > 0) continue;
      chosen.insert(v);
      RetweetCandidate cand;
      cand.tweet_pos = tweet_pos;
      cand.user = v;
      cand.label = 0;
      cand.interval_labels.assign(n_intervals, 0);
      cand.user_features.resize(task.user_dim);
      bucket.push_back(std::move(cand));
      ++added;
    }
    (is_test ? tw_work.test_end : tw_work.train_end) = bucket.size();
  }

  // Pass 2 (parallel): deterministic feature extraction. Each tweet owns
  // its TweetContext and disjoint candidate slices, so no locking and no
  // dependence on the thread count. Candidate rows are built the way the
  // scoring engine's compute tier builds them, through the one assembler.
  par::ParallelFor(work.size(), 1, [&](size_t k) {
    const TweetWork& tw_work = work[k];
    const datagen::Tweet& tw = tweets[tw_work.tweet_index];
    TweetContext& ctx = task.tweets[k];
    ctx.content = extractor.TweetContentFeatures(tw);
    ctx.embedding = extractor.TweetEmbedding(tw);
    ctx.news_window = extractor.NewsEmbeddingWindow(tw.time);

    // One BFS from the author and one trending vector, shared across
    // candidates.
    const std::vector<int> dist =
        world.network().BfsDistances(tw.author, kPeerPathCutoff);
    const Vec trending =
        world.TrendingIndicator(tw.time, extractor.config().trending_dim);
    const auto assemble = [&](RetweetCandidate& cand) {
      extractor.AssembleRetweetUserFeaturesInto(
          tw, cand.user,
          SparseVec::FromDense(extractor.ComputeHistoryBlock(cand.user)),
          trending, dist[cand.user], cand.user_features.data());
    };
    for (size_t i = tw_work.train_begin; i < tw_work.train_end; ++i) {
      assemble(task.train[i]);
    }
    for (size_t i = tw_work.test_begin; i < tw_work.test_end; ++i) {
      assemble(task.test[i]);
    }
  });
  if (task.train.empty() || task.test.empty()) {
    return Status::FailedPrecondition("BuildRetweetTask: empty split");
  }
  return task;
}

BinaryEval EvaluateBinary(const std::vector<RetweetCandidate>& candidates,
                          const Vec& scores) {
  std::vector<int> y(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) y[i] = candidates[i].label;
  BinaryEval eval;
  const std::vector<int> pred = ml::Threshold(scores);
  eval.macro_f1 = ml::MacroF1(y, pred);
  eval.accuracy = ml::Accuracy(y, pred);
  eval.auc = ml::RocAuc(y, scores);
  return eval;
}

std::vector<ml::RankingQuery> MakeRankingQueries(
    const RetweetTask& task,
    const std::vector<RetweetCandidate>& candidates, const Vec& scores,
    int hate_filter) {
  // Group by tweet_pos preserving candidate order.
  std::vector<ml::RankingQuery> queries(task.tweets.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const size_t t = candidates[i].tweet_pos;
    if (hate_filter >= 0 &&
        static_cast<int>(task.tweets[t].hateful) != hate_filter) {
      continue;
    }
    queries[t].scores.push_back(scores[i]);
    queries[t].relevant.push_back(candidates[i].label);
  }
  // Drop empty queries.
  std::vector<ml::RankingQuery> out;
  for (auto& q : queries) {
    if (!q.scores.empty()) out.push_back(std::move(q));
  }
  return out;
}

}  // namespace retina::core
