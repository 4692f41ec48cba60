#include "core/feature_extractor.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "common/obs.h"
#include "common/rng.h"

namespace retina::core {

FeatureMask FeatureMask::Without(const char* group) {
  FeatureMask mask;
  if (std::strcmp(group, "history") == 0) mask.history = false;
  if (std::strcmp(group, "topic") == 0) mask.topic = false;
  if (std::strcmp(group, "endogenous") == 0) mask.endogenous = false;
  if (std::strcmp(group, "exogenous") == 0) mask.exogenous = false;
  return mask;
}

Result<FeatureExtractor> FeatureExtractor::Build(
    const datagen::SyntheticWorld& world, const FeatureConfig& config) {
  FeatureExtractor fx;
  fx.config_ = config;
  fx.world_ = &world;

  // ---- Fit vectorizers ---------------------------------------------------
  {
    std::vector<std::vector<std::string>> history_docs;
    for (NodeId u = 0; u < world.NumUsers(); ++u) {
      for (const auto& ht : world.History(u)) {
        history_docs.push_back(ht.tokens);
      }
    }
    text::TfIdfOptions opts;
    opts.max_features = config.history_tfidf_dim;
    opts.min_df = 3;
    fx.history_tfidf_ = text::TfIdfVectorizer(opts);
    RETINA_RETURN_NOT_OK(fx.history_tfidf_.Fit(history_docs));
  }
  {
    std::vector<std::vector<std::string>> news_docs;
    news_docs.reserve(world.news().articles().size());
    for (const auto& a : world.news().articles()) news_docs.push_back(a.tokens);
    if (news_docs.empty()) {
      return Status::FailedPrecondition("FeatureExtractor: no news articles");
    }
    text::TfIdfOptions opts;
    opts.max_features = config.news_tfidf_dim;
    opts.min_df = 3;
    fx.news_tfidf_ = text::TfIdfVectorizer(opts);
    RETINA_RETURN_NOT_OK(fx.news_tfidf_.Fit(news_docs));
  }
  std::vector<std::vector<std::string>> tweet_docs;
  {
    tweet_docs.reserve(world.tweets().size());
    for (const auto& tw : world.tweets()) tweet_docs.push_back(tw.tokens);
    if (tweet_docs.empty()) {
      return Status::FailedPrecondition("FeatureExtractor: no tweets");
    }
    text::TfIdfOptions opts;
    opts.max_features = config.tweet_tfidf_dim;
    opts.min_df = 2;
    fx.tweet_tfidf_ = text::TfIdfVectorizer(opts);
    RETINA_RETURN_NOT_OK(fx.tweet_tfidf_.Fit(tweet_docs));
  }

  // ---- Doc2Vec over tweets + headlines (shared embedding space) ---------
  {
    std::vector<std::vector<std::string>> corpus = tweet_docs;
    for (const auto& a : world.news().articles()) corpus.push_back(a.tokens);
    text::Doc2VecOptions opts;
    opts.dim = config.doc2vec_dim;
    opts.epochs = config.doc2vec_epochs;
    opts.seed = config.seed;
    fx.doc2vec_ = text::Doc2Vec(opts);
    RETINA_RETURN_NOT_OK(fx.doc2vec_.Train(corpus));
    // Trained doc vectors: tweets occupy [0, n_tweets), news the rest.
    const size_t n_tweets = world.tweets().size();
    fx.news_embeddings_.resize(world.news().articles().size());
    for (size_t j = 0; j < fx.news_embeddings_.size(); ++j) {
      fx.news_embeddings_[j] = fx.doc2vec_.DocVector(n_tweets + j);
    }
  }

  // ---- Noisy machine view of history labels ------------------------------
  Rng rng(config.seed ^ 0xFEEDFACEULL);
  fx.history_machine_labels_.resize(world.NumUsers());
  for (NodeId u = 0; u < world.NumUsers(); ++u) {
    const auto& hist = world.History(u);
    auto& labels = fx.history_machine_labels_[u];
    labels.resize(hist.size());
    for (size_t i = 0; i < hist.size(); ++i) {
      bool label = hist[i].is_hateful;
      if (rng.Bernoulli(config.history_label_noise)) label = !label;
      labels[i] = label;
    }
  }
  return fx;
}

void FeatureExtractor::SaveTo(io::Checkpoint* ckpt,
                              const std::string& prefix) const {
  ckpt->PutI64(prefix + "config/history_size",
               static_cast<int64_t>(config_.history_size));
  ckpt->PutI64(prefix + "config/history_tfidf_dim",
               static_cast<int64_t>(config_.history_tfidf_dim));
  ckpt->PutI64(prefix + "config/news_tfidf_dim",
               static_cast<int64_t>(config_.news_tfidf_dim));
  ckpt->PutI64(prefix + "config/tweet_tfidf_dim",
               static_cast<int64_t>(config_.tweet_tfidf_dim));
  ckpt->PutI64(prefix + "config/news_window",
               static_cast<int64_t>(config_.news_window));
  ckpt->PutI64(prefix + "config/trending_dim",
               static_cast<int64_t>(config_.trending_dim));
  ckpt->PutI64(prefix + "config/doc2vec_dim",
               static_cast<int64_t>(config_.doc2vec_dim));
  ckpt->PutI64(prefix + "config/doc2vec_epochs", config_.doc2vec_epochs);
  ckpt->PutF64(prefix + "config/history_label_noise",
               config_.history_label_noise);
  ckpt->PutI64(prefix + "config/seed", static_cast<int64_t>(config_.seed));
  history_tfidf_.SaveTo(ckpt, prefix + "history_tfidf/");
  news_tfidf_.SaveTo(ckpt, prefix + "news_tfidf/");
  tweet_tfidf_.SaveTo(ckpt, prefix + "tweet_tfidf/");
  doc2vec_.SaveTo(ckpt, prefix + "doc2vec/");
  // Machine labels: per-user lengths + flattened 0/1 bits. These came from
  // a one-shot noise draw at Build time, so they must be persisted — they
  // cannot be re-derived from the seed without replaying Build's RNG.
  std::vector<int64_t> lengths(history_machine_labels_.size());
  std::vector<int64_t> bits;
  for (size_t u = 0; u < history_machine_labels_.size(); ++u) {
    lengths[u] = static_cast<int64_t>(history_machine_labels_[u].size());
    for (bool b : history_machine_labels_[u]) bits.push_back(b ? 1 : 0);
  }
  ckpt->PutI64List(prefix + "machine_labels/lengths", lengths);
  ckpt->PutI64List(prefix + "machine_labels/bits", bits);
}

Result<FeatureExtractor> FeatureExtractor::Restore(
    const datagen::SyntheticWorld& world, const io::Checkpoint& ckpt,
    const std::string& prefix) {
  FeatureExtractor fx;
  fx.world_ = &world;
  int64_t history_size = 0, history_tfidf_dim = 0, news_tfidf_dim = 0;
  int64_t tweet_tfidf_dim = 0, news_window = 0, trending_dim = 0;
  int64_t doc2vec_dim = 0, doc2vec_epochs = 0, seed = 0;
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "config/history_size", &history_size));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "config/history_tfidf_dim", &history_tfidf_dim));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "config/news_tfidf_dim", &news_tfidf_dim));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "config/tweet_tfidf_dim", &tweet_tfidf_dim));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "config/news_window", &news_window));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "config/trending_dim", &trending_dim));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "config/doc2vec_dim", &doc2vec_dim));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "config/doc2vec_epochs", &doc2vec_epochs));
  RETINA_RETURN_NOT_OK(ckpt.GetF64(prefix + "config/history_label_noise",
                                   &fx.config_.history_label_noise));
  RETINA_RETURN_NOT_OK(ckpt.GetI64(prefix + "config/seed", &seed));
  if (history_size < 0 || history_tfidf_dim < 0 || news_tfidf_dim < 0 ||
      tweet_tfidf_dim < 0 || news_window < 0 || trending_dim < 0 ||
      doc2vec_dim <= 0) {
    return Status::InvalidArgument("feature config out of range");
  }
  fx.config_.history_size = static_cast<size_t>(history_size);
  fx.config_.history_tfidf_dim = static_cast<size_t>(history_tfidf_dim);
  fx.config_.news_tfidf_dim = static_cast<size_t>(news_tfidf_dim);
  fx.config_.tweet_tfidf_dim = static_cast<size_t>(tweet_tfidf_dim);
  fx.config_.news_window = static_cast<size_t>(news_window);
  fx.config_.trending_dim = static_cast<size_t>(trending_dim);
  fx.config_.doc2vec_dim = static_cast<size_t>(doc2vec_dim);
  fx.config_.doc2vec_epochs = static_cast<int>(doc2vec_epochs);
  fx.config_.seed = static_cast<uint64_t>(seed);

  RETINA_RETURN_NOT_OK(
      fx.history_tfidf_.LoadFrom(ckpt, prefix + "history_tfidf/"));
  RETINA_RETURN_NOT_OK(fx.news_tfidf_.LoadFrom(ckpt, prefix + "news_tfidf/"));
  RETINA_RETURN_NOT_OK(
      fx.tweet_tfidf_.LoadFrom(ckpt, prefix + "tweet_tfidf/"));
  RETINA_RETURN_NOT_OK(fx.doc2vec_.LoadFrom(ckpt, prefix + "doc2vec/"));
  // News windows and alignment features write model-width rows into
  // config-width buffers; the two widths must agree.
  if (fx.doc2vec_.Dim() != fx.config_.doc2vec_dim) {
    return Status::InvalidArgument(
        "checkpoint doc2vec_dim does not match the saved Doc2Vec model");
  }

  // The Doc2Vec corpus was tweets then headlines; the doc-vector table must
  // cover both or TweetEmbedding/news windows would index out of range.
  const size_t n_tweets = world.tweets().size();
  const size_t n_news = world.news().articles().size();
  if (fx.doc2vec_.NumDocs() != n_tweets + n_news) {
    return Status::InvalidArgument(
        "checkpoint doc2vec corpus does not match the world's "
        "tweets+headlines");
  }
  fx.news_embeddings_.resize(n_news);
  for (size_t j = 0; j < n_news; ++j) {
    fx.news_embeddings_[j] = fx.doc2vec_.DocVector(n_tweets + j);
  }

  std::vector<int64_t> lengths, bits;
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64List(prefix + "machine_labels/lengths", &lengths));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64List(prefix + "machine_labels/bits", &bits));
  if (lengths.size() != world.NumUsers()) {
    return Status::InvalidArgument(
        "checkpoint machine-label table does not match the world's users");
  }
  fx.history_machine_labels_.resize(lengths.size());
  size_t pos = 0;
  for (size_t u = 0; u < lengths.size(); ++u) {
    if (lengths[u] < 0 ||
        static_cast<size_t>(lengths[u]) != world.History(u).size() ||
        pos + static_cast<size_t>(lengths[u]) > bits.size()) {
      return Status::InvalidArgument(
          "checkpoint machine-label rows do not match user histories");
    }
    auto& labels = fx.history_machine_labels_[u];
    labels.resize(static_cast<size_t>(lengths[u]));
    for (size_t i = 0; i < labels.size(); ++i) labels[i] = bits[pos++] != 0;
  }
  if (pos != bits.size()) {
    return Status::InvalidArgument(
        "checkpoint machine-label bits have trailing entries");
  }
  return fx;
}

size_t FeatureExtractor::HistoryBlockDim() const {
  // tf-idf + hate ratio + lexicon + 2 RT ratios + followers + age + #topics.
  // The tf-idf part is the fitted vocabulary, which is smaller than
  // config_.history_tfidf_dim when few tokens reach min_df.
  return history_tfidf_.Dim() + 1 + world_->lexicon().size() + 2 + 1 + 1 + 1;
}

Vec FeatureExtractor::ComputeHistoryBlock(
    NodeId user, std::vector<std::string>* concat_tokens) const {
  // Every history block computed anywhere counts here: one per task row
  // and store entry, and on the serving path one per block the
  // ScoringEngine could not serve from its LRU or store (its cost center).
  static obs::Counter* computed =
      obs::Registry::Global().GetCounter("features.history_blocks_computed");
  computed->Add(1);
  const datagen::SyntheticWorld& world = *world_;
  const auto& hist = world.History(user);
  const auto& labels = history_machine_labels_[user];
  const size_t take = std::min(config_.history_size, hist.size());
  const size_t start = hist.size() - take;

  // Concatenate the most recent `take` tweets into one document.
  std::vector<std::string> concat;
  std::vector<std::vector<std::string>> docs;
  size_t n_hate = 0;
  double rt_hate = 0.0, rt_nonhate = 0.0;
  size_t cnt_rt_hate = 0, cnt_rt_nonhate = 0;
  std::unordered_set<size_t> topics_used;
  for (size_t i = start; i < hist.size(); ++i) {
    concat.insert(concat.end(), hist[i].tokens.begin(),
                  hist[i].tokens.end());
    docs.push_back(hist[i].tokens);
    const bool hateful = labels[i];
    if (hateful) {
      ++n_hate;
      rt_hate += hist[i].retweets_received;
      cnt_rt_hate += hist[i].retweets_received > 0;
    } else {
      rt_nonhate += hist[i].retweets_received;
      cnt_rt_nonhate += hist[i].retweets_received > 0;
    }
    if (hist[i].hashtag != SIZE_MAX) topics_used.insert(hist[i].hashtag);
  }

  Vec block = history_tfidf_.Transform(concat);
  block.reserve(HistoryBlockDim());
  // Hate ratio among recent tweets.
  block.push_back(take > 0 ? static_cast<double>(n_hate) /
                                 static_cast<double>(take)
                           : 0.0);
  // Hate-lexicon frequency vector HL.
  const Vec hl = world.lexicon().FrequencyVector(docs);
  block.insert(block.end(), hl.begin(), hl.end());
  // RT attention ratios (smoothed, log-scaled).
  block.push_back(std::log((rt_hate + 1.0) / (rt_nonhate + 1.0)));
  block.push_back(std::log(
      (static_cast<double>(cnt_rt_hate) + 1.0) /
      (static_cast<double>(cnt_rt_nonhate) + 1.0)));
  // Account-level features.
  block.push_back(std::log(
      1.0 + static_cast<double>(world.network().FollowerCount(user))));
  block.push_back(world.users()[user].account_age_days / 1000.0);
  block.push_back(static_cast<double>(topics_used.size()) / 10.0);

  if (concat_tokens != nullptr) *concat_tokens = std::move(concat);
  return block;
}

double FeatureExtractor::TopicRelatedness(const Vec& user_embedding,
                                          size_t hashtag) const {
  const std::string& tag = world_->hashtags()[hashtag].tag;
  // Hashtags appear lowercased as tokens in tweets.
  std::string token;
  token.reserve(tag.size());
  for (char c : tag) token += static_cast<char>(std::tolower(c));
  return doc2vec_.TokenSimilarity(user_embedding, token);
}

Vec FeatureExtractor::NewsTfIdfAverage(double t0, size_t window) const {
  if (window == 0) window = config_.news_window;
  const auto idx = world_->news().MostRecentBefore(t0, window);
  std::vector<std::vector<std::string>> docs;
  docs.reserve(idx.size());
  for (size_t j : idx) docs.push_back(world_->news().articles()[j].tokens);
  return docs.empty() ? Vec(news_tfidf_.Dim(), 0.0)
                      : news_tfidf_.TransformAverage(docs);
}

Vec FeatureExtractor::NewsAlignmentFeatures(const datagen::Tweet& tweet,
                                            size_t window) const {
  if (window == 0) window = config_.news_window;
  Vec out(kNewsAlignmentDim, 0.0);
  // (1) cosine between the tweet and the averaged news tf-idf; the tweet
  // is transformed through the *news* vectorizer so both vectors live in
  // one basis.
  const Vec news_avg = NewsTfIdfAverage(tweet.time, window);
  const Vec tweet_in_news_space = news_tfidf_.Transform(tweet.tokens);
  out[0] = CosineSimilarity(tweet_in_news_space, news_avg);
  // (2) Doc2Vec alignment with the mean headline embedding.
  const auto idx = world_->news().MostRecentBefore(tweet.time, window);
  if (!idx.empty()) {
    Vec mean_embed(config_.doc2vec_dim, 0.0);
    for (size_t j : idx) Axpy(1.0, news_embeddings_[j], &mean_embed);
    Scale(1.0 / static_cast<double>(idx.size()), &mean_embed);
    out[1] = CosineSimilarity(TweetEmbedding(tweet), mean_embed);
  }
  // (3) 24h news volume relative to the horizon average.
  const auto& articles = world_->news().articles();
  if (!articles.empty() && world_->config().horizon_days > 0.0) {
    const auto recent = world_->news().MostRecentBefore(tweet.time, 100000);
    size_t last24 = 0;
    for (size_t j : recent) {
      if (articles[j].time >= tweet.time - 24.0) {
        ++last24;
      } else {
        break;  // recent is ordered most-recent first
      }
    }
    const double daily_avg = static_cast<double>(articles.size()) /
                             world_->config().horizon_days;
    out[2] = static_cast<double>(last24) / std::max(1.0, daily_avg);
  }
  return out;
}

Matrix FeatureExtractor::NewsEmbeddingWindow(double t0, size_t window) const {
  if (window == 0) window = config_.news_window;
  const auto idx = world_->news().MostRecentBefore(t0, window);
  Matrix out(idx.size(), config_.doc2vec_dim);
  for (size_t r = 0; r < idx.size(); ++r) {
    out.SetRow(r, news_embeddings_[idx[r]]);
  }
  return out;
}

size_t FeatureExtractor::HateGenDim(const FeatureMask& mask) const {
  size_t dim = 0;
  if (mask.history) dim += HistoryBlockDim();
  if (mask.topic) dim += 1;
  if (mask.endogenous) dim += config_.trending_dim;
  if (mask.exogenous) dim += news_tfidf_.Dim();
  return dim;
}

Vec FeatureExtractor::HateGenFeatures(NodeId user, size_t hashtag, double t0,
                                      const FeatureMask& mask) const {
  Vec out;
  out.reserve(HateGenDim(mask));
  if (mask.history || mask.topic) {
    std::vector<std::string> concat;
    const Vec block = ComputeHistoryBlock(user, &concat);
    if (mask.history) out.insert(out.end(), block.begin(), block.end());
    if (mask.topic) {
      // Cap the inference document length: the embedding converges long
      // before 150 tokens and inference cost is linear in length.
      if (concat.size() > 150) {
        concat.erase(concat.begin(), concat.end() - 150);
      }
      out.push_back(TopicRelatedness(
          doc2vec_.InferVector(concat, /*infer_epochs=*/8), hashtag));
    }
  }
  if (mask.endogenous) {
    const Vec trending = world_->TrendingIndicator(t0, config_.trending_dim);
    out.insert(out.end(), trending.begin(), trending.end());
  }
  if (mask.exogenous) {
    const Vec news = NewsTfIdfAverage(t0);
    out.insert(out.end(), news.begin(), news.end());
  }
  return out;
}

size_t FeatureExtractor::RetweetUserDim() const {
  return HistoryBlockDim() + config_.trending_dim + 2;
}

void FeatureExtractor::AssembleRetweetUserFeaturesInto(
    const datagen::Tweet& tweet, NodeId user, const SparseVec& history_block,
    const Vec& trending, int path_length, double* out) const {
  assert(history_block.dim() == HistoryBlockDim());
  assert(trending.size() == config_.trending_dim);
  std::fill(out, out + HistoryBlockDim(), 0.0);
  history_block.ScatterInto(out);
  std::copy(trending.begin(), trending.end(), out + HistoryBlockDim());
  // Peer signals: shortest path root author -> user (kPeerPathCutoff+1 when
  // not organically reachable), and past retweets of this author.
  const size_t tail = HistoryBlockDim() + config_.trending_dim;
  out[tail] = path_length == graph::kUnreachable
                  ? static_cast<double>(kPeerPathCutoff + 1)
                  : static_cast<double>(path_length);
  out[tail + 1] = std::log(1.0 + static_cast<double>(world_->PastRetweetCount(
                               tweet.author, user, tweet.time)));
}

size_t FeatureExtractor::TweetContentDim() const {
  return tweet_tfidf_.Dim() + world_->lexicon().size();
}

Vec FeatureExtractor::TweetContentFeatures(
    const datagen::Tweet& tweet) const {
  Vec out = tweet_tfidf_.Transform(tweet.tokens);
  const Vec hl = world_->lexicon().FrequencyVector({tweet.tokens});
  out.insert(out.end(), hl.begin(), hl.end());
  return out;
}

Vec FeatureExtractor::TweetEmbedding(const datagen::Tweet& tweet) const {
  // Root tweets are Doc2Vec training docs [0, n_tweets).
  if (tweet.id < doc2vec_.NumDocs() && tweet.id < world_->tweets().size()) {
    return doc2vec_.DocVector(tweet.id);
  }
  return doc2vec_.InferVector(tweet.tokens);
}

}  // namespace retina::core
