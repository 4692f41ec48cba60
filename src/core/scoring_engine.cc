#include "core/scoring_engine.h"

#include <algorithm>
#include <chrono>

#include "common/arena.h"
#include "common/logging.h"

#include "common/trace.h"

namespace retina::core {

ScoringEngine::ObsHooks ScoringEngine::ObsHooks::Resolve() {
  obs::Registry& reg = obs::Registry::Global();
  return {
      reg.GetCounter("serving.requests"),
      reg.GetCounter("serving.candidates"),
      reg.GetCounter("serving.user_cache.hits"),
      reg.GetCounter("serving.user_cache.misses"),
      reg.GetCounter("serving.tweet_cache.hits"),
      reg.GetCounter("serving.tweet_cache.misses"),
      reg.GetCounter("serving.user_cache.evictions"),
      reg.GetCounter("store.tier.hits"),
      reg.GetCounter("store.tier.misses"),
      reg.GetCounter("store.tier.promotes"),
      reg.GetCounter("store.tier.bloom_skips"),
      reg.GetCounter("store.tier.errors"),
      reg.GetHistogram("serving.request_warm_ns"),
      reg.GetHistogram("serving.request_cold_ns"),
      reg.GetHistogram("store.lookup_warm_ns"),
      reg.GetHistogram("store.lookup_store_ns"),
      reg.GetHistogram("store.lookup_compute_ns"),
      reg.GetGauge("arena.bytes_reserved"),
      reg.GetGauge("arena.high_water_bytes"),
      reg.GetCounter("score.alloc_bytes"),
  };
}

ScoringEngine::ScoringEngine(const Retina* model,
                             const FeatureExtractor* extractor,
                             ScoringEngineOptions options)
    : model_(model),
      extractor_(extractor),
      options_(options),
      user_cache_(std::max<size_t>(1, options.user_cache_capacity)),
      tweet_cache_(std::max<size_t>(1, options.tweet_cache_capacity)),
      hooks_(ObsHooks::Resolve()) {
  RETINA_LOG(Debug) << "scoring engine up: user_cache="
                    << options_.user_cache_capacity
                    << " tweet_cache=" << options_.tweet_cache_capacity
                    << (options_.cache_features ? "" : " (caching off)");
}

Status ScoringEngine::AttachStore(const std::string& dir) {
  auto store_result = store::FeatureStore::Open(dir);
  RETINA_RETURN_NOT_OK(store_result.status());
  std::unique_ptr<store::FeatureStore> opened =
      std::move(store_result).ValueOrDie();
  if (opened->dim() != extractor_->HistoryBlockDim()) {
    return Status::InvalidArgument(
        "user store dim " + std::to_string(opened->dim()) +
        " does not match the extractor history-block dim " +
        std::to_string(extractor_->HistoryBlockDim()));
  }
  store_ = std::move(opened);
  RETINA_LOG(Debug) << "user store attached: " << store_->num_entries()
                    << " users in " << store_->num_blocks() << " blocks";
  return Status::OK();
}

Status ScoringEngine::BuildStore(const FeatureExtractor& extractor,
                                 const std::string& dir) {
  auto builder_result =
      store::FeatureStoreBuilder::Create(dir, extractor.HistoryBlockDim());
  RETINA_RETURN_NOT_OK(builder_result.status());
  std::unique_ptr<store::FeatureStoreBuilder> builder =
      std::move(builder_result).ValueOrDie();
  const size_t num_users = extractor.world().NumUsers();
  for (size_t u = 0; u < num_users; ++u) {
    RETINA_RETURN_NOT_OK(builder->Add(
        u, SparseVec::FromDense(
               extractor.ComputeHistoryBlock(static_cast<NodeId>(u)))));
  }
  return builder->Finish();
}

SparseVec ScoringEngine::FetchHistoryBlock(NodeId u, BlockSource* source) {
  if (store_ != nullptr) {
    SparseVec from_store;
    store::LookupOutcome outcome;
    Status st = store_->Lookup(u, &from_store, &outcome);
    if (!st.ok()) {
      hooks_.store_errors->Add(1);
      RETINA_LOG(Warning) << "user store lookup failed for user " << u
                          << ": " << st.message() << "; recomputing";
    } else if (outcome == store::LookupOutcome::kFound) {
      hooks_.store_hits->Add(1);
      obs::TraceInstant("store.tier.hit");
      *source = BlockSource::kStore;
      return from_store;
    } else {
      hooks_.store_misses->Add(1);
      if (outcome != store::LookupOutcome::kAbsentBlock) {
        // Range or Bloom skip: the store answered without touching a block.
        hooks_.store_bloom_skips->Add(1);
      }
    }
  }
  *source = BlockSource::kCompute;
  return SparseVec::FromDense(extractor_->ComputeHistoryBlock(u));
}

ScoringEngine::TweetEntry ScoringEngine::BuildTweetEntry(
    const datagen::Tweet& tweet) const {
  const datagen::SyntheticWorld& world = extractor_->world();
  TweetEntry entry;
  entry.ctx.tweet_id = tweet.id;
  entry.ctx.hateful = tweet.is_hateful;
  entry.ctx.content = extractor_->TweetContentFeatures(tweet);
  entry.ctx.embedding = extractor_->TweetEmbedding(tweet);
  entry.ctx.news_window = extractor_->NewsEmbeddingWindow(tweet.time);
  entry.dist = world.network().BfsDistances(tweet.author, kPeerPathCutoff);
  entry.trending =
      world.TrendingIndicator(tweet.time, extractor_->config().trending_dim);
  return entry;
}

const ScoringEngine::TweetEntry& ScoringEngine::GetTweetEntry(
    const datagen::Tweet& tweet, bool* hit) {
  *hit = false;
  if (!options_.cache_features) {
    scratch_entry_ = BuildTweetEntry(tweet);
    return scratch_entry_;
  }
  if (TweetEntry* cached = tweet_cache_.Get(tweet.id)) {
    *hit = true;
    hooks_.tweet_hits->Add(1);
    obs::TraceInstant("serving.tweet_cache.hit");
    return *cached;
  }
  hooks_.tweet_misses->Add(1);
  obs::TraceInstant("serving.tweet_cache.miss");
  return *tweet_cache_.Put(tweet.id, BuildTweetEntry(tweet));
}

void ScoringEngine::ScoreTweetInto(const datagen::Tweet& tweet,
                                   const std::vector<NodeId>& users,
                                   Vec* scores) {
  // Mint a per-request trace id (requests replayed inside
  // ScoreCandidatesInto inherit that batch's id instead), then open the
  // request span under it so every event below — cache hits/misses, chunk
  // work on pool threads — carries the request identity in the exported
  // timeline.
  obs::TraceRequestScope trace_request;
  RETINA_OBS_SPAN("serving.score_tweet");
  const bool obs_on = obs::Enabled();
  std::chrono::steady_clock::time_point request_start;
  if (obs_on) request_start = std::chrono::steady_clock::now();

  hooks_.requests->Add(1);
  hooks_.candidates->Add(users.size());
  bool tweet_hit = false;
  const TweetEntry& entry = GetTweetEntry(tweet, &tweet_hit);

  // Request epoch: candidate feature rows are assembled straight into the
  // thread's scratch arena — no per-candidate Vec, no std::vector<Vec>.
  ScratchArena& arena = TlsScratchArena();
  arena.Reset();
  const size_t n = users.size();
  const size_t user_dim = extractor_->RetweetUserDim();
  double* rows = arena.AllocDoubles(n * user_dim);
  auto** row_ptrs = static_cast<const double**>(
      arena.Allocate(n * sizeof(const double*), alignof(const double*)));

  size_t batch_hits = 0, batch_misses = 0;
  const uint64_t evictions_before = user_cache_.evictions();
  for (size_t i = 0; i < n; ++i) {
    const NodeId u = users[i];
    const SparseVec* block = nullptr;
    SparseVec fresh;
    BlockSource source = BlockSource::kWarm;
    std::chrono::steady_clock::time_point lookup_start;
    if (obs_on) lookup_start = std::chrono::steady_clock::now();
    if (options_.cache_features) {
      block = user_cache_.Get(u);
      if (block != nullptr) {
        ++batch_hits;
        obs::TraceInstant("serving.user_cache.hit");
      } else {
        ++batch_misses;
        obs::TraceInstant("serving.user_cache.miss");
        block = user_cache_.Put(u, FetchHistoryBlock(u, &source));
        if (source == BlockSource::kStore) hooks_.store_promotes->Add(1);
      }
    } else {
      fresh = FetchHistoryBlock(u, &source);
      block = &fresh;
    }
    if (obs_on) {
      // Per-tier lookup latency: warm = LRU hit, store = disk tier hit,
      // compute = full recomputation. Timed only with observability on —
      // the clock reads are observational and never feed a score.
      const uint64_t lookup_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - lookup_start)
              .count());
      (source == BlockSource::kWarm     ? hooks_.lookup_warm_ns
       : source == BlockSource::kStore  ? hooks_.lookup_store_ns
                                        : hooks_.lookup_compute_ns)
          ->Record(lookup_ns);
    }
    double* row = rows + i * user_dim;
    extractor_->AssembleRetweetUserFeaturesInto(tweet, u, *block,
                                                entry.trending, entry.dist[u],
                                                row);
    row_ptrs[i] = row;
  }
  hooks_.user_hits->Add(batch_hits);
  hooks_.user_misses->Add(batch_misses);
  hooks_.user_evictions->Add(user_cache_.evictions() - evictions_before);

  scores->resize(n);
  if (options_.batched) {
    model_->ScoreBatchRows(entry.ctx, row_ptrs, n, scores->data(), &arena);
  } else {
    for (size_t i = 0; i < n; ++i) {
      const Vec f(row_ptrs[i], row_ptrs[i] + user_dim);
      (*scores)[i] = model_->PredictScore(entry.ctx, f);
    }
  }

  // Memory telemetry: the most any scoring thread's arena has reserved,
  // its largest footprint, and the cumulative bytes the scoring path has
  // bumped through the arenas. Maxima, so every engine and thread counts.
  hooks_.arena_reserved->UpdateMax(
      static_cast<int64_t>(arena.bytes_reserved()));
  hooks_.arena_high_water->UpdateMax(
      static_cast<int64_t>(arena.high_water_bytes()));
  hooks_.score_alloc_bytes->Add(arena.bytes_used());

  if (obs_on) {
    // A request is "warm" when every per-user and per-tweet invariant came
    // out of a cache; any recomputation makes it "cold". Attribution is
    // purely observational — scores are bit-identical either way.
    const bool warm = tweet_hit && batch_misses == 0;
    const uint64_t elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - request_start)
            .count());
    (warm ? hooks_.request_warm_ns : hooks_.request_cold_ns)
        ->Record(elapsed);
  }
}

void ScoringEngine::ScoreCandidatesInto(
    const RetweetTask& task,
    const std::vector<RetweetCandidate>& candidates, Vec* scores) {
  // One trace id for the whole batch replay; the per-tweet ScoreTweetInto
  // requests below nest under it rather than minting their own.
  obs::TraceRequestScope trace_batch;
  const auto& tweets = extractor_->world().tweets();
  scores->resize(candidates.size());
  // Replay as one request per contiguous tweet run — the serving analogue
  // of the grouping inside Retina::ScoreCandidates. The run-local user
  // list and score buffer are members, so their capacity survives across
  // runs and calls.
  for (size_t i = 0; i < candidates.size();) {
    size_t j = i + 1;
    while (j < candidates.size() &&
           candidates[j].tweet_pos == candidates[i].tweet_pos) {
      ++j;
    }
    users_scratch_.clear();
    users_scratch_.reserve(j - i);
    for (size_t s = i; s < j; ++s) users_scratch_.push_back(candidates[s].user);
    const datagen::Tweet& tweet =
        tweets[task.tweets[candidates[i].tweet_pos].tweet_id];
    ScoreTweetInto(tweet, users_scratch_, &run_scores_);
    std::copy(run_scores_.begin(), run_scores_.end(),
              scores->begin() + static_cast<ptrdiff_t>(i));
    i = j;
  }
}

}  // namespace retina::core
