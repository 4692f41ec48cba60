// Serving-side scoring engine: batched RETINA inference plus per-user
// feature caching.
//
// A serving request is "score this candidate list for this root tweet".
// The request cost splits into
//   (a) tweet-side work shared by every candidate (content tf-idf, Doc2Vec
//       query, news window, one BFS from the author, trending vector),
//   (b) per-user invariants independent of the tweet (the history block:
//       history tf-idf, hate ratio, lexicon counts, RT ratios, account
//       features), and
//   (c) the model forward.
// The engine computes (a) once per request, serves (b) from a bounded LRU
// keyed by user (stored sparse — the block is dominated by a ~300-dim
// tf-idf vector with a few dozen nonzeros), and runs (c) through RETINA's
// raw-row batched pass (Retina::ScoreBatchRows). Every mode produces
// bit-identical scores: caching only skips recomputation of pure
// functions, and the batched pass matches the per-candidate forward
// (Retina::PredictScore) entry for entry (see DESIGN.md "Batched
// serving").
//
// Not thread-safe: one engine per serving thread. Parallelism lives below
// the engine, inside the batched model forward.
//
// Tiered user features: with a store::FeatureStore attached (AttachStore),
// the per-user miss path becomes LRU miss -> store lookup -> compute. The
// store holds exactly the SparseVec the builder was handed (f64 bit
// patterns round-trip), so scores are bit-identical across all three
// tiers; a corrupt store block logs a warning and falls back to
// recomputation instead of failing the request.
//
// Observability: the engine's counts live only in the obs registry
// (serving.*, store.tier.*), which counts in every build; read them as a
// Registry::SnapshotDelta around the calls of interest. Beyond the
// counters and histograms, every ScoreTweetInto call opens a per-request
// timeline trace id (ScoreCandidatesInto opens one per batch that its
// requests inherit), and cache hit/miss instants plus the model-forward
// chunk work carry that id in the exported Chrome trace (see
// common/trace.h and --trace-out).

#ifndef RETINA_CORE_SCORING_ENGINE_H_
#define RETINA_CORE_SCORING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/obs.h"
#include "common/sparse_vec.h"
#include "core/feature_extractor.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "store/feature_store.h"

namespace retina::core {

struct ScoringEngineOptions {
  /// Per-user history-block LRU capacity.
  size_t user_cache_capacity = 4096;
  /// Per-tweet context LRU capacity (content, embedding, news window, BFS).
  size_t tweet_cache_capacity = 256;
  /// Score through Retina::ScoreBatchRows (one GEMM per layer over arena
  /// rows) instead of one per-candidate Retina::PredictScore.
  bool batched = true;
  /// Serve per-user and per-tweet invariants from the LRUs instead of
  /// recomputing them on every request.
  bool cache_features = true;
};

/// \brief Wraps a trained Retina + FeatureExtractor behind a serving API.
class ScoringEngine {
 public:
  /// The model and extractor must outlive the engine.
  ScoringEngine(const Retina* model, const FeatureExtractor* extractor,
                ScoringEngineOptions options = {});

  /// Scores `users` as retweet candidates for `tweet` (one serving
  /// request) into a caller-owned (and ideally reused) vector — `scores`
  /// is resized to users.size(). Entry i equals the per-candidate
  /// Retina::PredictScore(ctx, X^{u_i}) with features built from the raw
  /// world (the extractor holds no per-user arrays), so the uncached
  /// modes reflect a stateless server honestly.
  /// Candidate feature rows live in the thread's scratch arena and the
  /// batched forward runs through Retina::ScoreBatchRows, so once the
  /// arena and caches are warm a batched static-head request performs
  /// zero heap allocations (pinned by the allocation-regression test).
  void ScoreTweetInto(const datagen::Tweet& tweet,
                      const std::vector<NodeId>& users, Vec* scores);

  /// Serving-path equivalent of Retina::ScoreCandidates: replays the
  /// candidate list as one request per tweet group, rebuilding every
  /// feature vector from the raw world, into a caller-owned vector.
  /// Bit-identical to the model's own ScoreCandidates over the task-built
  /// features. The per-run user list and score buffer are engine members
  /// reused across runs, so warm replays allocate nothing beyond what
  /// ScoreTweetInto's contract states.
  void ScoreCandidatesInto(const RetweetTask& task,
                           const std::vector<RetweetCandidate>& candidates,
                           Vec* scores);

  /// Opens a disk-backed user feature store (see store/feature_store.h)
  /// and slots it in as the tier between the LRU and recomputation. The
  /// store's dim must match the extractor's history-block dim. Replaces
  /// any previously attached store.
  Status AttachStore(const std::string& dir);

  /// Builds a store directory (default store options) covering every
  /// user of the extractor's world, in id order, holding exactly the
  /// SparseVec the engine's miss path would compute — the prerequisite
  /// for tier bit-identity.
  static Status BuildStore(const FeatureExtractor& extractor,
                           const std::string& dir);

  /// Attached store, or nullptr.
  const store::FeatureStore* store() const { return store_.get(); }

  const ScoringEngineOptions& options() const { return options_; }

 private:
  /// Tweet-side request state shared by all candidates of one request.
  struct TweetEntry {
    TweetContext ctx;
    std::vector<int> dist;  ///< BFS distances from the root author
    Vec trending;           ///< endogenous indicator at tweet.time
  };

  TweetEntry BuildTweetEntry(const datagen::Tweet& tweet) const;
  /// Cache-or-compute; the reference is valid until the next engine call.
  /// `*hit` reports whether the tweet cache answered.
  const TweetEntry& GetTweetEntry(const datagen::Tweet& tweet, bool* hit);

  /// Which tier resolved a user's history block.
  enum class BlockSource : uint8_t { kWarm, kStore, kCompute };

  /// Store-then-compute fallback for an LRU miss. Never fails: a store
  /// error is counted, logged, and answered by recomputing.
  SparseVec FetchHistoryBlock(NodeId u, BlockSource* source);

  const Retina* model_;
  const FeatureExtractor* extractor_;
  /// Cold tier behind the LRU; nullptr until AttachStore.
  std::unique_ptr<store::FeatureStore> store_;
  ScoringEngineOptions options_;

  LruCache<NodeId, SparseVec> user_cache_;
  LruCache<size_t, TweetEntry> tweet_cache_;  // keyed by tweet id
  TweetEntry scratch_entry_;  // uncached mode
  std::vector<NodeId> users_scratch_;  // per-run user list (replay path)
  Vec run_scores_;                     // per-run output buffer (replay path)

  /// Registry instruments, resolved once at construction: the engine's
  /// counts plus request-latency histograms with warm (every user-block
  /// and the tweet context served from cache) vs cold attribution.
  struct ObsHooks {
    static ObsHooks Resolve();

    obs::Counter* requests;
    obs::Counter* candidates;
    obs::Counter* user_hits;
    obs::Counter* user_misses;
    obs::Counter* tweet_hits;
    obs::Counter* tweet_misses;
    obs::Counter* user_evictions;
    obs::Counter* store_hits;        ///< store.tier.hits
    obs::Counter* store_misses;      ///< store.tier.misses
    obs::Counter* store_promotes;    ///< store.tier.promotes
    obs::Counter* store_bloom_skips;  ///< store.tier.bloom_skips
    obs::Counter* store_errors;      ///< store.tier.errors
    obs::Histogram* request_warm_ns;
    obs::Histogram* request_cold_ns;
    obs::Histogram* lookup_warm_ns;     ///< per-user lookup, LRU hit
    obs::Histogram* lookup_store_ns;    ///< per-user lookup, store tier
    obs::Histogram* lookup_compute_ns;  ///< per-user lookup, recomputed
    obs::Gauge* arena_reserved;    ///< arena.bytes_reserved (max thread)
    obs::Gauge* arena_high_water;  ///< arena.high_water_bytes (max thread)
    obs::Counter* score_alloc_bytes;  ///< cumulative arena bytes per request
  };
  ObsHooks hooks_;
};

}  // namespace retina::core

#endif  // RETINA_CORE_SCORING_ENGINE_H_
