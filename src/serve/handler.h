// Transport-agnostic request handling for the serving daemon.
//
// The Handler interface is what the server dispatches admitted requests
// to; it knows nothing about sockets, frames, or queues. The production
// implementation, RequestHandler, is the serving half of what used to be
// inline in tools/retina_cli.cc's eval command: import the world, load
// the scoring bundle, and stand up one core::ScoringEngine per worker
// (the engine is single-threaded by contract — "one engine per serving
// thread" — while the model and feature extractor are shared read-only;
// the extractor is designed for concurrent scoring threads).
//
// Determinism: a request's scores are a pure function of the bundle and
// the request, independent of which worker handles it, so responses are
// byte-identical to a direct in-process ScoringEngine call on the same
// request (pinned by serve_test and the serve e2e).

#ifndef RETINA_SERVE_HANDLER_H_
#define RETINA_SERVE_HANDLER_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/scoring_engine.h"
#include "datagen/world.h"
#include "serve/protocol.h"

namespace retina::serve {

/// \brief What the admission queue drains into. Implementations must
/// tolerate concurrent calls with distinct `worker` indices; calls with
/// the same index are serialized by the dispatch layer.
class Handler {
 public:
  virtual ~Handler() = default;

  /// Number of independent worker slots (engines) the handler backs.
  virtual size_t num_workers() const = 0;

  /// Answers `req` into `*resp` using worker slot `worker` (< num_workers).
  /// Invalid requests become ResponseCode::kError responses, never
  /// crashes — the daemon must survive any byte stream.
  virtual void HandleScore(size_t worker, const ScoreRequest& req,
                           ScoreResponse* resp) = 0;

  /// Answers a coalesced batch of requests on one worker slot. The
  /// dispatcher only forms batches whose requests all target the same
  /// tweet id, but the contract is stronger: for ANY batch, entry i of
  /// `*resps` must be byte-identical to what HandleScore(worker, *reqs[i])
  /// would have produced — coalescing is a scheduling decision, never a
  /// semantic one. The base implementation simply loops HandleScore, so
  /// transport-only Handler fakes keep working; RequestHandler overrides
  /// it with a fused single-GEMM path for same-tweet batches.
  virtual void HandleScoreBatch(size_t worker,
                                const std::vector<const ScoreRequest*>& reqs,
                                std::vector<ScoreResponse>* resps) {
    resps->resize(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      HandleScore(worker, *reqs[i], &(*resps)[i]);
    }
  }

  /// Merges handler facts (the dataset shape, so a client can build valid
  /// requests without loading the world) into `*stats`; the server
  /// publishes each entry as a gauge in its kMetrics reply. This is the
  /// handler's only hook into that reply. Called concurrently with
  /// HandleScore; implementations may only expose data that is safe to
  /// read concurrently.
  virtual void AppendStats(std::map<std::string, uint64_t>* stats) const = 0;
};

struct RequestHandlerOptions {
  /// Worker engines to create (also the server's scoring concurrency),
  /// each with default core::ScoringEngineOptions.
  size_t num_workers = 4;
};

/// \brief Production handler: a loaded scoring bundle behind per-worker
/// engines.
class RequestHandler : public Handler {
 public:
  /// Imports the world CSV from `data_dir`, loads the model bundle from
  /// `model_dir` (as written by `retina train-retweet --save-model`), and
  /// builds the per-worker engines.
  static Result<std::unique_ptr<RequestHandler>> Open(
      const std::string& data_dir, const std::string& model_dir,
      RequestHandlerOptions options = {});

  /// In-process variant for tests and embedding: serve a model and
  /// extractor the caller owns (both must outlive the handler).
  static std::unique_ptr<RequestHandler> Borrow(
      const core::Retina* model, const core::FeatureExtractor* extractor,
      RequestHandlerOptions options = {});

  size_t num_workers() const override { return engines_.size(); }
  void HandleScore(size_t worker, const ScoreRequest& req,
                   ScoreResponse* resp) override;
  /// Fused path for a same-tweet batch: validates each request
  /// independently (an invalid request errors alone, exactly as
  /// unbatched), concatenates the surviving candidate lists, scores them
  /// through ONE ScoreTweetInto — tweet-side context built once, one
  /// batched GEMM — and slices the scores back out per request. The
  /// engine's batched-forward contract (batched ≡ serial, entry for
  /// entry, at any batch composition) is what makes the fan-out
  /// byte-identical to per-request handling; serve_test pins it. Batches
  /// that mix tweet ids fall back to the per-request loop.
  void HandleScoreBatch(size_t worker,
                        const std::vector<const ScoreRequest*>& reqs,
                        std::vector<ScoreResponse>* resps) override;
  void AppendStats(std::map<std::string, uint64_t>* stats) const override;

  const datagen::SyntheticWorld& world() const;

 private:
  RequestHandler() = default;
  void BuildEngines(const core::Retina* model,
                    const core::FeatureExtractor* extractor,
                    const RequestHandlerOptions& options);

  /// Set only by Open(); the engines alias these.
  std::unique_ptr<datagen::SyntheticWorld> owned_world_;
  std::unique_ptr<core::Retina> owned_model_;
  std::unique_ptr<core::FeatureExtractor> owned_extractor_;
  const core::FeatureExtractor* extractor_ = nullptr;

  /// One engine per worker slot; workers index their own and never share.
  std::vector<std::unique_ptr<core::ScoringEngine>> engines_;
  /// Per-worker request scratch (user-id narrowing buffer).
  std::vector<std::vector<datagen::NodeId>> user_scratch_;
  /// Per-worker fused-batch score buffer (reused across batches).
  std::vector<Vec> batch_scores_scratch_;
};

}  // namespace retina::serve

#endif  // RETINA_SERVE_HANDLER_H_
