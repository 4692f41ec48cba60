#include "serve/handler.h"

#include <cassert>
#include <utility>

#include "core/model_store.h"
#include "datagen/serialize.h"

namespace retina::serve {

Result<std::unique_ptr<RequestHandler>> RequestHandler::Open(
    const std::string& data_dir, const std::string& model_dir,
    RequestHandlerOptions options) {
  auto world_result = datagen::ImportWorldCsv(data_dir);
  if (!world_result.ok()) return world_result.status();
  auto world = std::make_unique<datagen::SyntheticWorld>(
      std::move(world_result).ValueOrDie());
  auto bundle_result = core::LoadScoringBundle(model_dir, *world);
  if (!bundle_result.ok()) return bundle_result.status();
  auto bundle = std::move(bundle_result).ValueOrDie();

  std::unique_ptr<RequestHandler> handler(new RequestHandler());
  handler->owned_world_ = std::move(world);
  handler->owned_model_ = std::move(bundle.model);
  handler->owned_extractor_ = std::move(bundle.extractor);
  handler->BuildEngines(handler->owned_model_.get(),
                        handler->owned_extractor_.get(), options);
  return handler;
}

std::unique_ptr<RequestHandler> RequestHandler::Borrow(
    const core::Retina* model, const core::FeatureExtractor* extractor,
    RequestHandlerOptions options) {
  std::unique_ptr<RequestHandler> handler(new RequestHandler());
  handler->BuildEngines(model, extractor, options);
  return handler;
}

void RequestHandler::BuildEngines(const core::Retina* model,
                                  const core::FeatureExtractor* extractor,
                                  const RequestHandlerOptions& options) {
  extractor_ = extractor;
  const size_t n = options.num_workers == 0 ? 1 : options.num_workers;
  engines_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    engines_.push_back(
        std::make_unique<core::ScoringEngine>(model, extractor));
  }
  user_scratch_.resize(n);
  batch_scores_scratch_.resize(n);
}

const datagen::SyntheticWorld& RequestHandler::world() const {
  return extractor_->world();
}

namespace {

/// Shared request validation: resets `*resp` to an empty kOk answer to
/// `req` (the caller's vector may hold an earlier call's response), then
/// either fills it with the error response the unbatched path would
/// produce, or collects the narrowed user ids into `*users` and returns
/// true. Both the single and the fused path answer invalid requests
/// through this one function, so an invalid request in a coalesced batch
/// errors byte-identically to unbatched handling.
bool ValidateRequest(const datagen::SyntheticWorld& w, const ScoreRequest& req,
                     std::vector<datagen::NodeId>* users,
                     ScoreResponse* resp) {
  resp->request_id = req.request_id;
  resp->code = ResponseCode::kOk;
  resp->scores.clear();
  resp->message.clear();
  if (req.tweet_id >= w.tweets().size()) {
    resp->code = ResponseCode::kError;
    resp->message = "tweet id " + std::to_string(req.tweet_id) +
                    " out of range (world has " +
                    std::to_string(w.tweets().size()) + " tweets)";
    return false;
  }
  for (uint32_t u : req.users) {
    if (u >= w.NumUsers()) {
      resp->code = ResponseCode::kError;
      resp->message = "user id " + std::to_string(u) +
                      " out of range (world has " +
                      std::to_string(w.NumUsers()) + " users)";
      return false;
    }
    users->push_back(static_cast<datagen::NodeId>(u));
  }
  return true;
}

}  // namespace

void RequestHandler::HandleScore(size_t worker, const ScoreRequest& req,
                                 ScoreResponse* resp) {
  assert(worker < engines_.size());
  const datagen::SyntheticWorld& w = world();
  std::vector<datagen::NodeId>& users = user_scratch_[worker];
  users.clear();
  users.reserve(req.users.size());
  if (!ValidateRequest(w, req, &users, resp)) return;
  engines_[worker]->ScoreTweetInto(w.tweets()[req.tweet_id], users,
                                   &resp->scores);
}

void RequestHandler::HandleScoreBatch(
    size_t worker, const std::vector<const ScoreRequest*>& reqs,
    std::vector<ScoreResponse>* resps) {
  assert(worker < engines_.size());
  resps->resize(reqs.size());
  if (reqs.empty()) return;
  if (reqs.size() == 1) {
    HandleScore(worker, *reqs[0], &(*resps)[0]);
    return;
  }
  // The dispatcher only batches same-tweet requests; anything else takes
  // the per-request path (a custom caller, not a bug in coalescing).
  for (size_t i = 1; i < reqs.size(); ++i) {
    if (reqs[i]->tweet_id != reqs[0]->tweet_id) {
      for (size_t j = 0; j < reqs.size(); ++j) {
        HandleScore(worker, *reqs[j], &(*resps)[j]);
      }
      return;
    }
  }

  // Validate each request on its own — an out-of-range id errors exactly
  // one request — and concatenate the valid candidate lists.
  const datagen::SyntheticWorld& w = world();
  std::vector<datagen::NodeId>& users = user_scratch_[worker];
  users.clear();
  std::vector<std::pair<size_t, size_t>> slices(reqs.size(), {0, 0});
  bool any_valid = false;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const size_t begin = users.size();
    if (ValidateRequest(w, *reqs[i], &users, &(*resps)[i])) {
      slices[i] = {begin, users.size()};
      any_valid = true;
    } else {
      users.resize(begin);  // discard a partially collected invalid list
    }
  }
  if (!any_valid) return;

  // One tweet-side context build, one batched GEMM over every candidate
  // of every coalesced request; the per-entry scores are bit-identical to
  // per-request calls, so slicing them back out IS the unbatched answer.
  Vec& scores = batch_scores_scratch_[worker];
  engines_[worker]->ScoreTweetInto(w.tweets()[reqs[0]->tweet_id], users,
                                   &scores);
  for (size_t i = 0; i < reqs.size(); ++i) {
    ScoreResponse& resp = (*resps)[i];
    if (resp.code == ResponseCode::kError) continue;
    const auto [begin, end] = slices[i];
    resp.scores.assign(scores.begin() + static_cast<ptrdiff_t>(begin),
                       scores.begin() + static_cast<ptrdiff_t>(end));
  }
}

void RequestHandler::AppendStats(std::map<std::string, uint64_t>* stats) const {
  // Only immutable shape data here; live traffic and cache counts are
  // registry counters, and the worker count is the serve.workers gauge.
  const datagen::SyntheticWorld& w = world();
  (*stats)["handler.num_tweets"] = w.tweets().size();
  (*stats)["handler.num_users"] = w.NumUsers();
}

}  // namespace retina::serve
