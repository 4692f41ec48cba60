#include "core/retina.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace retina::core {

namespace {

// Candidates per work chunk when splitting one tweet group. Groups carry at
// most max_candidates (~48) candidates, so a grain of 8 yields up to six
// chunks — enough slack for the pool without drowning in replica copies.
constexpr size_t kCandidateGrain = 8;

// Adds each replica parameter's gradient into the matching master
// parameter. Called once per chunk, in chunk order.
void AccumulateGrads(const std::vector<nn::Param*>& master,
                     const std::vector<nn::Param*>& replica) {
  for (size_t i = 0; i < master.size(); ++i) {
    master[i]->grad.Axpy(1.0, replica[i]->grad);
  }
}

// Contiguous [begin, end) runs of the same tweet_pos. The task builder
// emits candidates grouped by tweet, so these runs cover each tweet's full
// candidate set — the natural unit for sharing the attention forward and
// batching the dense layers.
std::vector<std::pair<size_t, size_t>> GroupByTweet(
    const std::vector<RetweetCandidate>& candidates) {
  std::vector<std::pair<size_t, size_t>> groups;
  for (size_t i = 0; i < candidates.size();) {
    size_t j = i + 1;
    while (j < candidates.size() &&
           candidates[j].tweet_pos == candidates[i].tweet_pos) {
      ++j;
    }
    groups.emplace_back(i, j);
    i = j;
  }
  return groups;
}

// Dynamic-head score 1 - prod_m(1 - P_m): the probability of retweeting in
// any of the J intervals.
double AnyIntervalProbability(const double* probs, size_t J) {
  double none = 1.0;
  for (size_t j = 0; j < J; ++j) none *= (1.0 - probs[j]);
  return 1.0 - none;
}

// Outermost batched entry over candidates [begin, end): resets `arena`
// (recording its high-water mark) and returns the candidates' feature-row
// pointers from it.
const double* const* CandidateRows(
    const std::vector<RetweetCandidate>& candidates, size_t begin, size_t end,
    ScratchArena* arena) {
  arena->Reset();
  auto** rows = static_cast<const double**>(arena->Allocate(
      (end - begin) * sizeof(const double*), alignof(const double*)));
  for (size_t s = begin; s < end; ++s) {
    rows[s - begin] = candidates[s].user_features.data();
  }
  return rows;
}

}  // namespace

// Chunk-local copies of the trainable layers below the attention, which
// every chunk shares: its forward runs once per group and its backward
// once, in the reducer.
struct Retina::Replica {
  std::unique_ptr<nn::Dense> ff1, head;
  std::unique_ptr<nn::RecurrentCell> rnn;
  Vec dexo;          // attention-output gradient
  double loss = 0.0;

  std::vector<nn::Param*> Params() const {
    return LayerParams(ff1.get(), rnn.get(), head.get());
  }

  // Flat tensor list over a set of live layers, in a fixed order shared
  // by the master and every replica so gradient reduction pairs master
  // and replica tensors by index. A null rnn is skipped on both sides
  // identically.
  static std::vector<nn::Param*> LayerParams(nn::Dense* ff1,
                                             nn::RecurrentCell* rnn,
                                             nn::Dense* head) {
    nn::ParamRegistry registry;
    ff1->RegisterParams(&registry, "ff1");
    if (rnn != nullptr) rnn->RegisterParams(&registry, "rnn");
    head->RegisterParams(&registry, "head");
    return registry.params();
  }
};

struct Retina::CandidateForward {
  Vec x;       // layer-normalized [user_features ; content]
  Vec h_pre;   // ff1 pre-activation
  Vec h;       // ReLU(h_pre)
  Vec concat;  // static: the head input [h ; exo]
  std::vector<nn::RecCache> caches;  // dynamic: one per interval
  std::vector<Vec> hidden;           // dynamic: per-interval cell output
  Vec probs;   // static: {P}; dynamic: P_m per interval
};

Retina::Retina(size_t user_dim, size_t content_dim, size_t embed_dim,
               size_t num_intervals, RetinaOptions options)
    : options_(options),
      input_dim_(user_dim + content_dim),
      num_intervals_(std::max<size_t>(1, num_intervals)),
      init_rng_(options.seed) {
  const size_t H = options_.hidden;
  ff1_ = std::make_unique<nn::Dense>(input_dim_, H);
  if (options_.use_exogenous) {
    attention_ =
        std::make_unique<nn::ExogenousAttention>(embed_dim, embed_dim, H);
  }
  const size_t concat_dim = H + (options_.use_exogenous ? H : 0);
  if (options_.dynamic) {
    rnn_ = nn::MakeRecurrentCell(options_.recurrent, concat_dim + 2, H);
    head_ = std::make_unique<nn::Dense>(H, 1);
  } else {
    head_ = std::make_unique<nn::Dense>(concat_dim, 1);
  }

  // Registration order = construction order = the pre-registry Glorot
  // draw order, so a given (architecture, seed) yields the same initial
  // weights as it always has.
  ff1_->RegisterParams(&registry_, "ff1");
  if (attention_ != nullptr) {
    attention_->RegisterParams(&registry_, "attention");
  }
  if (rnn_ != nullptr) rnn_->RegisterParams(&registry_, "rnn");
  head_->RegisterParams(&registry_, "head");
  registry_.InitGlorot(&init_rng_);

  if (options_.use_adam) {
    optimizer_ = std::make_unique<nn::Adam>(options_.learning_rate);
  } else {
    // Momentum stabilizes the per-tweet-group steps whose gradient
    // magnitudes vary with the candidate-set size.
    optimizer_ = std::make_unique<nn::Sgd>(options_.learning_rate,
                                           /*momentum=*/0.9);
  }
  optimizer_->Register(registry_);
}

size_t Retina::ExoDim() const {
  return attention_ != nullptr ? attention_->hdim() : 0;
}

void Retina::StepInputInto(const double* h, const double* exo, size_t E,
                           size_t interval, double* in) const {
  const size_t H = options_.hidden;
  std::copy(h, h + H, in);
  std::copy(exo, exo + E, in + H);
  // Interval encoding: log end-edge + relative position.
  in[H + E] = std::log1p(static_cast<double>(interval + 1)) / 3.0;
  in[H + E + 1] = static_cast<double>(interval + 1) /
                  static_cast<double>(num_intervals_);
}

void Retina::ForwardCandidate(const nn::Dense& ff1, const nn::Dense& head,
                              const nn::RecurrentCell* rnn,
                              const TweetContext& ctx,
                              const Vec& user_features, const Vec& exo,
                              CandidateForward* fwd) const {
  fwd->x = nn::LayerNorm(Concat(user_features, ctx.content));
  fwd->h_pre = ff1.Forward(fwd->x);
  fwd->h = nn::Relu(fwd->h_pre);
  if (!options_.dynamic) {
    fwd->concat = Concat(fwd->h, exo);
    fwd->probs = {Sigmoid(head.Forward(fwd->concat)[0])};
    return;
  }
  // Unroll the recurrent cell over intervals. The observable output is
  // the first H entries of the cell state.
  const size_t H = options_.hidden;
  const size_t J = num_intervals_;
  fwd->caches.assign(J, {});
  fwd->hidden.assign(J, {});
  fwd->probs.assign(J, 0.0);
  Vec in(H + exo.size() + 2);
  Vec state(rnn->state_dim(), 0.0);
  for (size_t j = 0; j < J; ++j) {
    StepInputInto(fwd->h.data(), exo.data(), exo.size(), j, in.data());
    state = rnn->Forward(in, state, &fwd->caches[j]);
    fwd->hidden[j].assign(state.begin(), state.begin() + H);
    fwd->probs[j] = Sigmoid(head.Forward(fwd->hidden[j])[0]);
  }
}

double Retina::TrainCandidate(nn::Dense* ff1, nn::Dense* head,
                              nn::RecurrentCell* rnn,
                              const RetweetCandidate& cand,
                              const TweetContext& ctx, const Vec& exo,
                              double inv_batch, const nn::WeightedBce& loss,
                              Vec* dexo) const {
  const size_t H = options_.hidden;
  const size_t J = num_intervals_;
  const bool has_exo = !exo.empty();
  double sample_loss = 0.0;

  CandidateForward fwd;
  ForwardCandidate(*ff1, *head, rnn, ctx, cand.user_features, exo, &fwd);

  Vec dh(H, 0.0);
  if (!options_.dynamic) {
    const double p = fwd.probs[0];
    sample_loss = inv_batch * loss.Loss(p, cand.label);
    const double dlogit = inv_batch * loss.GradLogit(p, cand.label);
    const Vec dconcat = head->Backward(fwd.concat, {dlogit});
    for (size_t k = 0; k < H; ++k) dh[k] += dconcat[k];
    if (has_exo) {
      for (size_t k = 0; k < H; ++k) (*dexo)[k] += dconcat[H + k];
    }
  } else {
    std::vector<double> dlogits(J);
    for (size_t j = 0; j < J; ++j) {
      const double p = fwd.probs[j];
      sample_loss += inv_batch * loss.Loss(p, cand.interval_labels[j]);
      dlogits[j] = inv_batch * loss.GradLogit(p, cand.interval_labels[j]);
    }
    // BPTT.
    Vec dstate_carry(rnn->state_dim(), 0.0);
    for (size_t j = J; j-- > 0;) {
      const Vec dh_head = head->Backward(fwd.hidden[j], {dlogits[j]});
      Vec dstate = dstate_carry;
      for (size_t k = 0; k < H; ++k) dstate[k] += dh_head[k];
      Vec dx;
      rnn->Backward(fwd.caches[j], dstate, &dx, &dstate_carry);
      for (size_t k = 0; k < H; ++k) dh[k] += dx[k];
      if (has_exo) {
        for (size_t k = 0; k < H; ++k) (*dexo)[k] += dx[H + k];
      }
    }
  }
  const Vec dh_pre = nn::ReluBackward(fwd.h_pre, dh);
  ff1->Backward(fwd.x, dh_pre);
  return sample_loss;
}

double Retina::TrainBatch(const RetweetTask& task, size_t begin, size_t end,
                          const nn::WeightedBce& loss) {
  // The attention forward is shared, parallelism splits the group's
  // candidate set. Chunk layout depends only on the candidate count, so
  // any thread count produces the same chunk-ordered gradient sums.
  const auto& train = task.train;
  const size_t H = options_.hidden;
  const TweetContext& ctx = task.tweets[train[begin].tweet_pos];
  // Mean (not summed) gradient over the mini-batch keeps step sizes
  // independent of the candidate-set size.
  const double inv_batch = 1.0 / static_cast<double>(end - begin);
  double batch_loss = 0.0;

  nn::AttentionCache att_cache;
  Vec exo;
  if (attention_ != nullptr) {
    exo = attention_->Forward(ctx.embedding, ctx.news_window, &att_cache);
  }

  const size_t n = end - begin;
  const std::vector<par::ChunkRange> chunks =
      par::MakeChunks(n, kCandidateGrain);
  Vec dexo(H, 0.0);
  if (chunks.size() <= 1) {
    // One chunk: train straight against the master layers. Identical
    // arithmetic to the replica path (replica grads start at the
    // master's zeros), minus the copy.
    for (size_t s = begin; s < end; ++s) {
      batch_loss += TrainCandidate(ff1_.get(), head_.get(), rnn_.get(),
                                   train[s], ctx, exo, inv_batch, loss,
                                   &dexo);
    }
  } else {
    std::vector<Replica> reps(chunks.size());
    par::ParallelForChunks(n, kCandidateGrain,
                           [&](const par::ChunkRange& chunk) {
      Replica& rep = reps[chunk.index];
      rep.ff1 = std::make_unique<nn::Dense>(*ff1_);
      rep.head = std::make_unique<nn::Dense>(*head_);
      if (rnn_ != nullptr) rep.rnn = rnn_->Clone();
      rep.dexo.assign(H, 0.0);
      for (size_t s = begin + chunk.begin; s < begin + chunk.end; ++s) {
        rep.loss += TrainCandidate(rep.ff1.get(), rep.head.get(),
                                   rep.rnn.get(), train[s], ctx, exo,
                                   inv_batch, loss, &rep.dexo);
      }
    });
    // Ordered reduction: chunk index order, so the gradient sums do not
    // depend on scheduling.
    const std::vector<nn::Param*> master =
        Replica::LayerParams(ff1_.get(), rnn_.get(), head_.get());
    for (const Replica& rep : reps) {
      AccumulateGrads(master, rep.Params());
      Axpy(1.0, rep.dexo, &dexo);
      batch_loss += rep.loss;
    }
  }
  if (attention_ != nullptr && !att_cache.weights.empty()) {
    attention_->Backward(att_cache, dexo);
  }
  return batch_loss;
}

Status Retina::Train(const RetweetTask& task) {
  const auto& train = task.train;
  if (train.empty()) {
    return Status::FailedPrecondition("Retina::Train: empty train split");
  }
  // Class-imbalance weight w = lambda (log C - log C+).
  size_t total = 0, positives = 0;
  if (options_.dynamic) {
    for (const auto& cand : train) {
      total += cand.interval_labels.size();
      for (int l : cand.interval_labels) positives += (l == 1);
    }
  } else {
    total = train.size();
    for (const auto& cand : train) positives += (cand.label == 1);
  }
  nn::WeightedBce loss;
  loss.pos_weight = nn::PositiveClassWeight(total, positives, options_.lambda);

  // Contiguous runs of the same tweet form natural mini-batches sharing the
  // attention computation.
  std::vector<std::pair<size_t, size_t>> groups = GroupByTweet(train);

  Rng rng(options_.seed ^ 0xB0B0B0B0ULL);
  epoch_losses_.assign(static_cast<size_t>(std::max(0, options_.epochs)),
                       0.0);

  // Observability: per-epoch loss / grad-norm / step-time trajectories plus
  // a per-step latency histogram. Everything below is read-only over the
  // training state (the grad norm is computed from the already-accumulated
  // master gradients before Step zeroes them), so obs on/off runs are
  // bit-identical — obs_test pins this.
  // The whole training run shares one trace id, so epoch spans and the
  // per-chunk pool events of every ParallelFor below group under a single
  // timeline trace (unless a caller already established one).
  obs::TraceRequestScope trace_run;
  RETINA_OBS_SPAN("retina.train");
  RETINA_LOG(Debug) << "training " << (options_.dynamic ? "RETINA-D" : "RETINA")
                    << ": " << train.size() << " candidates, "
                    << options_.epochs << " epochs";
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* step_counter = reg.GetCounter("train.steps");
  obs::Histogram* step_ns = reg.GetHistogram("train.step_ns");
  obs::Series* loss_series = reg.GetSeries("train.epoch_loss");
  obs::Series* grad_series = reg.GetSeries("train.epoch_grad_norm");
  obs::Series* time_series = reg.GetSeries("train.epoch_seconds");
  reg.GetCounter("train.epochs")->Add(
      static_cast<uint64_t>(std::max(0, options_.epochs)));
  reg.GetCounter("train.candidates")
      ->Add(static_cast<uint64_t>(train.size()) *
            static_cast<uint64_t>(std::max(0, options_.epochs)));
  const std::vector<nn::Param*> master_params = registry_.params();
  // Snapshot the kill switch once: when off, the loop below pays exactly
  // one predictable branch per step and no clock reads.
  const bool obs_on = obs::Enabled();

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    RETINA_OBS_SPAN("retina.train.epoch");
    std::chrono::steady_clock::time_point epoch_start;
    if (obs_on) epoch_start = std::chrono::steady_clock::now();
    rng.Shuffle(&groups);
    double epoch_loss = 0.0;
    double grad_norm_sum = 0.0;
    size_t steps = 0;
    for (const auto& [begin, end] : groups) {
      if (!obs_on) {
        epoch_loss += TrainBatch(task, begin, end, loss);
        optimizer_->Step();
        continue;
      }
      const auto step_start = std::chrono::steady_clock::now();
      epoch_loss += TrainBatch(task, begin, end, loss);
      double sq = 0.0;
      for (const nn::Param* p : master_params) {
        for (const double g : p->grad.data()) sq += g * g;
      }
      grad_norm_sum += std::sqrt(sq);
      optimizer_->Step();
      ++steps;
      step_counter->Add(1);
      step_ns->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - step_start)
              .count()));
    }
    epoch_losses_[static_cast<size_t>(epoch)] =
        epoch_loss / static_cast<double>(groups.size());
    if (obs_on) {
      loss_series->Append(epoch_losses_[static_cast<size_t>(epoch)]);
      grad_series->Append(
          steps > 0 ? grad_norm_sum / static_cast<double>(steps) : 0.0);
      time_series->Append(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        epoch_start)
              .count());
    }
  }
  return Status::OK();
}

Vec Retina::PredictDynamic(const TweetContext& ctx,
                           const Vec& user_features) const {
  Vec exo;
  if (attention_ != nullptr) {
    exo = attention_->Forward(ctx.embedding, ctx.news_window, nullptr);
  }
  CandidateForward fwd;
  ForwardCandidate(*ff1_, *head_, rnn_.get(), ctx, user_features, exo, &fwd);
  return std::move(fwd.probs);
}

double Retina::PredictScore(const TweetContext& ctx,
                            const Vec& user_features) const {
  const Vec probs = PredictDynamic(ctx, user_features);
  if (!options_.dynamic) return probs[0];
  return AnyIntervalProbability(probs.data(), probs.size());
}

const double* Retina::FirstLayerRows(const TweetContext& ctx,
                                     const double* const* user_rows,
                                     size_t n, ScratchArena* arena,
                                     double** exo) const {
  const size_t H = options_.hidden;
  *exo = arena->AllocDoubles(ExoDim());
  if (attention_ != nullptr) {
    // Pure function of the tweet context — one forward serves the batch.
    attention_->ForwardInto(ctx.embedding, ctx.news_window, arena, *exo);
  }
  // Feature rows: user block + tweet content, layer-normalized in place —
  // Concat's copies followed by LayerNorm's loops, without the Vecs.
  const size_t user_dim = input_dim_ - ctx.content.size();
  double* x = arena->AllocDoubles(n * input_dim_);
  for (size_t i = 0; i < n; ++i) {
    double* row = x + i * input_dim_;
    std::copy(user_rows[i], user_rows[i] + user_dim, row);
    std::copy(ctx.content.begin(), ctx.content.end(), row + user_dim);
    nn::LayerNormInPlace(row, input_dim_);
  }
  double* h = arena->AllocDoubles(n * H);
  ff1_->ForwardBatchRaw(x, n, h);
  for (size_t i = 0; i < n * H; ++i) h[i] = std::max(0.0, h[i]);
  return h;
}

void Retina::ScoreBatchRows(const TweetContext& ctx,
                            const double* const* user_rows, size_t n,
                            double* scores, ScratchArena* arena) const {
  if (n == 0) return;
  if (options_.dynamic) {
    const size_t J = num_intervals_;
    double* probs = arena->AllocDoubles(n * J);
    PredictDynamicRows(ctx, user_rows, n, probs, arena);
    for (size_t i = 0; i < n; ++i) {
      scores[i] = AnyIntervalProbability(probs + i * J, J);
    }
    return;
  }
  const size_t H = options_.hidden;
  const size_t E = ExoDim();
  double* exo = nullptr;
  const double* h = FirstLayerRows(ctx, user_rows, n, arena, &exo);
  double* concat = arena->AllocDoubles(n * (H + E));
  for (size_t i = 0; i < n; ++i) {
    const double* hrow = h + i * H;
    double* crow = concat + i * (H + E);
    std::copy(hrow, hrow + H, crow);
    std::copy(exo, exo + E, crow + H);
  }
  double* logits = arena->AllocDoubles(n);
  head_->ForwardBatchRaw(concat, n, logits);
  for (size_t i = 0; i < n; ++i) scores[i] = Sigmoid(logits[i]);
}

void Retina::PredictDynamicRows(const TweetContext& ctx,
                                const double* const* user_rows, size_t n,
                                double* probs, ScratchArena* arena) const {
  if (n == 0) return;
  const size_t H = options_.hidden;
  const size_t E = ExoDim();
  const size_t J = num_intervals_;
  double* exo = nullptr;
  const double* h = FirstLayerRows(ctx, user_rows, n, arena, &exo);
  // The recurrent unroll stays per candidate (its arithmetic is inherently
  // sequential), but running all candidates in interval lockstep lets the
  // head score each interval's batch as one GEMM.
  std::vector<Vec> states(n, Vec(rnn_->state_dim(), 0.0));
  Vec in(H + E + 2);
  double* hidden = arena->AllocDoubles(n * H);
  double* logits = arena->AllocDoubles(n);
  for (size_t j = 0; j < J; ++j) {
    for (size_t i = 0; i < n; ++i) {
      StepInputInto(h + i * H, exo, E, j, in.data());
      states[i] = rnn_->Forward(in, states[i], nullptr);
      std::copy(states[i].begin(), states[i].begin() + H, hidden + i * H);
    }
    head_->ForwardBatchRaw(hidden, n, logits);
    for (size_t i = 0; i < n; ++i) probs[i * J + j] = Sigmoid(logits[i]);
  }
}

namespace {

// Flattens per-interval labels and probabilities over a candidate list.
// With `cumulative`, sample (candidate, j) carries the label "retweeted by
// the end of interval j" and the probability 1 - prod_{k<=j}(1 - P_k).
void CollectIntervalSamples(const Retina& model, const RetweetTask& task,
                            const std::vector<RetweetCandidate>& candidates,
                            size_t num_intervals, bool cumulative,
                            std::vector<int>* y, Vec* p) {
  y->assign(candidates.size() * num_intervals, 0);
  p->assign(candidates.size() * num_intervals, 0.0);
  // One batched forward per tweet group. Inference is pure and every group
  // owns a disjoint slice of the output arrays, so parallel order cannot
  // change the result.
  const auto groups = GroupByTweet(candidates);
  par::ParallelFor(groups.size(), 1, [&](size_t g) {
    const auto& [begin, end] = groups[g];
    ScratchArena& arena = TlsScratchArena();
    const double* const* rows = CandidateRows(candidates, begin, end, &arena);
    double* probs = arena.AllocDoubles((end - begin) * num_intervals);
    model.PredictDynamicRows(task.tweets[candidates[begin].tweet_pos], rows,
                             end - begin, probs, &arena);
    for (size_t i = begin; i < end; ++i) {
      const RetweetCandidate& cand = candidates[i];
      const double* prow = probs + (i - begin) * num_intervals;
      int label_so_far = 0;
      double none_so_far = 1.0;
      for (size_t j = 0; j < num_intervals; ++j) {
        const size_t out = i * num_intervals + j;
        if (cumulative) {
          label_so_far |= cand.interval_labels[j];
          none_so_far *= 1.0 - prow[j];
          (*y)[out] = label_so_far;
          (*p)[out] = 1.0 - none_so_far;
        } else {
          (*y)[out] = cand.interval_labels[j];
          (*p)[out] = prow[j];
        }
      }
    }
  });
}

BinaryEval EvalFlat(const std::vector<int>& y, const Vec& p,
                    double threshold) {
  BinaryEval eval;
  const std::vector<int> pred = ml::Threshold(p, threshold);
  eval.macro_f1 = ml::MacroF1(y, pred);
  eval.accuracy = ml::Accuracy(y, pred);
  eval.auc = ml::RocAuc(y, p);
  return eval;
}

double BestThreshold(const std::vector<int>& y, const Vec& p) {
  double best_threshold = 0.5, best_f1 = -1.0;
  for (double threshold = 0.05; threshold < 0.96; threshold += 0.05) {
    const double f1 = ml::MacroF1(y, ml::Threshold(p, threshold));
    if (f1 > best_f1) {
      best_f1 = f1;
      best_threshold = threshold;
    }
  }
  return best_threshold;
}

}  // namespace

BinaryEval Retina::EvaluatePerInterval(
    const RetweetTask& task,
    const std::vector<RetweetCandidate>& candidates,
    double threshold) const {
  std::vector<int> y;
  Vec p;
  CollectIntervalSamples(*this, task, candidates, num_intervals_,
                         /*cumulative=*/false, &y, &p);
  return EvalFlat(y, p, threshold);
}

double Retina::CalibrateIntervalThreshold(
    const RetweetTask& task,
    const std::vector<RetweetCandidate>& candidates) const {
  std::vector<int> y;
  Vec p;
  CollectIntervalSamples(*this, task, candidates, num_intervals_,
                         /*cumulative=*/false, &y, &p);
  return BestThreshold(y, p);
}

BinaryEval Retina::EvaluateCumulative(
    const RetweetTask& task,
    const std::vector<RetweetCandidate>& candidates,
    double threshold) const {
  std::vector<int> y;
  Vec p;
  CollectIntervalSamples(*this, task, candidates, num_intervals_,
                         /*cumulative=*/true, &y, &p);
  return EvalFlat(y, p, threshold);
}

double Retina::CalibrateCumulativeThreshold(
    const RetweetTask& task,
    const std::vector<RetweetCandidate>& candidates) const {
  std::vector<int> y;
  Vec p;
  CollectIntervalSamples(*this, task, candidates, num_intervals_,
                         /*cumulative=*/true, &y, &p);
  return BestThreshold(y, p);
}

Vec Retina::ScoreCandidates(
    const RetweetTask& task,
    const std::vector<RetweetCandidate>& candidates) const {
  Vec scores(candidates.size());
  // Batched forward per tweet group (shared attention, GEMM dense layers);
  // groups write disjoint slices of `scores`, so any thread count produces
  // the same vector.
  const auto groups = GroupByTweet(candidates);
  par::ParallelFor(groups.size(), 1, [&](size_t g) {
    const auto& [begin, end] = groups[g];
    ScratchArena& arena = TlsScratchArena();
    const double* const* rows = CandidateRows(candidates, begin, end, &arena);
    ScoreBatchRows(task.tweets[candidates[begin].tweet_pos], rows,
                   end - begin, scores.data() + begin, &arena);
  });
  return scores;
}

Status Retina::Save(io::Checkpoint* ckpt, const std::string& prefix) const {
  ckpt->PutI64(prefix + "meta/input_dim",
               static_cast<int64_t>(input_dim_));
  ckpt->PutI64(prefix + "meta/embed_dim",
               static_cast<int64_t>(
                   attention_ != nullptr ? attention_->tweet_dim() : 0));
  ckpt->PutI64(prefix + "meta/num_intervals",
               static_cast<int64_t>(num_intervals_));
  ckpt->PutI64(prefix + "options/hidden",
               static_cast<int64_t>(options_.hidden));
  ckpt->PutBool(prefix + "options/dynamic", options_.dynamic);
  ckpt->PutBool(prefix + "options/use_exogenous", options_.use_exogenous);
  ckpt->PutI64(prefix + "options/epochs", options_.epochs);
  ckpt->PutBool(prefix + "options/use_adam", options_.use_adam);
  ckpt->PutF64(prefix + "options/learning_rate", options_.learning_rate);
  ckpt->PutF64(prefix + "options/lambda", options_.lambda);
  ckpt->PutI64(prefix + "options/recurrent",
               static_cast<int64_t>(options_.recurrent));
  ckpt->PutI64(prefix + "options/seed",
               static_cast<int64_t>(options_.seed));
  nn::SaveParams(registry_, ckpt, prefix + "params/");
  return optimizer_->SaveState(ckpt, prefix + "optim/");
}

Result<std::unique_ptr<Retina>> Retina::Load(const io::Checkpoint& ckpt,
                                             const std::string& prefix) {
  int64_t input_dim, embed_dim, num_intervals;
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "meta/input_dim", &input_dim));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "meta/embed_dim", &embed_dim));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "meta/num_intervals", &num_intervals));

  RetinaOptions options;
  int64_t hidden, epochs, recurrent, seed;
  RETINA_RETURN_NOT_OK(ckpt.GetI64(prefix + "options/hidden", &hidden));
  RETINA_RETURN_NOT_OK(
      ckpt.GetBool(prefix + "options/dynamic", &options.dynamic));
  RETINA_RETURN_NOT_OK(ckpt.GetBool(prefix + "options/use_exogenous",
                                    &options.use_exogenous));
  RETINA_RETURN_NOT_OK(ckpt.GetI64(prefix + "options/epochs", &epochs));
  RETINA_RETURN_NOT_OK(
      ckpt.GetBool(prefix + "options/use_adam", &options.use_adam));
  RETINA_RETURN_NOT_OK(ckpt.GetF64(prefix + "options/learning_rate",
                                   &options.learning_rate));
  RETINA_RETURN_NOT_OK(ckpt.GetF64(prefix + "options/lambda",
                                   &options.lambda));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "options/recurrent", &recurrent));
  RETINA_RETURN_NOT_OK(ckpt.GetI64(prefix + "options/seed", &seed));

  if (input_dim <= 0 || num_intervals <= 0 || hidden <= 0 ||
      embed_dim < 0) {
    return Status::InvalidArgument(
        "checkpoint carries non-positive model dimensions");
  }
  if (recurrent < 0 ||
      recurrent > static_cast<int64_t>(nn::RecurrentKind::kSimpleRnn)) {
    return Status::InvalidArgument("unknown recurrent cell kind " +
                                   std::to_string(recurrent));
  }
  if (options.use_exogenous && embed_dim == 0) {
    return Status::InvalidArgument(
        "exogenous attention enabled but embed_dim is 0");
  }
  options.hidden = static_cast<size_t>(hidden);
  options.epochs = static_cast<int>(epochs);
  options.recurrent = static_cast<nn::RecurrentKind>(recurrent);
  options.seed = static_cast<uint64_t>(seed);

  auto model = std::make_unique<Retina>(
      static_cast<size_t>(input_dim), /*content_dim=*/0,
      static_cast<size_t>(embed_dim),
      static_cast<size_t>(num_intervals), options);
  RETINA_RETURN_NOT_OK(
      nn::LoadParams(ckpt, prefix + "params/", model->registry_));
  RETINA_RETURN_NOT_OK(
      model->optimizer_->LoadState(ckpt, prefix + "optim/"));
  return model;
}

}  // namespace retina::core
