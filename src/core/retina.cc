#include "core/retina.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/trace.h"

namespace retina::core {

namespace {

// Candidates per summation chunk when splitting one tweet group: a step's
// loss and gradient sums add up from zero within each chunk, then chunk by
// chunk in order. The layout depends only on the group size, so every
// thread count produces the same sums.
constexpr size_t kCandidateGrain = 8;

// Multiply-adds a first-layer pool task carries at least: about ten
// microseconds on one AVX2 core. That outweighs taking a task from the
// pool and leaves blocks small enough for the pool to balance a group.
constexpr size_t kMinTaskMacs = size_t{1} << 17;

// The recurrent head's tensors, in one fixed order, so a chunk's copy
// pairs with the model's own tensor by index.
std::vector<nn::Param*> RecurrentHeadParams(nn::RecurrentCell* rnn,
                                            nn::Dense* head) {
  nn::ParamRegistry registry;
  rnn->RegisterParams(&registry, "rnn");
  head->RegisterParams(&registry, "head");
  return registry.params();
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

// One training step's buffers, sized for the largest tweet group (n rows)
// and taken once per Train on the calling thread. The row buffers start on
// a cache line, so their rows sit at the same offsets in every run.
struct Retina::StepScratch {
  StepScratch(size_t n, size_t D, size_t H, size_t E)
      : rows(n), x(n * D), h(n * H), dh(n * H), concat(n * (H + E)),
        dconcat(n * (H + E)), logits(n), dlogits(n),
        loss(par::MakeChunks(n, kCandidateGrain).size()),
        dexo(loss.size() * E), dexo_sum(E),
        partial(std::max(D, H + E)) {}

  std::vector<const double*> rows;  // the group's user feature rows
  AlignedVec x;        // n x input_dim: layer-normalized inputs
  AlignedVec h;        // n x H: ReLU'd ff1 rows
  AlignedVec dh;       // n x H: ReLU-masked ff1 output gradients
  AlignedVec concat;   // static, n x (H + E): head inputs [h ; exo]
  AlignedVec dconcat;  // static, n x (H + E): head input gradients
  Vec logits;          // static, n
  Vec dlogits;         // static, n
  Vec loss;            // per summation chunk: its loss sum
  Vec dexo;            // per summation chunk: its attention-output gradient
  Vec dexo_sum;        // E: the group's attention-output gradient
  AlignedVec partial;  // one chunk's weight-row sum
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

double* Retina::ExoInto(const TweetContext& ctx, ScratchArena* arena) const {
  double* exo = arena->AllocDoubles(ExoDim());
  if (attention_ != nullptr) {
    // Pure function of the tweet context — one forward serves the batch.
    attention_->ForwardInto(ctx.embedding, ctx.news_window, arena, exo);
  }
  return exo;
}

void Retina::FirstLayerRows(const TweetContext& ctx,
                            const double* const* user_rows, size_t n,
                            double* x, double* h) const {
  // Feature rows: user block + tweet content, layer-normalized in place —
  // Concat's copies followed by LayerNorm's loops, without the Vecs.
  const size_t user_dim = input_dim_ - ctx.content.size();
  for (size_t i = 0; i < n; ++i) {
    double* row = x + i * input_dim_;
    std::copy(user_rows[i], user_rows[i] + user_dim, row);
    std::copy(ctx.content.begin(), ctx.content.end(), row + user_dim);
    nn::LayerNormInPlace(row, input_dim_);
  }
  ff1_->ForwardBatchRaw(x, n, h);
  for (size_t i = 0; i < n * options_.hidden; ++i) h[i] = std::max(0.0, h[i]);
}

void Retina::UnrollCandidate(const nn::RecurrentCell& rnn,
                             const nn::Dense& head, const double* h,
                             const double* exo, size_t E, double* probs,
                             std::vector<nn::RecCache>* caches,
                             std::vector<Vec>* hidden) const {
  // The observable output is the first H entries of the cell state.
  const size_t H = options_.hidden;
  Vec in(H + E + 2);
  Vec state(rnn.state_dim(), 0.0);
  Vec out;
  for (size_t j = 0; j < num_intervals_; ++j) {
    StepInputInto(h, exo, E, j, in.data());
    state = rnn.Forward(in, state, caches != nullptr ? &(*caches)[j] : nullptr);
    out.assign(state.begin(), state.begin() + H);
    probs[j] = Sigmoid(head.Forward(out)[0]);
    if (hidden != nullptr) (*hidden)[j] = out;
  }
}

double Retina::TrainBatch(const RetweetTask& task, size_t begin, size_t end,
                          const nn::WeightedBce& loss, StepScratch* s) {
  const auto& train = task.train;
  const size_t n = end - begin;
  const size_t D = input_dim_;
  const size_t H = options_.hidden;
  const size_t E = ExoDim();
  const size_t C = H + E;
  const TweetContext& ctx = task.tweets[train[begin].tweet_pos];
  // Mean (not summed) gradient over the mini-batch keeps step sizes
  // independent of the candidate-set size.
  const double inv_batch = 1.0 / static_cast<double>(n);

  for (size_t i = 0; i < n; ++i) {
    s->rows[i] = train[begin + i].user_features.data();
  }
  // The step's one pool dispatch for RETINA-S: the attention forward, with
  // its cache, as the first task, and the first layer over blocks of rows
  // as the rest. Every later phase runs on the calling thread: each extra
  // dispatch parks and wakes the caller once more per step, and the time
  // that takes follows the machine's load.
  nn::AttentionCache att_cache;
  Vec exo;
  const size_t att_tasks = attention_ != nullptr ? 1 : 0;
  const size_t block = std::max<size_t>(1, kMinTaskMacs / (D * H));
  const size_t blocks = (n + block - 1) / block;
  // Rows that fit one block are less work than a dispatch: run inline.
  const size_t tasks = att_tasks + blocks;
  par::ParallelFor(tasks, blocks > 1 ? 1 : tasks, [&](size_t t) {
    if (t < att_tasks) {
      exo = attention_->Forward(ctx.embedding, ctx.news_window, &att_cache);
      return;
    }
    const size_t b = (t - att_tasks) * block;
    const size_t e = std::min(n, b + block);
    FirstLayerRows(ctx, s->rows.data() + b, e - b, s->x.data() + b * D,
                   s->h.data() + b * H);
  });
  const std::vector<par::ChunkRange> chunks =
      par::MakeChunks(n, kCandidateGrain);
  std::fill(s->dexo.begin(), s->dexo.begin() + chunks.size() * E, 0.0);

  // The recurrent head's BPTT runs per candidate: chunk 0 trains the
  // model's own cell and head, every later chunk a copy taken here, whose
  // gradients add into the model's in chunk order below.
  std::vector<std::unique_ptr<nn::RecurrentCell>> rnns;
  std::vector<std::unique_ptr<nn::Dense>> heads;
  if (options_.dynamic) {
    rnns.resize(chunks.size());
    heads.resize(chunks.size());
    for (size_t c = 1; c < chunks.size(); ++c) {
      rnns[c] = rnn_->Clone();
      heads[c] = std::make_unique<nn::Dense>(*head_);
    }
  }

  // Static head over chunk ch's rows: loss, dlogit, and the head input
  // gradient split into the ReLU-masked ff1 output gradient and the
  // chunk's attention-output gradient.
  const auto static_chunk = [&](const par::ChunkRange& ch) {
    double* concat = s->concat.data();
    for (size_t i = ch.begin; i < ch.end; ++i) {
      std::copy(s->h.data() + i * H, s->h.data() + (i + 1) * H,
                concat + i * C);
      std::copy(exo.begin(), exo.end(), concat + i * C + H);
    }
    head_->ForwardBatchRaw(concat + ch.begin * C, ch.size(),
                           s->logits.data() + ch.begin);
    double* dexo = s->dexo.data() + ch.index * E;
    double chunk_loss = 0.0;
    for (size_t i = ch.begin; i < ch.end; ++i) {
      const int label = train[begin + i].label;
      const double p = Sigmoid(s->logits[i]);
      chunk_loss += inv_batch * loss.Loss(p, label);
      s->dlogits[i] = inv_batch * loss.GradLogit(p, label);
      double* dconcat = s->dconcat.data() + i * C;
      head_->InputGradRaw(&s->dlogits[i], dconcat);
      const double* hrow = s->h.data() + i * H;
      double* dhrow = s->dh.data() + i * H;
      for (size_t k = 0; k < H; ++k) {
        dhrow[k] = hrow[k] > 0.0 ? dconcat[k] : 0.0;
      }
      for (size_t k = 0; k < E; ++k) dexo[k] += dconcat[H + k];
    }
    return chunk_loss;
  };

  // Recurrent head over chunk ch's rows: per candidate, the unroll and
  // BPTT against the chunk's cell and head.
  const auto recurrent_chunk = [&](const par::ChunkRange& ch) {
    nn::RecurrentCell* rnn = ch.index == 0 ? rnn_.get() : rnns[ch.index].get();
    nn::Dense* head = ch.index == 0 ? head_.get() : heads[ch.index].get();
    const size_t J = num_intervals_;
    std::vector<nn::RecCache> caches(J);
    std::vector<Vec> hidden(J);
    Vec probs(J), dlogits(J);
    double* dexo = s->dexo.data() + ch.index * E;
    double chunk_loss = 0.0;
    for (size_t i = ch.begin; i < ch.end; ++i) {
      const RetweetCandidate& cand = train[begin + i];
      const double* hrow = s->h.data() + i * H;
      UnrollCandidate(*rnn, *head, hrow, exo.data(), exo.size(), probs.data(),
                      &caches, &hidden);
      double sample_loss = 0.0;
      for (size_t j = 0; j < J; ++j) {
        const int label = cand.interval_labels[j];
        sample_loss += inv_batch * loss.Loss(probs[j], label);
        dlogits[j] = inv_batch * loss.GradLogit(probs[j], label);
      }
      double* dhrow = s->dh.data() + i * H;
      std::fill(dhrow, dhrow + H, 0.0);
      Vec dstate_carry(rnn->state_dim(), 0.0);
      for (size_t j = J; j-- > 0;) {
        const Vec dh_head = head->Backward(hidden[j], {dlogits[j]});
        Vec dstate = dstate_carry;
        for (size_t k = 0; k < H; ++k) dstate[k] += dh_head[k];
        Vec dx;
        rnn->Backward(caches[j], dstate, &dx, &dstate_carry);
        for (size_t k = 0; k < H; ++k) dhrow[k] += dx[k];
        for (size_t k = 0; k < E; ++k) dexo[k] += dx[H + k];
      }
      for (size_t k = 0; k < H; ++k) {
        if (!(hrow[k] > 0.0)) dhrow[k] = 0.0;
      }
      chunk_loss += sample_loss;
    }
    return chunk_loss;
  };

  // Head and head backward per summation chunk: the static head inline,
  // the recurrent head's BPTT one pool task per chunk.
  if (options_.dynamic) {
    par::ParallelForChunks(chunks.size(), 1, [&](const par::ChunkRange& t) {
      for (size_t c = t.begin; c < t.end; ++c) {
        s->loss[c] = recurrent_chunk(chunks[c]);
      }
    });
  } else {
    for (const par::ChunkRange& ch : chunks) {
      s->loss[ch.index] = static_chunk(ch);
    }
  }

  // Weight and bias gradients row by row: ff1's H rows, then the static
  // head's one row.
  const size_t chunk = chunks.front().size();
  for (size_t r = 0; r < H; ++r) {
    ff1_->BackwardRow(r, s->x.data(), s->dh.data(), n, chunk,
                      s->partial.data());
  }
  if (!options_.dynamic) {
    head_->BackwardRow(0, s->concat.data(), s->dlogits.data(), n, chunk,
                       s->partial.data());
  }

  // Chunk partials in chunk order.
  double batch_loss = 0.0;
  std::fill(s->dexo_sum.begin(), s->dexo_sum.end(), 0.0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    batch_loss += s->loss[c];
    simd::Axpy(1.0, s->dexo.data() + c * E, s->dexo_sum.data(), E);
  }
  if (options_.dynamic && chunks.size() > 1) {
    const std::vector<nn::Param*> model =
        RecurrentHeadParams(rnn_.get(), head_.get());
    for (size_t c = 1; c < chunks.size(); ++c) {
      const std::vector<nn::Param*> copy =
          RecurrentHeadParams(rnns[c].get(), heads[c].get());
      for (size_t p = 0; p < model.size(); ++p) {
        model[p]->grad.Axpy(1.0, copy[p]->grad);
      }
    }
  }
  if (attention_ != nullptr && !att_cache.weights.empty()) {
    attention_->Backward(att_cache, s->dexo_sum);
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
  size_t max_group = 0;
  for (const auto& [begin, end] : groups) {
    max_group = std::max(max_group, end - begin);
  }
  StepScratch scratch(max_group, input_dim_, options_.hidden, ExoDim());

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
        epoch_loss += TrainBatch(task, begin, end, loss, &scratch);
        optimizer_->Step();
        continue;
      }
      const auto step_start = std::chrono::steady_clock::now();
      epoch_loss += TrainBatch(task, begin, end, loss, &scratch);
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
  const Vec h = nn::Relu(
      ff1_->Forward(nn::LayerNorm(Concat(user_features, ctx.content))));
  if (!options_.dynamic) return {Sigmoid(head_->Forward(Concat(h, exo))[0])};
  Vec probs(num_intervals_);
  UnrollCandidate(*rnn_, *head_, h.data(), exo.data(), exo.size(),
                  probs.data(), nullptr, nullptr);
  return probs;
}

double Retina::PredictScore(const TweetContext& ctx,
                            const Vec& user_features) const {
  const Vec probs = PredictDynamic(ctx, user_features);
  if (!options_.dynamic) return probs[0];
  return AnyIntervalProbability(probs.data(), probs.size());
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
  const double* exo = ExoInto(ctx, arena);
  double* x = arena->AllocDoubles(n * input_dim_);
  double* h = arena->AllocDoubles(n * H);
  FirstLayerRows(ctx, user_rows, n, x, h);
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
  const double* exo = ExoInto(ctx, arena);
  double* x = arena->AllocDoubles(n * input_dim_);
  double* h = arena->AllocDoubles(n * H);
  FirstLayerRows(ctx, user_rows, n, x, h);
  for (size_t i = 0; i < n; ++i) {
    UnrollCandidate(*rnn_, *head_, h + i * H, exo, ExoDim(),
                    probs + i * num_intervals_, nullptr, nullptr);
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
