// RETINA — Retweeter Identifier Network with Exogenous Attention
// (Section V-B, Figure 4).
//
// Static mode (Figure 4b): the candidate feature X^{u_j} (user history +
// endogenous + peer + root-tweet content) is layer-normalized, passed
// through a feed-forward layer, concatenated with the exogenous attention
// output X^{T,N}, and a final feed-forward layer with sigmoid produces the
// retweet probability P^{u_j}.
//
// Dynamic mode (Figure 4c): the last feed-forward layer is replaced by a
// GRU unrolled over consecutive time intervals; each step emits the
// probability of the user retweeting inside that interval.
//
// The exogenous attention block is shared per tweet: because X^{T,N}
// depends only on the root tweet and the news stream, the trainer batches
// all candidates of one tweet together, computing attention once and
// accumulating its gradient across the batch (paper batch sizes: 16 static
// / 32 dynamic — one tweet's candidate set is the same order of magnitude).
//
// The forward is written once per shape. Per candidate, PredictScore /
// PredictDynamic run the serial reference every batched pin compares
// against. Per tweet group, one raw-row first layer (arena rows,
// LayerNorm, one ff1 GEMM, ReLU) feeds the static head (ScoreBatchRows)
// and the per-candidate recurrent unroll (PredictDynamicRows), the one
// PredictDynamic and training run too; every batched entry point and
// the training step run it and match the per-candidate pass bit for bit.
// Training differentiates that batched pass: ff1's and the static head's
// weight gradients are computed by output row, RETINA-D's BPTT per
// candidate.
//
// Ablation (†): use_exogenous=false removes the attention block, matching
// RETINA-S† / RETINA-D† in Table VI.

#ifndef RETINA_CORE_RETINA_H_
#define RETINA_CORE_RETINA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "core/retweet_task.h"
#include "io/checkpoint.h"
#include "nn/attention.h"
#include "nn/param_registry.h"
#include "nn/recurrent.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace retina::core {

struct RetinaOptions {
  /// hdim and hidden sizes (paper: 64 everywhere).
  size_t hidden = 64;
  /// Dynamic (GRU) vs static (feed-forward) head.
  bool dynamic = false;
  /// Exogenous attention on/off (off = the † ablation).
  bool use_exogenous = true;
  int epochs = 5;
  /// Optimizer: Adam (static best) or SGD lr=1e-2 (dynamic best).
  bool use_adam = true;
  double learning_rate = 1e-3;
  /// Class-imbalance constant lambda in w = lambda(log C - log C+)
  /// (paper: 2.0 static, 2.5 dynamic).
  double lambda = 2.0;
  /// Recurrent cell of the dynamic head. The paper settled on the GRU
  /// after trying a simple RNN (worse) and an LSTM (no gain) — see
  /// bench_ablation_recurrent.
  nn::RecurrentKind recurrent = nn::RecurrentKind::kGru;
  uint64_t seed = 42;
};

/// \brief The RETINA model (static or dynamic head).
class Retina {
 public:
  /// \param user_dim Dimensionality of X^{u_j} (user-side features).
  /// \param content_dim Dimensionality of root-tweet content features.
  /// \param embed_dim Doc2Vec dimensionality (attention inputs).
  Retina(size_t user_dim, size_t content_dim, size_t embed_dim,
         size_t num_intervals, RetinaOptions options);

  /// Trains on the task's train split.
  Status Train(const RetweetTask& task);

  /// Training loss of each epoch of the last Train call: the mean over
  /// tweet groups of each group's mean candidate loss, so a small group
  /// weighs as much as a large one. Chunk-ordered sums make the trajectory
  /// bit-identical at any thread count — the determinism regression tests
  /// pin this.
  const std::vector<double>& epoch_losses() const { return epoch_losses_; }

  /// Per-interval probabilities P^{u_j}_m (dynamic mode; the static head
  /// yields its one probability P^{u_j}), from the per-candidate forward.
  Vec PredictDynamic(const TweetContext& ctx, const Vec& user_features) const;

  /// Scalar score for ranking/classification: the static probability, or
  /// in dynamic mode 1 - prod_m(1 - P_m) (probability of retweeting in any
  /// interval). The per-candidate reference every batched entry point
  /// matches bit for bit.
  double PredictScore(const TweetContext& ctx, const Vec& user_features) const;

  /// Batched scores for one tweet's candidates over raw feature rows (each
  /// `user_rows[i]` holds user_dim entries): scores[i] equals
  /// PredictScore(ctx, row i) bit-for-bit. Every temporary comes from
  /// `arena` — bumped, never reset here, so the caller owns the request
  /// epoch — and on a warm arena the static forward performs zero heap
  /// allocations (the dynamic head's recurrent state still allocates).
  void ScoreBatchRows(const TweetContext& ctx, const double* const* user_rows,
                      size_t n, double* scores, ScratchArena* arena) const;

  /// Batched per-interval probabilities (dynamic mode) over raw feature
  /// rows: `probs` holds n x num_intervals entries row-major, and row i
  /// equals PredictDynamic(ctx, row i) bit-for-bit. The attention output
  /// and the first layer run once for the batch (one ff1 GEMM); then each
  /// candidate runs the recurrent unroll PredictDynamic runs. The first
  /// layer's buffers come from `arena` as in ScoreBatchRows.
  void PredictDynamicRows(const TweetContext& ctx,
                          const double* const* user_rows, size_t n,
                          double* probs, ScratchArena* arena) const;

  /// Scores for a candidate list: one ScoreBatchRows per tweet group.
  Vec ScoreCandidates(const RetweetTask& task,
                      const std::vector<RetweetCandidate>& candidates) const;

  /// Dynamic-mode classification metrics computed per (candidate,
  /// interval) sample — the paper's evaluation unit for RETINA-D (its
  /// Table VI row reports P^{u_i}_j against per-interval ground truth).
  /// The weighted loss (Eq. 6) inflates the per-interval probabilities, so
  /// pass a `threshold` calibrated on the training split.
  BinaryEval EvaluatePerInterval(const RetweetTask& task,
                                 const std::vector<RetweetCandidate>& candidates,
                                 double threshold = 0.5) const;

  /// Grid-searches the per-interval decision threshold maximizing
  /// macro-F1 on `candidates` (use the train split).
  double CalibrateIntervalThreshold(
      const RetweetTask& task,
      const std::vector<RetweetCandidate>& candidates) const;

  /// Cumulative per-interval metrics: sample (candidate, j) asks "has the
  /// user retweeted by the end of interval j" (Eq. 2 integrates the
  /// retweet density over [t0, t0+Δt]); the prediction is
  /// 1 - prod_{k<=j}(1 - P_k). `threshold` from
  /// CalibrateCumulativeThreshold on the train split.
  BinaryEval EvaluateCumulative(const RetweetTask& task,
                                const std::vector<RetweetCandidate>& candidates,
                                double threshold = 0.5) const;

  double CalibrateCumulativeThreshold(
      const RetweetTask& task,
      const std::vector<RetweetCandidate>& candidates) const;

  const RetinaOptions& options() const { return options_; }
  size_t input_dim() const { return input_dim_; }

  /// Writes architecture (options + dimensions), every registered
  /// parameter, and the optimizer's dynamic state under `prefix`. A
  /// loaded model predicts — and continues training — bit-identically.
  Status Save(io::Checkpoint* ckpt,
              const std::string& prefix = "retina/") const;

  /// Rebuilds a model from Save output: architecture from the saved
  /// options, then parameters and optimizer state restored by name.
  static Result<std::unique_ptr<Retina>> Load(
      const io::Checkpoint& ckpt, const std::string& prefix = "retina/");

 private:
  // One training step's buffers (see TrainBatch).
  struct StepScratch;

  // Width of the attention output (0 for the † ablation).
  size_t ExoDim() const;

  // The attention output for scoring: ExoDim() entries from `arena`,
  // computed without a backward cache.
  double* ExoInto(const TweetContext& ctx, ScratchArena* arena) const;

  // The batched first layer over n raw user rows, into caller-owned
  // buffers: x receives the layer-normalized [user_row ; ctx.content] rows
  // (input_dim() entries each) and h the ReLU'd ff1 rows (options_.hidden
  // entries each). Every scoring entry point and the training step run it.
  // LayerNorm stays per dense row — its mean/variance must accumulate over
  // every entry, zeros included, in index order — then ff1 runs as one
  // GEMM over the rows, each row bit-identical to the per-candidate pass.
  void FirstLayerRows(const TweetContext& ctx, const double* const* user_rows,
                      size_t n, double* x, double* h) const;

  // Recurrent input at `interval` into `in` (H + E + 2 entries): the
  // ReLU'd ff1 row, the attention output, and the interval encoding.
  void StepInputInto(const double* h, const double* exo, size_t E,
                     size_t interval, double* in) const;

  // The recurrent head's per-candidate unroll over intervals from the
  // ReLU'd ff1 row `h` and the E-entry attention output `exo`, against the
  // given cell and head (the model's own, or a training chunk's copy):
  // probs[j] = P_j. Every dynamic entry point runs it. Non-null `caches`
  // and `hidden` (num_intervals entries each) receive what BPTT reads.
  void UnrollCandidate(const nn::RecurrentCell& rnn, const nn::Dense& head,
                       const double* h, const double* exo, size_t E,
                       double* probs, std::vector<nn::RecCache>* caches,
                       std::vector<Vec>* hidden) const;

  // The paper's per-tweet step over train candidates [begin, end), one
  // tweet group: one pool dispatch runs the attention forward (keeping its
  // cache) alongside the batched first layer over blocks of rows; then the
  // head per candidate chunk (the recurrent head's BPTT on the pool), and
  // the weight gradients output row by row. Sums add up from zero within
  // each chunk of kCandidateGrain candidates, then chunk by chunk in
  // order, so any thread count yields the same bits. Accumulates the mean
  // gradient into every parameter and returns the group's mean loss; Train
  // applies the optimizer step.
  double TrainBatch(const RetweetTask& task, size_t begin, size_t end,
                    const nn::WeightedBce& loss, StepScratch* scratch);

  RetinaOptions options_;
  size_t input_dim_;
  size_t num_intervals_;
  std::vector<double> epoch_losses_;

  Rng init_rng_;
  std::unique_ptr<nn::Dense> ff1_;   // input -> hidden
  std::unique_ptr<nn::Dense> head_;  // concat -> 1 (static) / rnn out -> 1
  std::unique_ptr<nn::RecurrentCell> rnn_;  // dynamic only
  std::unique_ptr<nn::ExogenousAttention> attention_;
  // Named view over the live layers' tensors, in construction order
  // (ff1, attention, rnn, head) — the Glorot draw order and the
  // optimizer slot order. Entries point into the heap-allocated layers,
  // so they stay valid if the Retina object itself moves.
  nn::ParamRegistry registry_;
  std::unique_ptr<nn::Optimizer> optimizer_;
};

}  // namespace retina::core

#endif  // RETINA_CORE_RETINA_H_
