#include "diffusion/neural_baselines.h"

#include <algorithm>
#include <cmath>

namespace retina::diffusion {

const char* NeuralBaselineName(NeuralBaselineKind kind) {
  switch (kind) {
    case NeuralBaselineKind::kTopoLstm:
      return "TopoLSTM";
    case NeuralBaselineKind::kForest:
      return "FOREST";
    case NeuralBaselineKind::kHidan:
      return "HIDAN";
  }
  return "?";
}

NeuralDiffusionBaseline::NeuralDiffusionBaseline(
    const datagen::SyntheticWorld* world, NeuralBaselineKind kind,
    NeuralBaselineOptions options)
    : world_(world), kind_(kind), options_(options) {
  Rng rng(options_.seed);
  embeddings_ = Matrix(world->NumUsers(), options_.embed_dim);
  const double scale = 1.0 / std::sqrt(static_cast<double>(options_.embed_dim));
  for (double& v : embeddings_.data()) v = rng.Normal(0.0, scale);
  if (kind_ == NeuralBaselineKind::kHidan) b_ = 0.0;  // no graph access
}

Vec NeuralDiffusionBaseline::CandidateVector(datagen::NodeId v) const {
  Vec phi = embeddings_.RowVec(v);
  if (kind_ == NeuralBaselineKind::kForest) {
    // Structural aggregation: mean over a deterministic sample of
    // followees (the users v receives content from).
    const auto followees = world_->network().Followees(v);
    if (!followees.empty()) {
      Vec agg(phi.size(), 0.0);
      const size_t take = std::min(options_.neighbor_samples,
                                   followees.size());
      for (size_t i = 0; i < take; ++i) {
        const size_t stride = followees.size() / take;
        const datagen::NodeId u = followees[i * stride];
        Axpy(1.0, embeddings_.RowVec(u), &agg);
      }
      Scale(1.0 / static_cast<double>(take), &agg);
      for (size_t i = 0; i < phi.size(); ++i) {
        phi[i] = 0.5 * (phi[i] + agg[i]);
      }
    }
  }
  return phi;
}

double NeuralDiffusionBaseline::StructScore(
    const core::RetweetTask& task,
    const core::RetweetCandidate& cand) const {
  if (kind_ == NeuralBaselineKind::kHidan) return 0.0;
  // The path feature is the penultimate entry of the user feature vector
  // (see FeatureExtractor::AssembleRetweetUserFeaturesInto).
  const double path = cand.user_features[task.user_dim - 2];
  return 1.0 / (1.0 + path);
}

double NeuralDiffusionBaseline::Logit(
    const core::RetweetTask& task,
    const core::RetweetCandidate& cand) const {
  const datagen::NodeId root =
      world_->tweets()[task.tweets[cand.tweet_pos].tweet_id].author;
  const Vec phi = CandidateVector(cand.user);
  const Vec eu = embeddings_.RowVec(root);
  return a_ * Dot(eu, phi) + b_ * StructScore(task, cand) + c_;
}

Status NeuralDiffusionBaseline::Fit(const core::RetweetTask& task) {
  if (task.train.empty()) {
    return Status::FailedPrecondition("NeuralDiffusionBaseline: empty train");
  }
  Rng rng(options_.seed ^ 0x1234ULL);
  std::vector<size_t> order(task.train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    const double lr = options_.learning_rate /
                      (1.0 + 0.3 * static_cast<double>(epoch));
    rng.Shuffle(&order);
    for (size_t idx : order) {
      const core::RetweetCandidate& cand = task.train[idx];
      const datagen::NodeId root =
          world_->tweets()[task.tweets[cand.tweet_pos].tweet_id].author;
      const Vec phi = CandidateVector(cand.user);
      const Vec eu = embeddings_.RowVec(root);
      const double dot = Dot(eu, phi);
      const double s = StructScore(task, cand);
      const double z = a_ * dot + b_ * s + c_;
      const double err = Sigmoid(z) - static_cast<double>(cand.label);

      // Scalar parameters.
      a_ -= lr * err * dot;
      if (kind_ != NeuralBaselineKind::kHidan) b_ -= lr * err * s;
      c_ -= lr * err;

      // Embedding updates (candidate's own embedding carries weight 1 for
      // TopoLSTM/HIDAN, 1/2 under FOREST's aggregation).
      const double phi_self_w =
          kind_ == NeuralBaselineKind::kForest ? 0.5 : 1.0;
      double* ev = embeddings_.Row(cand.user);
      double* eru = embeddings_.Row(root);
      const double g = lr * err * a_;
      for (size_t k = 0; k < options_.embed_dim; ++k) {
        const double du = g * phi[k];
        const double dv = g * eu[k] * phi_self_w;
        eru[k] -= du;
        ev[k] -= dv;
      }
    }
  }
  return Status::OK();
}

Vec NeuralDiffusionBaseline::ScoreCandidates(
    const core::RetweetTask& task,
    const std::vector<core::RetweetCandidate>& candidates) const {
  Vec scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = Sigmoid(Logit(task, candidates[i]));
  }
  return scores;
}

void NeuralDiffusionBaseline::SaveTo(io::Checkpoint* ckpt,
                                     const std::string& prefix) const {
  ckpt->PutI64(prefix + "kind", static_cast<int64_t>(kind_));
  ckpt->PutI64(prefix + "neighbor_samples",
               static_cast<int64_t>(options_.neighbor_samples));
  ckpt->PutTensor(prefix + "embeddings", embeddings_);
  ckpt->PutF64(prefix + "a", a_);
  ckpt->PutF64(prefix + "b", b_);
  ckpt->PutF64(prefix + "c", c_);
}

Status NeuralDiffusionBaseline::LoadFrom(const io::Checkpoint& ckpt,
                                         const std::string& prefix) {
  int64_t kind = 0, neighbor_samples = 0;
  Matrix embeddings;
  double a = 0.0, b = 0.0, c = 0.0;
  RETINA_RETURN_NOT_OK(ckpt.GetI64(prefix + "kind", &kind));
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "neighbor_samples", &neighbor_samples));
  RETINA_RETURN_NOT_OK(ckpt.GetTensor(prefix + "embeddings", &embeddings));
  RETINA_RETURN_NOT_OK(ckpt.GetF64(prefix + "a", &a));
  RETINA_RETURN_NOT_OK(ckpt.GetF64(prefix + "b", &b));
  RETINA_RETURN_NOT_OK(ckpt.GetF64(prefix + "c", &c));
  if (kind < static_cast<int64_t>(NeuralBaselineKind::kTopoLstm) ||
      kind > static_cast<int64_t>(NeuralBaselineKind::kHidan)) {
    return Status::InvalidArgument("unknown neural baseline kind");
  }
  if (neighbor_samples < 0) {
    return Status::InvalidArgument("negative neighbor sample count");
  }
  if (embeddings.rows() != world_->NumUsers() || embeddings.cols() == 0) {
    return Status::InvalidArgument(
        "neural baseline embedding table does not match the world's users");
  }
  kind_ = static_cast<NeuralBaselineKind>(kind);
  options_.neighbor_samples = static_cast<size_t>(neighbor_samples);
  options_.embed_dim = embeddings.cols();
  embeddings_ = std::move(embeddings);
  a_ = a;
  b_ = b;
  c_ = c;
  return Status::OK();
}

}  // namespace retina::diffusion
