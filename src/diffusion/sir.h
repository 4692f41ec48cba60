// SIR contagion baseline (Kermack–McKendrick [19]).
//
// Retweeting is modeled as infection along follower edges with a global
// transmission rate and recovery rate; both are fit by grid search on
// training cascades. As the paper's Table VI shows, a homogeneous contagion
// cannot express per-user heterogeneity and collapses to macro-F1 ~ 0.04 on
// the retweeter-classification task.

#ifndef RETINA_DIFFUSION_SIR_H_
#define RETINA_DIFFUSION_SIR_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/retweet_task.h"
#include "datagen/world.h"
#include "diffusion/monte_carlo.h"

namespace retina::diffusion {

struct SirOptions {
  /// Monte-Carlo runs per cascade when scoring.
  int simulations = 5;
  /// Maximum propagation rounds per simulation. Long enough that a
  /// supercritical epidemic reaches quiescence (the paper-regime collapse
  /// requires the flood to complete).
  int max_steps = 30;
  /// Literature-default rates used when Fit() is not called. With a mean
  /// follower count above ~10 these flood the graph — exactly the regime
  /// in which the paper's SIR row collapses to macro-F1 0.04.
  double default_beta = 0.25;
  double default_gamma = 0.3;
  /// Grid-search candidates for the tuned variant.
  std::vector<double> beta_grid = {0.01, 0.03, 0.05, 0.1, 0.2};
  std::vector<double> gamma_grid = {0.2, 0.5, 1.0};
  /// Training cascades used for the fit (cap for speed).
  size_t fit_cascades = 60;
  uint64_t seed = 61;
};

/// \brief SIR simulator + rate fitting on the information network.
class SirModel {
 public:
  SirModel(const datagen::SyntheticWorld* world, SirOptions options)
      : world_(world),
        options_(options),
        beta_(options.default_beta),
        gamma_(options.default_gamma) {}

  /// Grid-searches (beta, gamma) maximizing macro-F1 of the infected set
  /// against true retweeters on training cascades.
  Status Fit(const core::RetweetTask& task);

  /// P(candidate infected) over Monte-Carlo simulations seeded at the
  /// root author.
  Vec ScoreCandidates(const core::RetweetTask& task,
                      const std::vector<core::RetweetCandidate>& candidates);

  /// The paper's evaluation regime: the model predicts an infected set
  /// over the *whole population* for each test cascade; macro-F1 is
  /// computed against the true retweeter sets over all users. With
  /// flooding rates both per-class F1 scores collapse (Table VI: 0.04).
  double FullPopulationMacroF1(const core::RetweetTask& task);

  double beta() const { return beta_; }
  double gamma() const { return gamma_; }

 private:
  /// One stochastic SIR run from `root`; returns the ever-infected set as
  /// a node mask.
  std::vector<char> Simulate(datagen::NodeId root, double beta, double gamma,
                             Rng* rng) const;
  /// Simulate at the current (beta, gamma).
  Flood FittedFlood() const;

  const datagen::SyntheticWorld* world_;
  SirOptions options_;
  double beta_, gamma_;
};

}  // namespace retina::diffusion

#endif  // RETINA_DIFFUSION_SIR_H_
