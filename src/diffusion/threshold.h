// General Threshold model baseline (Kempe, Kleinberg & Tardos [40]).
//
// Each node draws a threshold uniformly at random; a node activates when
// the weighted fraction of its active followees exceeds the threshold.
// Scored as the Monte-Carlo activation frequency of each candidate when the
// cascade is seeded at the root author.

#ifndef RETINA_DIFFUSION_THRESHOLD_H_
#define RETINA_DIFFUSION_THRESHOLD_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/retweet_task.h"
#include "datagen/world.h"
#include "diffusion/monte_carlo.h"

namespace retina::diffusion {

struct ThresholdOptions {
  int simulations = 5;
  int max_rounds = 25;
  /// Influence scale used when Fit() is not called; high enough that the
  /// cascade floods (the regime of the paper's Table VI row).
  double default_influence = 4.0;
  /// Scales edge influence 1/followee_count; fit by grid search.
  std::vector<double> influence_grid = {0.5, 1.0, 2.0, 4.0};
  size_t fit_cascades = 60;
  uint64_t seed = 67;
};

/// \brief Linear-threshold cascade simulator with influence fitting.
class ThresholdModel {
 public:
  ThresholdModel(const datagen::SyntheticWorld* world,
                 ThresholdOptions options)
      : world_(world),
        options_(options),
        influence_(options.default_influence) {}

  /// Fits the influence scale on training cascades (macro-F1 objective).
  Status Fit(const core::RetweetTask& task);

  /// P(candidate activated) over Monte-Carlo simulations.
  Vec ScoreCandidates(const core::RetweetTask& task,
                      const std::vector<core::RetweetCandidate>& candidates);

  /// Full-population macro-F1 (see SirModel::FullPopulationMacroF1).
  double FullPopulationMacroF1(const core::RetweetTask& task);

  double influence() const { return influence_; }

 private:
  std::vector<char> Simulate(datagen::NodeId root, double influence,
                             Rng* rng) const;
  /// Simulate at the current influence scale.
  Flood FittedFlood() const;

  const datagen::SyntheticWorld* world_;
  ThresholdOptions options_;
  double influence_;
};

}  // namespace retina::diffusion

#endif  // RETINA_DIFFUSION_THRESHOLD_H_
