// Monte-Carlo cascade engine shared by the SIR and General Threshold
// baselines: the rate fit, candidate scoring and full-population macro-F1.
// The models differ only in the flood itself, which each passes in. Every
// flood draws from its own Rng::Stream keyed by what it simulates, so each
// routine gives the same bits at any thread count.

#ifndef RETINA_DIFFUSION_MONTE_CARLO_H_
#define RETINA_DIFFUSION_MONTE_CARLO_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/retweet_task.h"
#include "datagen/world.h"

namespace retina::diffusion {

/// One stochastic cascade from `root`: the mask of the nodes it reached.
using Flood = std::function<std::vector<char>(datagen::NodeId root, Rng* rng)>;

/// Grid search over n_points settings: point p floods the root author of
/// each of the first `fit_cascades` train tweet groups once, with
/// simulate(p, root, rng) on Rng::Stream(seed, p * groups + g), and scores
/// "reached" against the train labels by macro-F1. Returns the first best
/// point, or n_points for an empty grid.
size_t FitGridPoint(
    const datagen::SyntheticWorld& world, const core::RetweetTask& task,
    size_t fit_cascades, uint64_t seed, size_t n_points,
    const std::function<std::vector<char>(size_t point, datagen::NodeId root,
                                          Rng* rng)>& simulate);

/// P(candidate reached) over `simulations` floods from the root author;
/// simulation s of the k-th tweet group draws from
/// Rng::Stream(stream_seed, k * simulations + s).
Vec MonteCarloScores(const datagen::SyntheticWorld& world,
                     const core::RetweetTask& task,
                     const std::vector<core::RetweetCandidate>& candidates,
                     int simulations, uint64_t stream_seed,
                     const Flood& flood);

/// The paper's evaluation regime: one flood per distinct test cascade
/// (cascade k on Rng::Stream(seed ^ 0xF00D, k)) predicts an infected set
/// over the whole population, scored by macro-F1 against the true
/// retweeter sets over every user but the root.
double MonteCarloFullPopulationMacroF1(const datagen::SyntheticWorld& world,
                                       const core::RetweetTask& task,
                                       uint64_t seed, const Flood& flood);

}  // namespace retina::diffusion

#endif  // RETINA_DIFFUSION_MONTE_CARLO_H_
