#include "diffusion/threshold.h"

#include <algorithm>

#include "common/obs.h"

namespace retina::diffusion {

std::vector<char> ThresholdModel::Simulate(datagen::NodeId root,
                                           double influence,
                                           Rng* rng) const {
  const auto& net = world_->network();
  const size_t n = net.NumNodes();
  std::vector<char> active(n, 0);
  active[root] = 1;
  std::vector<datagen::NodeId> frontier{root};

  // Thresholds drawn lazily per node, deterministic within one simulation.
  std::vector<double> threshold(n, -1.0);
  std::vector<double> pressure(n, 0.0);

  for (int round = 0; round < options_.max_rounds && !frontier.empty();
       ++round) {
    std::vector<datagen::NodeId> next;
    for (datagen::NodeId u : frontier) {
      for (datagen::NodeId v : net.Followers(u)) {
        if (active[v]) continue;
        const size_t followees = net.FolloweeCount(v);
        if (followees == 0) continue;
        pressure[v] += influence / static_cast<double>(followees);
        if (threshold[v] < 0.0) threshold[v] = rng->Uniform();
        if (pressure[v] >= threshold[v]) {
          active[v] = 1;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  if (obs::Enabled()) {
    static obs::Counter* sims =
        obs::Registry::Global().GetCounter("diffusion.threshold.simulations");
    static obs::Counter* activated =
        obs::Registry::Global().GetCounter("diffusion.threshold.active_nodes");
    sims->Add(1);
    activated->Add(static_cast<uint64_t>(
        std::count(active.begin(), active.end(), char{1})));
  }
  return active;
}

Status ThresholdModel::Fit(const core::RetweetTask& task) {
  if (task.train.empty()) {
    return Status::FailedPrecondition("ThresholdModel::Fit: empty train");
  }
  const std::vector<double>& grid = options_.influence_grid;
  const size_t best = FitGridPoint(
      *world_, task, options_.fit_cascades, options_.seed, grid.size(),
      [&](size_t point, datagen::NodeId root, Rng* rng) {
        return Simulate(root, grid[point], rng);
      });
  if (best < grid.size()) influence_ = grid[best];
  return Status::OK();
}

Vec ThresholdModel::ScoreCandidates(
    const core::RetweetTask& task,
    const std::vector<core::RetweetCandidate>& candidates) {
  return MonteCarloScores(*world_, task, candidates, options_.simulations,
                          options_.seed ^ 0x7777ULL, FittedFlood());
}

double ThresholdModel::FullPopulationMacroF1(const core::RetweetTask& task) {
  return MonteCarloFullPopulationMacroF1(*world_, task, options_.seed,
                                         FittedFlood());
}

Flood ThresholdModel::FittedFlood() const {
  return [this](datagen::NodeId root, Rng* rng) {
    return Simulate(root, influence_, rng);
  };
}

}  // namespace retina::diffusion
