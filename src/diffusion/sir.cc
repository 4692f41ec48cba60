#include "diffusion/sir.h"

#include <algorithm>

#include "common/obs.h"

namespace retina::diffusion {

std::vector<char> SirModel::Simulate(datagen::NodeId root, double beta,
                                     double gamma, Rng* rng) const {
  const auto& net = world_->network();
  std::vector<char> ever_infected(net.NumNodes(), 0);
  std::vector<datagen::NodeId> active{root};
  ever_infected[root] = 1;
  for (int step = 0; step < options_.max_steps && !active.empty(); ++step) {
    std::vector<datagen::NodeId> next;
    for (datagen::NodeId u : active) {
      for (datagen::NodeId v : net.Followers(u)) {
        if (ever_infected[v]) continue;
        if (rng->Bernoulli(beta)) {
          ever_infected[v] = 1;
          next.push_back(v);
        }
      }
      // Recovery: an infected node stays contagious with prob 1-gamma.
      if (!rng->Bernoulli(gamma)) next.push_back(u);
    }
    active = std::move(next);
  }
  if (obs::Enabled()) {
    static obs::Counter* sims =
        obs::Registry::Global().GetCounter("diffusion.sir.simulations");
    static obs::Counter* infected =
        obs::Registry::Global().GetCounter("diffusion.sir.infected_nodes");
    sims->Add(1);
    infected->Add(static_cast<uint64_t>(
        std::count(ever_infected.begin(), ever_infected.end(), char{1})));
  }
  return ever_infected;
}

Status SirModel::Fit(const core::RetweetTask& task) {
  if (task.train.empty()) {
    return Status::FailedPrecondition("SirModel::Fit: empty train split");
  }
  // The (beta, gamma) grid, beta-major.
  const auto& betas = options_.beta_grid;
  const auto& gammas = options_.gamma_grid;
  const size_t n_gamma = gammas.size();
  const auto beta = [&](size_t p) { return betas[p / n_gamma]; };
  const auto gamma = [&](size_t p) { return gammas[p % n_gamma]; };
  const size_t n_points = betas.size() * n_gamma;
  const size_t best = FitGridPoint(
      *world_, task, options_.fit_cascades, options_.seed, n_points,
      [&](size_t p, datagen::NodeId root, Rng* rng) {
        return Simulate(root, beta(p), gamma(p), rng);
      });
  if (best < n_points) {
    beta_ = beta(best);
    gamma_ = gamma(best);
  }
  return Status::OK();
}

Vec SirModel::ScoreCandidates(
    const core::RetweetTask& task,
    const std::vector<core::RetweetCandidate>& candidates) {
  return MonteCarloScores(*world_, task, candidates, options_.simulations,
                          options_.seed ^ 0xABCDULL, FittedFlood());
}

double SirModel::FullPopulationMacroF1(const core::RetweetTask& task) {
  return MonteCarloFullPopulationMacroF1(*world_, task, options_.seed,
                                         FittedFlood());
}

Flood SirModel::FittedFlood() const {
  return [this](datagen::NodeId root, Rng* rng) {
    return Simulate(root, beta_, gamma_, rng);
  };
}

}  // namespace retina::diffusion
