#include "diffusion/monte_carlo.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "ml/metrics.h"

namespace retina::diffusion {

namespace {

// Contiguous [begin, end) runs of the same tweet, at most `max_groups`
// of them (at least one).
std::vector<std::pair<size_t, size_t>> TweetGroups(
    const std::vector<core::RetweetCandidate>& candidates,
    size_t max_groups) {
  std::vector<std::pair<size_t, size_t>> groups;
  for (size_t i = 0; i < candidates.size();) {
    size_t j = i + 1;
    while (j < candidates.size() &&
           candidates[j].tweet_pos == candidates[i].tweet_pos) {
      ++j;
    }
    groups.emplace_back(i, j);
    i = j;
    if (groups.size() >= max_groups) break;
  }
  return groups;
}

}  // namespace

size_t FitGridPoint(
    const datagen::SyntheticWorld& world, const core::RetweetTask& task,
    size_t fit_cascades, uint64_t seed, size_t n_points,
    const std::function<std::vector<char>(size_t point, datagen::NodeId root,
                                          Rng* rng)>& simulate) {
  const std::vector<std::pair<size_t, size_t>> groups =
      TweetGroups(task.train, fit_cascades);

  double best_f1 = -1.0;
  size_t best = n_points;
  for (size_t point = 0; point < n_points; ++point) {
    // Each (grid point, cascade) flood draws from its own seed-derived
    // stream, so the grid search parallelizes over cascades without the
    // thread count perturbing any simulation.
    std::vector<std::vector<int>> preds(groups.size());
    par::ParallelFor(groups.size(), 1, [&](size_t g) {
      const auto& [begin, end] = groups[g];
      const auto& ctx = task.tweets[task.train[begin].tweet_pos];
      const datagen::NodeId root = world.tweets()[ctx.tweet_id].author;
      Rng sim_rng = Rng::Stream(seed, point * groups.size() + g);
      const std::vector<char> reached = simulate(point, root, &sim_rng);
      preds[g].reserve(end - begin);
      for (size_t s = begin; s < end; ++s) {
        preds[g].push_back(reached[task.train[s].user] ? 1 : 0);
      }
    });
    std::vector<int> y_true, y_pred;
    for (size_t g = 0; g < groups.size(); ++g) {
      const auto& [begin, end] = groups[g];
      for (size_t s = begin; s < end; ++s) {
        y_true.push_back(task.train[s].label);
      }
      y_pred.insert(y_pred.end(), preds[g].begin(), preds[g].end());
    }
    const double f1 = ml::MacroF1(y_true, y_pred);
    if (f1 > best_f1) {
      best_f1 = f1;
      best = point;
    }
  }
  return best;
}

Vec MonteCarloScores(const datagen::SyntheticWorld& world,
                     const core::RetweetTask& task,
                     const std::vector<core::RetweetCandidate>& candidates,
                     int simulations, uint64_t stream_seed,
                     const Flood& flood) {
  Vec scores(candidates.size(), 0.0);
  const size_t n_sims = static_cast<size_t>(std::max(simulations, 0));
  // Group by tweet so each simulation batch is reused for its candidates.
  const std::vector<std::pair<size_t, size_t>> groups =
      TweetGroups(candidates, candidates.size());
  for (size_t k = 0; k < groups.size(); ++k) {
    const auto [i, j] = groups[k];
    const auto& ctx = task.tweets[candidates[i].tweet_pos];
    const datagen::NodeId root = world.tweets()[ctx.tweet_id].author;
    // Monte-Carlo floods run in parallel, one seed-derived stream per
    // (group, simulation); per-chunk hit counts reduce in chunk order.
    const Vec counts = par::ParallelReduce<Vec>(
        n_sims, 1, Vec(j - i, 0.0),
        [&](const par::ChunkRange& chunk) {
          Vec local(j - i, 0.0);
          for (size_t sim = chunk.begin; sim < chunk.end; ++sim) {
            Rng sim_rng = Rng::Stream(stream_seed, k * n_sims + sim);
            const std::vector<char> reached = flood(root, &sim_rng);
            for (size_t s = i; s < j; ++s) {
              if (reached[candidates[s].user]) local[s - i] += 1.0;
            }
          }
          return local;
        },
        [](Vec acc, Vec chunk_counts) {
          Axpy(1.0, chunk_counts, &acc);
          return acc;
        });
    for (size_t s = i; s < j; ++s) {
      scores[s] = counts[s - i] / static_cast<double>(simulations);
    }
  }
  return scores;
}

double MonteCarloFullPopulationMacroF1(const datagen::SyntheticWorld& world,
                                       const core::RetweetTask& task,
                                       uint64_t seed, const Flood& flood) {
  const uint64_t base_seed = seed ^ 0xF00DULL;
  // Distinct test cascades.
  std::vector<size_t> tweet_positions;
  for (const auto& cand : task.test) {
    if (tweet_positions.empty() || tweet_positions.back() != cand.tweet_pos) {
      tweet_positions.push_back(cand.tweet_pos);
    }
  }
  const size_t n_users = world.NumUsers();
  // Every cascade owns a disjoint slice of the flat label arrays; floods
  // draw from per-cascade streams, so the parallel fill is deterministic.
  const size_t stride = n_users == 0 ? 0 : n_users - 1;
  std::vector<int> y_true(tweet_positions.size() * stride, 0);
  std::vector<int> y_pred(tweet_positions.size() * stride, 0);
  par::ParallelFor(tweet_positions.size(), 1, [&](size_t k) {
    const size_t pos = tweet_positions[k];
    const size_t tweet_id = task.tweets[pos].tweet_id;
    const datagen::NodeId root = world.tweets()[tweet_id].author;
    Rng sim_rng = Rng::Stream(base_seed, k);
    const std::vector<char> reached = flood(root, &sim_rng);
    std::vector<char> retweeted(n_users, 0);
    for (const auto& rt : world.cascades()[tweet_id].retweets) {
      retweeted[rt.user] = 1;
    }
    size_t out = k * stride;
    for (size_t u = 0; u < n_users; ++u) {
      if (u == root) continue;
      y_true[out] = retweeted[u];
      y_pred[out] = reached[u];
      ++out;
    }
  });
  return ml::MacroF1(y_true, y_pred);
}

}  // namespace retina::diffusion
