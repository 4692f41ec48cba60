// Recurrent-cell family behind dynamic RETINA (Figure 4(c)).
//
// The paper's dynamic head uses a GRU but reports having tried a simple
// RNN (worse) and an LSTM (no gain) — Section V-B. All three are available
// behind one interface so the ablation bench can reproduce that comparison.
//
// A cell maps (input, state) -> state. The observable output is the first
// hidden_dim() entries of the state vector (for the LSTM the remainder is
// the cell state c).

#ifndef RETINA_NN_RECURRENT_H_
#define RETINA_NN_RECURRENT_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/param.h"
#include "nn/param_registry.h"

namespace retina::nn {

/// Per-step cache for RecurrentCell::Backward. `aux` slots are
/// cell-specific (gate activations etc.).
struct RecCache {
  Vec x;
  Vec state_prev;
  std::vector<Vec> aux;
};

/// \brief Common interface over GRU / LSTM / simple RNN cells.
class RecurrentCell {
 public:
  virtual ~RecurrentCell() = default;

  /// Size of the full recurrent state.
  virtual size_t state_dim() const = 0;
  /// Size of the observable output (prefix of the state).
  virtual size_t hidden_dim() const = 0;
  virtual size_t in_dim() const = 0;

  /// One step: returns the new state; fills `cache` when non-null.
  virtual Vec Forward(const Vec& x, const Vec& state,
                      RecCache* cache) const = 0;

  /// Backward through one step given d(new state); accumulates parameter
  /// gradients and emits input / previous-state gradients.
  virtual void Backward(const RecCache& cache, const Vec& dstate, Vec* dx,
                        Vec* dstate_prev) = 0;

  /// Registers the cell's parameters under `scope` (deterministic order;
  /// weight matrices Glorot, biases kKeep).
  virtual void RegisterParams(ParamRegistry* registry,
                              const std::string& scope) = 0;

  /// Deep copy (values and gradient accumulators). RETINA-D's training
  /// step gives each candidate chunk after the first its own copy and
  /// adds the copies' gradients back in chunk order.
  virtual std::unique_ptr<RecurrentCell> Clone() const = 0;
};

enum class RecurrentKind { kGru, kLstm, kSimpleRnn };

const char* RecurrentKindName(RecurrentKind kind);

/// \brief Vanilla RNN: h' = tanh(W x + U h + b).
class SimpleRnnCell : public RecurrentCell {
 public:
  SimpleRnnCell(size_t in_dim, size_t hidden_dim);

  size_t state_dim() const override { return hidden_dim_; }
  size_t hidden_dim() const override { return hidden_dim_; }
  size_t in_dim() const override { return in_dim_; }
  Vec Forward(const Vec& x, const Vec& state,
              RecCache* cache) const override;
  void Backward(const RecCache& cache, const Vec& dstate, Vec* dx,
                Vec* dstate_prev) override;
  void RegisterParams(ParamRegistry* registry,
                      const std::string& scope) override {
    registry->Register(scope + "/W", &W_, ParamInit::kGlorot);
    registry->Register(scope + "/U", &U_, ParamInit::kGlorot);
    registry->Register(scope + "/b", &b_);
  }
  std::unique_ptr<RecurrentCell> Clone() const override {
    return std::make_unique<SimpleRnnCell>(*this);
  }

 private:
  size_t in_dim_, hidden_dim_;
  Param W_, U_, b_;
};

/// \brief LSTM cell; state = [h, c].
class LstmCell : public RecurrentCell {
 public:
  LstmCell(size_t in_dim, size_t hidden_dim);

  size_t state_dim() const override { return 2 * hidden_dim_; }
  size_t hidden_dim() const override { return hidden_dim_; }
  size_t in_dim() const override { return in_dim_; }
  Vec Forward(const Vec& x, const Vec& state,
              RecCache* cache) const override;
  void Backward(const RecCache& cache, const Vec& dstate, Vec* dx,
                Vec* dstate_prev) override;
  void RegisterParams(ParamRegistry* registry,
                      const std::string& scope) override;
  std::unique_ptr<RecurrentCell> Clone() const override {
    return std::make_unique<LstmCell>(*this);
  }

 private:
  size_t in_dim_, hidden_dim_;
  Param Wi_, Ui_, bi_;
  Param Wf_, Uf_, bf_;
  Param Wo_, Uo_, bo_;
  Param Wc_, Uc_, bc_;
};

/// \brief GRU cell, the paper's choice:
///   z = sigmoid(Wz x + Uz h + bz)
///   r = sigmoid(Wr x + Ur h + br)
///   hhat = tanh(Wh x + Uh (r*h) + bh)
///   h' = (1-z)*h + z*hhat
/// The state is h; a step's cache keeps aux = {z, r, hhat}.
class GruCell : public RecurrentCell {
 public:
  GruCell(size_t in_dim, size_t hidden_dim);

  size_t state_dim() const override { return hidden_dim_; }
  size_t hidden_dim() const override { return hidden_dim_; }
  size_t in_dim() const override { return in_dim_; }
  Vec Forward(const Vec& x, const Vec& state,
              RecCache* cache) const override;
  void Backward(const RecCache& cache, const Vec& dstate, Vec* dx,
                Vec* dstate_prev) override;
  void RegisterParams(ParamRegistry* registry,
                      const std::string& scope) override;
  std::unique_ptr<RecurrentCell> Clone() const override {
    return std::make_unique<GruCell>(*this);
  }

 private:
  size_t in_dim_, hidden_dim_;
  Param Wz_, Uz_, bz_;
  Param Wr_, Ur_, br_;
  Param Wh_, Uh_, bh_;
};

/// Factory over the three kinds.
std::unique_ptr<RecurrentCell> MakeRecurrentCell(RecurrentKind kind,
                                                 size_t in_dim,
                                                 size_t hidden_dim);

}  // namespace retina::nn

#endif  // RETINA_NN_RECURRENT_H_
