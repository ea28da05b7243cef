// Uniform training entry points so the templated RMI can fit any top-model
// type (linear, multivariate with auto feature selection, neural net) via a
// single overload set — LIF's "given an index specification, generate
// different index configurations" in C++ templates instead of codegen.

#ifndef LI_RMI_TRAINERS_H_
#define LI_RMI_TRAINERS_H_

#include <span>

#include "common/status.h"
#include "models/isotonic.h"
#include "models/linear.h"
#include "models/multivariate.h"
#include "models/nn.h"

namespace li::rmi {

/// Per-index training knobs forwarded to models that need them.
struct TrainOptions {
  models::NNConfig nn;  // used only when the model is a NeuralNet
};

inline Status TrainModel(models::LinearModel* m, std::span<const double> xs,
                         std::span<const double> ys, const TrainOptions&) {
  return m->Fit(xs, ys);
}

inline Status TrainModel(models::MultivariateModel* m,
                         std::span<const double> xs,
                         std::span<const double> ys, const TrainOptions&) {
  return m->FitAutoSelect(xs, ys);
}

inline Status TrainModel(models::NeuralNet* m, std::span<const double> xs,
                         std::span<const double> ys,
                         const TrainOptions& opts) {
  return m->Fit(xs, ys, opts.nn);
}

/// Monotonic top model (§3.4): guarantees monotone routing, so error
/// bounds hold even for absent lookup keys at the routing stage.
inline Status TrainModel(models::IsotonicModel* m, std::span<const double> xs,
                         std::span<const double> ys, const TrainOptions&) {
  return m->Fit(xs, ys, /*max_knots=*/512);
}

}  // namespace li::rmi

#endif  // LI_RMI_TRAINERS_H_
