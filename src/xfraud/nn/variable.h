#ifndef XFRAUD_NN_VARIABLE_H_
#define XFRAUD_NN_VARIABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "xfraud/nn/tensor.h"

namespace xfraud::nn {

namespace internal {

/// One node of the reverse-mode autodiff graph.
struct VarImpl {
  Tensor value;
  Tensor grad;  // Lazily allocated; same shape as value once touched.
  bool requires_grad = false;
  /// Bit i is set when input i of the op that made this node takes a
  /// gradient. Fixed when the op runs; backward_fn reads it.
  uint32_t grad_inputs = 0;
  /// The inputs that take a gradient (empty for leaves and constants).
  std::vector<std::shared_ptr<VarImpl>> parents;
  /// Propagates this node's grad into its parents' grads.
  std::function<void(VarImpl*)> backward_fn;

  bool InputTakesGrad(int i) const { return ((grad_inputs >> i) & 1u) != 0; }

  Tensor& EnsureGrad() {
    if (!grad.SameShape(value)) grad = Tensor::ZerosLike(value);
    return grad;
  }
};

}  // namespace internal

/// A tensor plus its place in the autodiff tape. Copying a Var aliases the
/// underlying node (shared_ptr semantics), mirroring torch.Tensor.
///
/// The engine is a classic define-by-run tape: every op allocates a fresh
/// node whose closure knows how to push gradients to its inputs; calling
/// Backward() on a scalar output runs the closures in reverse topological
/// order. A node joins the tape (keeps parents and a closure) only when
/// some input takes a gradient: an input requires grad, is not frozen by a
/// FreezeScope, and no NoGradScope is open on the calling thread. Model
/// parameters always require grad, so a forward pass builds a full tape
/// unless it runs under a NoGradScope — core::GnnModel::Forward opens one
/// for every pure-inference call.
class Var {
 public:
  Var() = default;

  /// Wraps a tensor. `requires_grad=true` marks it as a trainable leaf.
  explicit Var(Tensor value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }

  const Tensor& value() const { return impl_->value; }
  Tensor& mutable_value() { return impl_->value; }

  /// Gradient accumulated by the last Backward(). Allocates zeros on demand.
  Tensor& grad() { return impl_->EnsureGrad(); }

  bool requires_grad() const { return impl_ && impl_->requires_grad; }

  int64_t rows() const { return impl_->value.rows(); }
  int64_t cols() const { return impl_->value.cols(); }

  /// Scalar convenience accessor; pre: shape is [1,1].
  float item() const;

  /// Clears this node's gradient buffer (leaves only; cheap no-op otherwise).
  void ZeroGrad();

  /// Runs reverse-mode autodiff from this node. Pre: shape is [1,1] and
  /// requires_grad() (a root built without a tape is a checked error).
  void Backward();

  std::shared_ptr<internal::VarImpl> impl() const { return impl_; }

  /// Used by ops to construct result nodes.
  static Var FromImpl(std::shared_ptr<internal::VarImpl> impl);

 private:
  std::shared_ptr<internal::VarImpl> impl_;
};

/// While alive, ops run on the calling thread record no tape: every result
/// has requires_grad() == false and keeps no parents and no closure, so
/// each intermediate is freed as soon as the forward pass drops it. Values
/// are bit-identical to a taped run. Scopes nest; other threads keep
/// building their tapes.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();

  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// True while a scope is open on the calling thread.
  static bool Active();
};

/// While alive, ops run on the calling thread treat `frozen` as constants:
/// no gradient flows into them, and an op whose only grad-taking inputs
/// are frozen records no tape node. Their requires_grad flags stay as they
/// are, so other threads sharing them see no change. Freezing is decided
/// when an op runs, so a later Backward() leaves frozen grads untouched
/// wherever it is called. Scopes nest (the union is frozen).
class FreezeScope {
 public:
  explicit FreezeScope(const std::vector<Var>& frozen);
  ~FreezeScope();

  FreezeScope(const FreezeScope&) = delete;
  FreezeScope& operator=(const FreezeScope&) = delete;

  /// True when a scope open on the calling thread freezes `v`.
  static bool Frozen(const Var& v);

 private:
  std::vector<const internal::VarImpl*> frozen_;  // Sorted.
  const FreezeScope* outer_;
};

}  // namespace xfraud::nn

#endif  // XFRAUD_NN_VARIABLE_H_
