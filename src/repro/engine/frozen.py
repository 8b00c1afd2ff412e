"""Frozen network snapshots: weights as plain ndarrays, no autodiff.

The serving engine never trains, so it does not need :class:`Tensor`
objects, tape bookkeeping, or the ``no_grad`` context — just contiguous
float64 arrays and matmuls.  Each ``Frozen*`` class mirrors one module
from :mod:`repro.nn`:

* ``copy=True``  — snapshot semantics: the frozen net keeps private
  copies, so later training or ``load_state_dict`` on the source module
  cannot change it (what :meth:`repro.core.DeepOHeat.compile` hands out).
* ``copy=False`` — live-view semantics: the frozen net aliases the
  module's parameter arrays (all optimizers and ``load_state_dict``
  update in place), so it always evaluates the current weights.  The
  trunk-feature cache then keys on :meth:`FrozenTrunk.digest` to notice
  weight changes.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

from ..nn.activations import Activation
from ..nn.deeponet import MIONet, TrunkNet
from ..nn.fourier import FourierFeatures, fourier_fast_forward
from ..nn.modules import MLP, Dense, mlp_fast_forward


def _snap(array: np.ndarray, copy: bool) -> np.ndarray:
    data = np.asarray(array, dtype=np.float64)
    return data.copy() if copy else data


class FrozenDense:
    """Affine layer over plain ndarrays."""

    __slots__ = ("weight", "bias")

    def __init__(self, dense: Dense, copy: bool = True):
        self.weight = _snap(dense.weight.data, copy)
        self.bias: Optional[np.ndarray] = (
            _snap(dense.bias.data, copy) if dense.use_bias else None
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    @property
    def num_parameters(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self.arrays())

    def arrays(self) -> List[np.ndarray]:
        return [self.weight] if self.bias is None else [self.weight, self.bias]


class FrozenMLP:
    """Fully-connected net over plain ndarrays; activations via ``array``."""

    def __init__(self, mlp: MLP, copy: bool = True):
        self.layer_sizes = list(mlp.layer_sizes)
        self.layers = [FrozenDense(layer, copy) for layer in mlp.layers]
        self.activation: Activation = mlp.activation
        self.output_activation: Optional[Activation] = mlp.output_activation

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return mlp_fast_forward(
            x,
            [layer.weight for layer in self.layers],
            [layer.bias for layer in self.layers],
            self.activation,
            self.output_activation,
        )

    @property
    def in_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_features(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.layers)

    @property
    def nbytes(self) -> int:
        return sum(layer.nbytes for layer in self.layers)

    def arrays(self) -> List[np.ndarray]:
        return [array for layer in self.layers for array in layer.arrays()]


class FrozenTrunk:
    """Coordinate network: optional Fourier features + MLP, tape-free."""

    def __init__(self, trunk: TrunkNet, copy: bool = True):
        self.mlp = FrozenMLP(trunk.mlp, copy)
        fourier: Optional[FourierFeatures] = trunk.fourier
        self.frequencies: Optional[np.ndarray] = (
            _snap(fourier.frequencies.data, copy) if fourier is not None else None
        )
        self.include_input = bool(fourier.include_input) if fourier else False

    def __call__(self, points_hat: np.ndarray) -> np.ndarray:
        out = np.asarray(points_hat, dtype=np.float64)
        if self.frequencies is not None:
            out = fourier_fast_forward(out, self.frequencies, self.include_input)
        return self.mlp(out)

    @property
    def out_features(self) -> int:
        return self.mlp.out_features

    @property
    def num_parameters(self) -> int:
        return self.mlp.num_parameters

    @property
    def nbytes(self) -> int:
        total = self.mlp.nbytes
        if self.frequencies is not None:
            total += self.frequencies.nbytes
        return total

    def digest(self) -> str:
        """Content hash of every array the trunk features depend on.

        Used as part of the trunk-feature cache key so live-view engines
        (``copy=False``) notice in-place weight updates.
        """
        hasher = hashlib.sha1()
        if self.frequencies is not None:
            hasher.update(self.frequencies.tobytes())
            hasher.update(b"include" if self.include_input else b"plain")
        for array in self.mlp.arrays():
            hasher.update(array.tobytes())
        return hasher.hexdigest()


class FrozenMIONet:
    """Tape-free MIONet: branch Hadamard merge against trunk features."""

    def __init__(self, net: MIONet, copy: bool = True):
        self.branches = [FrozenMLP(branch, copy) for branch in net.branches]
        self.trunk = FrozenTrunk(net.trunk, copy)
        self.bias = _snap(net.bias.data, copy)

    @property
    def n_inputs(self) -> int:
        return len(self.branches)

    @property
    def feature_width(self) -> int:
        return self.trunk.out_features

    @property
    def num_parameters(self) -> int:
        total = sum(branch.num_parameters for branch in self.branches)
        return total + self.trunk.num_parameters + self.bias.size

    @property
    def nbytes(self) -> int:
        """Resident weight bytes (what one warm engine pins in memory)."""
        total = sum(branch.nbytes for branch in self.branches)
        return total + self.trunk.nbytes + self.bias.nbytes

    def branch_features(self, branch_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Hadamard product of branch outputs, shape (n_funcs, q)."""
        if len(branch_arrays) != len(self.branches):
            raise ValueError(
                f"expected {len(self.branches)} branch inputs, "
                f"got {len(branch_arrays)}"
            )
        product = self.branches[0](np.asarray(branch_arrays[0], dtype=np.float64))
        for branch, u in zip(self.branches[1:], branch_arrays[1:]):
            product = product * branch(np.asarray(u, dtype=np.float64))
        return product

    def combine(self, features: np.ndarray, trunk_features: np.ndarray) -> np.ndarray:
        """Merge (n_funcs, q) branch features with (n_pts, q) trunk features."""
        return features @ trunk_features.T + self.bias
