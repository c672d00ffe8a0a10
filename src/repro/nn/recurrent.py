"""Recurrent layers: LSTM cell and multi-layer LSTM.

The paper's "recursive" model is a 3-layer LSTM classifier with hidden
dimension 128 (Table II).  :class:`LSTM` runs each layer and direction as
one :func:`repro.autograd.functional.lstm_layer` graph node — the time loop,
forward and backward, lives inside that kernel.  :class:`LSTMCell` holds a
layer's parameters and is the public one-step API on top of
:func:`repro.autograd.functional.lstm_step`.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Module, Parameter, Tensor, functional as F
from .dropout import Dropout

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM step with fused gate weights.

    Gate layout inside the fused matrices is ``[input, forget, cell, output]``.
    The forget-gate bias is initialised to 1, the standard trick for keeping
    long-range memory early in training.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        scale = 1.0 / np.sqrt(hidden_dim)
        self.weight_ih = Parameter(rng.uniform(-scale, scale, size=(4 * hidden_dim, input_dim)).astype(np.float32))
        self.weight_hh = Parameter(rng.uniform(-scale, scale, size=(4 * hidden_dim, hidden_dim)).astype(np.float32))
        bias = np.zeros(4 * hidden_dim, dtype=np.float32)
        bias[hidden_dim:2 * hidden_dim] = 1.0  # forget gate
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        """Advance one step: ``x`` is ``(batch, input_dim)``; returns ``(h, c)``."""
        h_prev, c_prev = state
        return F.lstm_step(F.linear(x, self.weight_ih, self.bias), h_prev, c_prev,
                           self.weight_hh)

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_dim), dtype=self.weight_hh.dtype)
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Multi-layer LSTM over ``(batch, seq, input_dim)`` input.

    Returns the full output sequence of the top layer and the final
    ``(h, c)`` of every layer.  Inter-layer dropout follows torch semantics
    (applied to every layer's output except the last).  With
    ``bidirectional=True`` a second stack reads the sequence right-to-left
    and outputs are concatenated, giving width ``2 * hidden_dim``.
    """

    def __init__(self, input_dim: int, hidden_dim: int, num_layers: int = 1,
                 dropout: float = 0.0, bidirectional: bool = False,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.bidirectional = bidirectional
        from ..autograd import ModuleList

        directions = 2 if bidirectional else 1
        self.cells = ModuleList(
            LSTMCell(input_dim if layer == 0 else hidden_dim * directions,
                     hidden_dim, rng=rng)
            for layer in range(num_layers)
        )
        if bidirectional:
            self.cells_reverse = ModuleList(
                LSTMCell(input_dim if layer == 0 else hidden_dim * directions,
                         hidden_dim, rng=rng)
                for layer in range(num_layers)
            )
        else:
            self.cells_reverse = None
        self.inter_dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    def forward(self, x: Tensor, mask: np.ndarray | None = None
                ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Run the stack over time.

        Parameters
        ----------
        x:
            ``(batch, seq, input_dim)`` input.
        mask:
            Optional boolean ``(batch, seq)``; False (padding) steps carry the
            previous state forward unchanged, so padded tails do not corrupt
            the final state.
        """
        batch, seq, _ = x.shape
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (batch, seq):
                raise ValueError(f"mask shape {mask.shape} != {(batch, seq)}")

        def run(cell: LSTMCell, layer_input: Tensor, reverse: bool = False):
            return F.lstm_layer(layer_input, cell.weight_ih, cell.weight_hh,
                                cell.bias, mask=mask, reverse=reverse)

        layer_input = x
        final_states: list[tuple[Tensor, Tensor]] = []
        for layer_index in range(self.num_layers):
            layer_output, h, c = run(self.cells[layer_index], layer_input)
            if self.cells_reverse is not None:
                reverse_output, h_r, c_r = run(self.cells_reverse[layer_index],
                                               layer_input, reverse=True)
                layer_output = Tensor.concatenate([layer_output, reverse_output], axis=2)
                h = Tensor.concatenate([h, h_r], axis=1)
                c = Tensor.concatenate([c, c_r], axis=1)
            final_states.append((h, c))
            if self.inter_dropout is not None and layer_index < self.num_layers - 1:
                layer_output = self.inter_dropout(layer_output)
            layer_input = layer_output
        return layer_input, final_states
