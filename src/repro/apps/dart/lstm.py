"""A NumPy stacked LSTM used by the inference service.

The paper's inference service uses a TensorFlow stacked LSTM network to
predict weather and environmental events from grouped sensor readings
(§5.1).  TensorFlow is not available offline, so this module implements the
forward pass of a stacked LSTM from scratch in NumPy: identical structure
(stacked recurrent layers followed by a dense read-out), deterministic
weights from a seed, and an inference-cost estimate used by the experiment's
processing-delay model (~2 ms per inference, §5.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class StackedLSTM:
    """A stacked LSTM with a dense output layer (forward pass only).

    The read-out predicts one value; the weights are drawn from seed 0.
    """

    def __init__(self, input_size: int, hidden_sizes: Sequence[int] = (32, 32)):
        if input_size <= 0 or not hidden_sizes:
            raise ValueError("layer sizes must be positive and non-empty")
        self.input_size = input_size
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        rng = np.random.default_rng(0)
        self._layers = []
        previous = input_size
        for hidden in self.hidden_sizes:
            scale = 1.0 / np.sqrt(previous + hidden)
            self._layers.append(
                {
                    "w_x": rng.normal(0.0, scale, size=(4 * hidden, previous)),
                    "w_h": rng.normal(0.0, scale, size=(4 * hidden, hidden)),
                    "bias": np.zeros(4 * hidden),
                    "hidden": hidden,
                }
            )
            previous = hidden
        self._w_out = rng.normal(0.0, 1.0 / np.sqrt(previous), size=(1, previous))
        self._b_out = np.zeros(1)

    # -- forward pass ------------------------------------------------------

    @staticmethod
    def _cell_step(layer: dict, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        hidden = layer["hidden"]
        gates = layer["w_x"] @ x + layer["w_h"] @ h + layer["bias"]
        i = _sigmoid(gates[:hidden])
        f = _sigmoid(gates[hidden : 2 * hidden])
        g = np.tanh(gates[2 * hidden : 3 * hidden])
        o = _sigmoid(gates[3 * hidden :])
        c_next = f * c + i * g
        h_next = o * np.tanh(c_next)
        return h_next, c_next

    def forward(self, sequence: np.ndarray) -> np.ndarray:
        """Run the network over a (timesteps, input_size) sequence."""
        sequence = np.asarray(sequence, dtype=float)
        if sequence.ndim == 1:
            sequence = sequence[:, None]
        if sequence.shape[1] != self.input_size:
            raise ValueError(
                f"expected input size {self.input_size}, got {sequence.shape[1]}"
            )
        states = [
            (np.zeros(layer["hidden"]), np.zeros(layer["hidden"])) for layer in self._layers
        ]
        for x in sequence:
            layer_input = x
            for index, layer in enumerate(self._layers):
                h, c = states[index]
                h, c = self._cell_step(layer, layer_input, h, c)
                states[index] = (h, c)
                layer_input = h
        return self._w_out @ states[-1][0] + self._b_out

    def predict(self, window: np.ndarray) -> np.ndarray:
        """Alias of :meth:`forward` matching the inference-service wording."""
        return self.forward(window)

    # -- metadata ------------------------------------------------------------

    def parameter_count(self) -> int:
        """Number of trainable parameters in the network."""
        count = 0
        for layer in self._layers:
            count += layer["w_x"].size + layer["w_h"].size + layer["bias"].size
        return count + self._w_out.size + self._b_out.size

    def inference_nominal_seconds(self) -> float:
        """Single-core inference duration estimate used as processing delay.

        The paper observes ~2 ms of processing latency per inference in both
        deployments (§5.2); the estimate scales mildly with model size.
        """
        base = 0.002
        return base * max(1.0, self.parameter_count() / 10_000.0)
