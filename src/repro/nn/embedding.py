"""Token embedding lookup layer."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter


class Embedding(Module):
    """Map integer token ids (B, T) to dense vectors (B, T, dim).

    Supports loading frozen pre-trained vectors (the paper uses
    pre-trained word vectors for Sent140); set ``trainable=False`` to
    exclude the table from gradient updates while still counting it in
    the parameter vector layout (mirroring a frozen PyTorch embedding
    with ``requires_grad=False`` would *exclude* it, so we instead zero
    its gradient, which keeps the FL flat-vector layout stable).
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        rng: np.random.Generator | None = None,
        trainable: bool = True,
        pretrained: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.dim = dim
        self.trainable = trainable
        if pretrained is not None:
            if pretrained.shape != (vocab_size, dim):
                raise ValueError(
                    f"pretrained shape {pretrained.shape} != ({vocab_size}, {dim})"
                )
            # Parameter casts to the active dtype policy.
            table = np.array(pretrained)
        else:
            table = rng.normal(0.0, 0.1, size=(vocab_size, dim))
        self.weight = Parameter(table, name="embedding.weight")
        self._ids: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._ids = None

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise ValueError("token id out of range")
        self._ids = ids if self.training else None
        return self.weight.data[ids]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        if self.trainable:
            np.add.at(
                self.weight.grad,
                self._ids.reshape(-1),
                grad_out.reshape(-1, self.dim),
            )
        # Token ids are not differentiable; return a zero placeholder of
        # the input's shape so Sequential chaining stays uniform.
        return np.zeros(self._ids.shape, dtype=self.weight.data.dtype)
