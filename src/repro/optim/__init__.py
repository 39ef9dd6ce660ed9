"""The update rule of the repro autograd engine: Adam, plus gradient clipping."""

from repro.optim.adam import Adam
from repro.optim.clip import clip_grad_norm

__all__ = ["Adam", "clip_grad_norm"]
