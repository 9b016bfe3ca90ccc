"""Desk-scale simulator of the adaptive massively parallel computation model."""

from .graphs import ComponentLabeling, Graph
from .runtime import ModelConfig, Simulator

__all__ = ["ComponentLabeling", "Graph", "ModelConfig", "Simulator"]
