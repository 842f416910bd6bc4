"""Numerical laboratory for coherence / path-information duality relations
in N-path interferometers coupled to a which-path detector and a quantum
memory."""

__version__ = "0.1.0"
