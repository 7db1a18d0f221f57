"""Online learning with graph-structured feedback.

The package splits into:

- :mod:`graphbandit.graph` -- the feedback-graph model, observability
  classification, and the independence / weak-domination solvers;
- :mod:`graphbandit.learners` -- exponential weights and Exp3.G's row
  functions (play distribution, draw, importance-weighted estimates) with
  its parameter presets and the single-game `Exp3G` reference;
- :mod:`graphbandit.environments` -- loss-table generators, including the
  adversarial lower-bound constructions;
- :mod:`graphbandit.harness` -- game loop, regret accounting, seeded sweeps;
- :mod:`graphbandit.partial_monitoring` -- the loss/feedback matrix encoding
  and its observability checks;
- :mod:`graphbandit.cli` -- the `graphbandit` command-line tool.
"""

from .graph import (
    FeedbackGraph,
    GraphClass,
    GraphProfile,
    VertexClass,
    catalog,
    classify_graph,
    independence_number,
    load_graph,
    parse_graph,
    predict_rate,
    profile,
    weak_domination_number,
)

__all__ = [
    "FeedbackGraph",
    "GraphClass",
    "GraphProfile",
    "VertexClass",
    "catalog",
    "classify_graph",
    "independence_number",
    "load_graph",
    "parse_graph",
    "predict_rate",
    "profile",
    "weak_domination_number",
]

__version__ = "0.1.0"
